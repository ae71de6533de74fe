"""The benchmark tracer (perfbench/tracing.py) wraps package functions,
methods and the `spla` module aliases by name. A renamed target makes its
install raise, so this test fails with the traced benchmark run. Its
annotate hooks read attributes of what the wrapped calls take and return;
the traced-call test runs them."""

import importlib
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bindings():
    """Every module-level binding of the loaded semigreen modules, and the
    traced methods, keyed by owner and attribute."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "semigreen" or name.startswith("semigreen.")):
            out.update({(name, attr): value for attr, value in vars(mod).items()})
    return out


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = {t[0] for t in tracing.FUNCTIONS + tracing.METHODS + tracing.LINALG}
    modules = {m: importlib.import_module(f"semigreen.{m}") for m in targets}
    methods = {(m, c, a): vars(getattr(modules[m], c))[a] for m, c, a, _ in tracing.METHODS}
    before = _bindings()

    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module, attr, _ in tracing.FUNCTIONS:
            assert getattr(modules[module], attr) is not before[(f"semigreen.{module}", attr)]
        for module, _, _ in tracing.LINALG:
            assert modules[module].spla is not before[(f"semigreen.{module}", "spla")]
    finally:
        tracer.uninstall()

    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    for (module, cls, attr), original in methods.items():
        assert vars(getattr(modules[module], cls))[attr] is original


def test_traced_calls_reach_every_annotate_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    geometry = importlib.import_module("semigreen.geometry")
    operator = importlib.import_module("semigreen.operator")
    potential = importlib.import_module("semigreen.potential")
    solver = importlib.import_module("semigreen.solver")
    phi = solver.Nonlinearity(lambda p, t: np.maximum(t, 0.0) ** 2, differentiable=True)

    tracer = tracing.Tracer()
    try:
        tracer.install()
        grid = geometry.build_box_grid((0.0, 1.0), 1 / 16)
        gop = potential.factorize(operator.assemble(grid, operator.EllipticCoefficients(b1=0.5)))
        _, rep = solver.solve_U(gop, 1.0, phi, scheme="newton")
        metrics = tracing.layer_metrics(tracer.take())
    finally:
        tracer.uninstall()

    assert rep.status == "converged"
    for name in ("potential.factorize_calls", "potential.lu_fill_nnz",
                 "potential.solve_calls", "potential.solve_bytes_computed",
                 "solver.newton_linear_calls"):
        assert metrics[name] > 0, name
