"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single PASS/FAIL line (collected again in the terminal
summary); tolerances and runtime budgets are part of the claim and are
asserted, not advisory.
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from semigreen.config import load_config
from semigreen.exhaustion import correspondence_roundtrip
from semigreen.geometry import build_box_grid
from semigreen.operator import EllipticCoefficients, assemble
from semigreen.potential import factorize, green_potential, poisson_extension
from semigreen.solver import Nonlinearity, solve_U
from semigreen.thinness import (
    criterion_integral,
    mask_predicate,
    necessary_direction_probe,
)
from semigreen.verification import run_suites

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LAPLACE = EllipticCoefficients(zero_order_mode="c_zero")
RAMP = Nonlinearity(lambda p, t: np.maximum(t, 0.0), differentiable=True)


def record(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_interval_green_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for h in (0.1, 1 / 32, 1 / 64, 1 / 257):
        grid = build_box_grid((0.0, 1.0), h)
        gop = factorize(assemble(grid, LAPLACE))
        x = grid.nodes[:, 0]
        err = np.max(np.abs(green_potential(gop, 1.0) - 0.5 * x * (1.0 - x)))
        worst = max(worst, float(err))
    elapsed = time.perf_counter() - t0
    record(1, worst <= 1e-12 and elapsed < 1.0,
           f"max |G1 - x(1-x)/2| = {worst:.2e} over four spacings in {elapsed:.2f}s")


def test_criterion_2_identity_residual_benchmarks():
    res = run_suites(["identity"], seed=0)[0]
    record(2, res.failures == 0 and res.trials >= 5,
           f"identity residual <= 1e-10 on {res.trials} benchmark configs, "
           f"{res.failures} failures")


def test_criterion_3_benchmark_convergence_order():
    t0 = time.perf_counter()
    errs = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        grid = build_box_grid((0.0, 1.0), h)
        op = assemble(grid, LAPLACE)
        u, rep = solve_U(factorize(op), 1.0, RAMP, tol=1e-12, max_iter=400)
        assert rep.status == "converged"
        exact = np.cosh(grid.nodes[:, 0] - 0.5) / math.cosh(0.5)
        errs.append(float(np.max(np.abs(u - exact))))
    elapsed = time.perf_counter() - t0
    ratios = [errs[k] / errs[k + 1] for k in range(2)]
    ok = all(3.5 <= r <= 4.5 for r in ratios) and elapsed < 10.0
    record(3, ok, f"error ratios {ratios[0]:.3f}, {ratios[1]:.3f} in [3.5, 4.5], "
                  f"{elapsed:.2f}s")


def test_criterion_4_randomized_invariants():
    suites = ["comparison", "monotone_data", "sandwich_interleaving", "green_positivity"]
    results = run_suites(suites, seed=0, trials=200)
    fails = {r.name: r.failures for r in results}
    ok = all(f == 0 for f in fails.values()) and all(r.trials == 200 for r in results)
    record(4, ok, f"200 trials per suite at tol 1e-9, failures: {fails}")


def test_criterion_5_exhaustion_monotone(shipped_run):
    worst = -np.inf
    radii_ok = True
    for name in ("thin_support", "sqrt_decay"):
        _, run, _ = shipped_run(name)
        radii = [g.bbox[0][1] for g, _ in run.stages]
        radii_ok &= radii == [4.0, 8.0, 16.0, 32.0]
        for (g1, u1), (g2, u2) in zip(run.stages, run.stages[1:]):
            shared = g2.index_of(g1.nodes)
            worst = max(worst, float(np.max(u2[shared] - u1)))
    record(5, worst <= 1e-9 and radii_ok,
           f"max u_(n+1) - u_n on shared nodes = {worst:.2e} <= 1e-9 across "
           f"both configured runs, radii 4..32")


def test_criterion_6_thin_support_persistence(shipped_run):
    _, run, elapsed = shipped_run("thin_support")
    bound = 1.0 - math.sqrt(0.5) - 1e-3
    final = float(run.anchor_values[-1])
    shape = run.stages[-1][0].shape
    ok = final >= bound and shape == (257, 257) and elapsed < 60.0
    record(6, ok, f"final anchor {final:.6f} >= {bound:.6f}, finest grid "
                  f"{shape[0]}x{shape[1]}, {elapsed:.1f}s")


def test_criterion_7_criterion_dichotomy():
    verdicts = {}
    times = {}
    for name, expected in (("strip_criterion", "bounded_trend"),
                           ("full_criterion", "diverging_trend")):
        cfg = load_config(str(CONFIGS / f"{name}.ini"))
        o = cfg.experiment_opts
        t0 = time.perf_counter()
        rep = criterion_integral(o["kernel"], cfg.phi, o["c0"], o["set_A"],
                                 o["truncations"], x0=o["x0"], cell=o["cell"])
        times[name] = time.perf_counter() - t0
        verdicts[name] = rep.verdict
        assert tuple(rep.radii) == (4.0, 8.0, 16.0, 32.0)
        assert rep.verdict == expected, f"{name}: {rep.verdict}"
    ok = all(t < 30.0 for t in times.values())
    record(7, ok, f"confined absorption {verdicts['strip_criterion']}, "
                  f"everywhere absorption {verdicts['full_criterion']}; "
                  f"{times['strip_criterion']:.2f}s / {times['full_criterion']:.2f}s")


def test_criterion_8_correspondence_roundtrip():
    worst_recon = 0.0
    worst_gap = np.inf
    grids = [build_box_grid((0.0, 1.0), 1 / 64),
             build_box_grid(((0.0, 1.0), (0.0, 1.0)), 1 / 16)]
    for grid in grids:
        for data in (1.0, 2.0, lambda p: p[:, 0]):
            u, rep = correspondence_roundtrip(grid, LAPLACE, RAMP, data, tol=1e-12)
            assert rep.passed
            worst_recon = max(worst_recon, rep.reconstruction_residual)
        u1, _ = correspondence_roundtrip(grid, LAPLACE, RAMP, 1.0, tol=1e-12)
        u2, _ = correspondence_roundtrip(grid, LAPLACE, RAMP, 2.0, tol=1e-12)
        assert np.min(u2 - u1) >= -1e-11
        mid = grid.index_of(tuple(0.5 for _ in range(grid.dim)))
        worst_gap = min(worst_gap, float(u2[mid] - u1[mid]))
    ok = worst_recon <= 1e-9 and worst_gap >= 1e-4
    record(8, ok, f"reconstruction residual <= {worst_recon:.2e}, ordered data "
                  f"stays ordered, anchor gap >= {worst_gap:.4f}")


def test_criterion_9_poisson_normalization():
    ones = lambda s: np.ones_like(s)
    pts = [(0.0, 1.0), (2.0, 0.5), (-3.0, 2.0)]
    vals = poisson_extension(ones, pts, radius=100.0)
    norm_err = float(np.max(np.abs(vals - 1.0)))
    ind = poisson_extension(lambda s: (s > 0).astype(float), [(0.0, 1.0)],
                            radius=100.0, breakpoints=(0.0,))[0]
    ind_err = abs(ind - 0.5)
    ok = norm_err <= 1e-3 and ind_err <= 1e-6
    record(9, ok, f"unit-data extension off by {norm_err:.2e} (<= 1e-3), "
                  f"indicator at (0,1) off by {ind_err:.2e} (<= 1e-6)")


def test_criterion_10_probe_certificate(shipped_run):
    _, run, _ = shipped_run("thin_support")
    cert, verdict = necessary_direction_probe(run)
    grid = run.stages[-1][0]
    v = run.limit_estimate
    c0 = 0.5 * (float(np.min(v)) + float(np.max(v)))  # the probe's default level
    pred = mask_predicate(grid, cert.set_A)
    rep = criterion_integral("halfplane", run.phi, c0, pred,
                             [4.0, 8.0, 16.0, 32.0], x0=run.anchor, cell=0.125)
    c = float(run.sup_s)
    max_i = max(rep.values)
    ok = verdict.passed and max_i <= c
    record(10, ok, f"certificate verified (margin {cert.margin:.3f}), "
                   f"max I_R = {max_i:.4f} <= c = {c:g} over R = 4..32")
