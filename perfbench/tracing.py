"""Runtime spans around the public functions of each semigreen layer.

The tracer wraps functions from the outside: it replaces every module
binding of a traced function (so `from .potential import factorize` in the
CLI is caught too), patches methods on their classes, and hands `potential`
and `solver` a proxy of `scipy.sparse.linalg` whose `splu` and `spsolve`
are wrapped. Nothing in the program is edited; `uninstall` restores every
binding.

Each span is kept in memory as [name, start, end, parent index, attrs] and
written out once, by `write`, after the traced passes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# grid sizes reported separately (nodes per axis, as in grid.shape)
SIZES = ("33x33", "65x65", "129x129", "257x257", "513x513")
STAGES = 4
BYTES_PER_NONZERO = 12  # one float64 value and one int32 index per factor entry

# counters that must repeat exactly for one seed
EXACT_COUNTS = (
    "potential.factorize_calls",
    "potential.solve_calls",
    "potential.lu_fill_nnz",
    "operator.assemble_calls",
    "solver.newton_linear_calls",
    "solver.nonlinear_iterations",
)


# (module, function, span name): every binding of the function is wrapped
FUNCTIONS = (
    ("config", "load_config", "config.load"),
    ("geometry", "build_box_grid", "geometry.grid"),
    ("geometry", "build_halfplane_truncation", "geometry.grid"),
    ("geometry", "build_exhaustion", "geometry.grid"),
    ("operator", "assemble", "operator.assemble"),
    ("potential", "factorize", "potential.factorize"),
    ("potential", "poisson_extension", "potential.poisson_extension"),
    ("solver", "solve_U", "solver.solve_U"),
    ("solver", "check_comparison", "solver.check_comparison"),
    ("exhaustion", "run_exhaustion", "exhaustion.run"),
    ("thinness", "criterion_integral", "thinness.criterion"),
    ("thinness", "verify_certificate", "thinness.certificate"),
    ("verification", "run_suites", "verification.run_suites"),
    ("cli", "main", "cli.main"),
)
# (module, class, method, span name); Nonlinearity.__call__ evaluates the
# parsed expr tree of the config's phi
METHODS = (
    ("potential", "GreenOperator", "solve", "potential.solve"),
    ("solver", "Nonlinearity", "__call__", "solver.phi"),
)
# (module, scipy.sparse.linalg function, span name)
LINALG = (
    ("potential", "splu", "potential.splu"),
    ("solver", "spsolve", "solver.newton_linear"),
)


def _shape_label(grid) -> str:
    return "x".join(str(n) for n in grid.shape)


class _Proxy:
    """Module stand-in that overrides some attributes and delegates the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._fill = {}  # id(SuperLU) -> stored factor nonzeros
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, annotate=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                span[4] = annotate(args, out)
            return out

        return wrapper

    def _splu_attrs(self, args, lu):
        self._fill[id(lu)] = lu.nnz
        return {"nnz": lu.nnz}

    def _solve_attrs(self, args, out):
        gop = args[0]
        return {"shape": _shape_label(gop.op.grid),
                "fill": self._fill.get(id(getattr(gop, "_lu", None)), 0)}

    # -- installing ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "semigreen" or mod_name.startswith("semigreen.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self):
        """Wrap every target. A target that is not found raises LookupError,
        so a renamed or moved function fails the traced run instead of
        reading 0; the tables above then need updating."""
        import importlib

        annotate = {
            "potential.factorize": lambda a, out: {"shape": _shape_label(out.op.grid)},
            "potential.splu": self._splu_attrs,
            "potential.solve": self._solve_attrs,
            "solver.solve_U": lambda a, out: {"iterations": out[1].iterations},
            "exhaustion.run": lambda a, out: {"stages": len(out.stages)},
        }
        for module, attr, name in FUNCTIONS:
            fn = getattr(importlib.import_module(f"semigreen.{module}"), attr, None)
            if fn is None:
                raise LookupError(f"traced function semigreen.{module}.{attr} not found")
            self._replace_everywhere(fn, self._wrap(name, fn, annotate.get(name)))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"semigreen.{module}"), cls_name, None)
            if cls is None or attr not in vars(cls):
                raise LookupError(f"traced method semigreen.{module}.{cls_name}.{attr} "
                                  "not found")
            original = vars(cls)[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, annotate.get(name)))
        # splu and spsolve are wrapped only as these modules call them,
        # through a proxy of the scipy.sparse.linalg they imported as spla
        for module, attr, name in LINALG:
            mod = importlib.import_module(f"semigreen.{module}")
            spla = getattr(mod, "spla", None)
            if spla is None or not hasattr(spla, attr):
                raise LookupError(f"semigreen.{module} calls no spla.{attr} to trace")
            self._undo.append((mod, "spla", spla))
            mod.spla = _Proxy(spla, **{attr: self._wrap(name, getattr(spla, attr),
                                                         annotate.get(name))})

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh record."""
        spans = list(self.spans)
        self.spans.clear()
        self._stack.clear()
        self._fill.clear()
        return spans

    def write(self, path, passes):
        """Write the spans of every traced pass as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, spans in enumerate(passes):
                for i, (name, t0, t1, parent, attrs) in enumerate(spans):
                    fh.write(json.dumps({"pass": k, "id": i, "name": name, "start": t0,
                                         "end": t1, "parent": parent, "attrs": attrs}) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass.

    `*_s` metrics are inclusive times, summed over the outermost span of a
    name (a geometry builder calling another counts once); `*_self_s`
    metrics subtract the time covered by direct child spans. Operation and
    byte counts are computed from the recorded calls, not measured.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    times = defaultdict(float)
    counts = defaultdict(int)
    for i, (name, _, _, parent, attrs) in enumerate(spans):
        calls[name] += 1
        self_time[name] += dur[i] - child[i]
        if parent < 0 or spans[parent][0] != name:
            total[name] += dur[i]
        if name == "potential.factorize":
            times[f"potential.factorize_s.{attrs['shape']}"] += dur[i]
            counts[f"potential.factorize_calls.{attrs['shape']}"] += 1
        elif name == "potential.splu":
            shape = (spans[parent][4] or {}).get("shape") if parent >= 0 else None
            counts["potential.lu_fill_nnz"] += attrs["nnz"]
            counts[f"potential.lu_fill_nnz.{shape}"] += attrs["nnz"]
        elif name == "potential.solve":
            shape, moved = attrs["shape"], BYTES_PER_NONZERO * attrs["fill"]
            times[f"potential.solve_s.{shape}"] += dur[i]
            counts[f"potential.solve_calls.{shape}"] += 1
            counts["potential.solve_bytes_computed"] += moved
            counts[f"potential.solve_bytes_computed.{shape}"] += moved
        elif name == "solver.solve_U":
            counts["solver.nonlinear_iterations"] += attrs["iterations"]
        elif name == "exhaustion.run":
            counts["exhaustion.stages"] += attrs["stages"]
            stage = 0
            for j in range(i + 1, len(spans)):
                if spans[j][1] > spans[i][2]:
                    break
                if spans[j][3] == i and spans[j][0] == "solver.solve_U":
                    counts[f"solver.nonlinear_iterations.stage{stage}"] += spans[j][4]["iterations"]
                    stage += 1

    out = {
        "config.load_s": total["config.load"],
        "solver.phi_s": total["solver.phi"],
        "solver.phi_calls": calls["solver.phi"],
        "geometry.grid_s": total["geometry.grid"],
        "operator.assemble_s": total["operator.assemble"],
        "operator.assemble_calls": calls["operator.assemble"],
        "potential.factorize_s": total["potential.factorize"],
        "potential.factorize_calls": calls["potential.factorize"],
        "potential.lu_fill_nnz": counts["potential.lu_fill_nnz"],
        "potential.solve_s": total["potential.solve"],
        "potential.solve_calls": calls["potential.solve"],
        "potential.solve_bytes_computed": counts["potential.solve_bytes_computed"],
    }
    for key in ("factorize_s", "factorize_calls", "lu_fill_nnz", "solve_s", "solve_calls",
                "solve_bytes_computed"):
        source = times if key.endswith("_s") else counts
        for size in SIZES:
            out[f"potential.{key}.{size}"] = source[f"potential.{key}.{size}"]
    out.update({
        "potential.poisson_extension_s": total["potential.poisson_extension"],
        "solver.solve_U_self_s": self_time["solver.solve_U"],
        "solver.nonlinear_iterations": counts["solver.nonlinear_iterations"],
    })
    for k in range(STAGES):
        out[f"solver.nonlinear_iterations.stage{k}"] = counts[f"solver.nonlinear_iterations.stage{k}"]
    out.update({
        "solver.newton_linear_s": total["solver.newton_linear"],
        "solver.newton_linear_calls": calls["solver.newton_linear"],
        "solver.check_comparison_s": total["solver.check_comparison"],
        "exhaustion.run_self_s": self_time["exhaustion.run"],
        "exhaustion.stages": counts["exhaustion.stages"],
        "thinness.criterion_s": total["thinness.criterion"],
        "thinness.certificate_s": total["thinness.certificate"],
        "verification.run_suites_self_s": self_time["verification.run_suites"],
        "cli.self_s": self_time["cli.main"],
        "trace.spans": len(spans),
    })
    return out


def unit(name: str) -> str:
    if name.startswith("potential.solve_bytes_computed"):
        return "B"
    return "s" if name.endswith("_s") or "_s." in name else "count"


def exact_counts(metrics: dict) -> dict:
    """The metrics that must repeat exactly for one seed: EXACT_COUNTS and
    their per-size and per-stage variants."""
    return {k: v for k, v in metrics.items()
            if any(k == c or k.startswith(c + ".") for c in EXACT_COUNTS)}
