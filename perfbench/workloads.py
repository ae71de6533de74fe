"""The two benchmark workloads: seeded inputs, invocations and output checks.

A workload is a list of invocations. Each invocation runs once per pass in
the measuring process and is checked right after it runs; an invocation
fails when it exits nonzero, raises, or any of its checks fails.

Checks compare against the program's own contract (exit codes, identity
residuals at the config's tol, verdicts the configs document) and against
reference values recorded at the commit that introduced the benchmark
(`reference.json`, written by `make_reference.py`). Reference values are
compared within a bound derived from tol, never byte for byte, so a change
of solver may move the last digits. The values and the verdict of
`sqrt_decay` are not pinned.

This module imports semigreen only inside invocation calls, so the
benchmark's parent process never loads the program.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("deadcore_exhaust", "green_shipped_verify")

# the green_large solve draws its nonlinearity slope and boundary tilt from these
# grids, so that every seed has a reference solution in reference.json
GREEN_LAMBDAS = (1.0, 1.5, 2.0, 2.5, 3.0)
GREEN_SLOPES = (0.0, 0.25, 0.5, 0.75, 1.0)
GREEN_SPACING = 1.0 / 512
SAMPLE_STEP = 1.0 / 8  # reference samples of the 513^2 solve field
ORACLE_SAMPLE_STEP = 1.0  # reference samples of the half-plane Green columns
# a direct solve reproduces a Green column to rounding; 1e-9 leaves room for
# another exact solver (ROADMAP item 3) while catching a wrong one
ORACLE_TOL = 1e-9
VERIFY_TRIALS = 200  # the acceptance gate's trial count
EXHAUST_VERDICTS = ("nontrivial", "trivial_trend", "undecided")


@dataclass
class Invocation:
    label: str
    config: str | None  # INI loaded during set-up; None for library calls
    call: Callable  # call(out_dir) -> (exit code, output)
    check: Callable  # check(code, output, out_dir) -> list of failure messages


def green_large_params(seed: int):
    rng = random.Random(seed)
    return rng.choice(GREEN_LAMBDAS), rng.choice(GREEN_SLOPES)


def green_case_key(lam: float, slope: float) -> str:
    return f"lam={lam:g},a={slope:g}"


def _green_solve_ini(lam: float, slope: float) -> str:
    return f"""\
# generated: 513^2 sandwich solve of u_xx + u_yy = lam max(u, 0)
[domain]
dim = 2
bbox = 0, 1, 0, 1
spacing = {GREEN_SPACING!r}

[operator]
zero_order_mode = c_zero

[nonlinearity]
phi = {lam!r} * max(t, 0)
differentiable = true

[solver]
scheme = sandwich
tol = 1e-10
max_iter = 200

[experiment]
type = solve
boundary_f = 1 + {slope!r} * x * y

[output]
basename = green_large_solve
"""


_GREEN_ORACLE_INI = """\
# generated: half-plane Green column at R = 16, h = 0.125 (257^2 nodes)
[domain]
dim = 2
halfplane = true
radius = 16
spacing = 0.125
delta = 0.125

[operator]
zero_order_mode = c_zero

[nonlinearity]
phi = 0

[experiment]
type = green
oracle = halfplane
source = 0, 1

[output]
basename = green_large_oracle
"""

# load_config rejects a verify config without [domain], although the
# README lists no domain key for verify; the section is written for that
_VERIFY_INI = f"""\
# generated: every invariant suite at the acceptance gate's trial count
[domain]
dim = 1
bbox = 0, 1
spacing = 0.125

[experiment]
type = verify
trials = {VERIFY_TRIALS}

[output]
basename = verify_suites
"""


def write_inputs(workload: str, seed: int, input_dir: str) -> None:
    """Write the generated INI files of a workload into input_dir."""
    os.makedirs(input_dir, exist_ok=True)
    files = {}
    if workload == "green_shipped_verify":
        files["green_large_solve.ini"] = _green_solve_ini(*green_large_params(seed))
        files["green_large_oracle.ini"] = _GREEN_ORACLE_INI
        files["verify_suites.ini"] = _VERIFY_INI
    for name, text in files.items():
        with open(os.path.join(input_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# --- running ------------------------------------------------------------

def cli_call(argv):
    def call(out_dir):
        from semigreen.cli import main

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv) + ["--out-dir", out_dir])
        return code, buf.getvalue()

    return call


def _poisson_unit(out_dir):
    from semigreen.potential import poisson_extension

    pts = [(0.0, 1.0), (2.0, 0.5), (-3.0, 2.0)]
    return 0, poisson_extension(lambda s: np.ones_like(s), pts, radius=100.0)


def _poisson_indicator(out_dir):
    from semigreen.potential import poisson_extension

    return 0, poisson_extension(lambda s: (s > 0).astype(float), [(0.0, 1.0)],
                                radius=100.0, breakpoints=(0.0,))


# --- reading outputs ----------------------------------------------------

def _tol(config: str) -> float:
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(config, encoding="utf-8")
    return cp.getfloat("solver", "tol", fallback=1e-10)


def read_table(out_dir: str, name: str) -> dict:
    """Numeric CSV output as {column: array}; empty cells read as NaN."""
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) if v else math.nan for v in line.rstrip("\n").split(",")]
                for line in fh]
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {col: data[:, k] for k, col in enumerate(header)}


def output_field(text: str, key: str) -> str:
    for tok in text.split():
        if tok.startswith(key + "="):
            return tok[len(key) + 1:]
    raise ValueError(f"no {key}= in output {text.strip()!r}")


def _within(values, ref, bound, what):
    values = np.asarray(values, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if values.shape != ref.shape:
        return [f"{what}: shape {values.shape}, reference {ref.shape}"]
    err = float(np.max(np.abs(values - ref))) if ref.size else 0.0
    return [] if err <= bound else [f"{what}: off reference by {err:.3e} > {bound:.3e}"]


# --- checks ---------------------------------------------------------------

def _exhaust_checks(out_dir, basename, tol, kappas):
    t = read_table(out_dir, f"{basename}.csv")
    msgs = []
    res = t["identity_residual"]
    if not np.all(res <= tol):
        msgs.append(f"identity_residual {np.max(res):.3e} > tol {tol:g}")
    a = t["anchor_value"]
    # the program enforces u_{n+1} <= u_n + kappa*tol on shared nodes
    rise = a[1:] - a[:-1] - np.asarray(kappas[:len(a) - 1]) * tol
    if np.any(rise > 0):
        msgs.append(f"anchor rises between stages: {a.tolist()}")
    return msgs, a


def check_sqrt_decay(ref, config):
    tol = _tol(config)

    def check(code, out, out_dir):
        msgs, _ = _exhaust_checks(out_dir, "sqrt_decay", tol, ref["halfplane_stage_kappa"])
        if output_field(out, "verdict") not in EXHAUST_VERDICTS:
            msgs.append(f"unknown verdict in {out.strip()!r}")
        return msgs

    return check


def check_thin_support(ref, config):
    tol = _tol(config)
    kappas = ref["halfplane_stage_kappa"]

    def check(code, out, out_dir):
        msgs, anchors = _exhaust_checks(out_dir, "thin_support", tol, kappas)
        with open(os.path.join(out_dir, "thin_support_verdict.txt"), encoding="utf-8") as fh:
            verdict = fh.read().strip()
        if verdict != "verdict=nontrivial" or output_field(out, "verdict") != "nontrivial":
            msgs.append(f"thin_support verdict {verdict!r}, expected nontrivial")
        bound = 2.0 * max(kappas) * tol + 1e-15
        return msgs + _within(anchors, ref["thin_support_anchors"], bound, "thin_support anchors")

    return check


def _solve_checks(code, out, out_dir, basename, tol):
    msgs = []
    if output_field(out, "status") != "converged":
        msgs.append(f"solve status: {out.strip()!r}")
    log = read_table(out_dir, f"{basename}_log.csv")
    final = float(log["identity_residual"][-1])
    if not final <= tol or not float(output_field(out, "identity_residual")) <= tol:
        msgs.append(f"final identity_residual {final:.3e} > tol {tol:g}")
    return msgs


def check_cosh(ref, config):
    tol = _tol(config)

    def check(code, out, out_dir):
        msgs = _solve_checks(code, out, out_dir, "cosh_benchmark", tol)
        u = read_table(out_dir, "cosh_benchmark.csv")["u"]
        bound = 2.0 * ref["cosh_benchmark_kappa"] * tol + 1e-15
        return msgs + _within(u, ref["cosh_benchmark_u"], bound, "cosh_benchmark field")

    return check


def node_array(x, y, values, step):
    """Values on the lattice of spacing step over the unit square, as a 2D
    array indexed [ix, iy]; NaN where the output has no node."""
    ix = np.rint(x / step).astype(int)
    iy = np.rint(y / step).astype(int)
    n = int(round(1.0 / step)) + 1
    out = np.full((n, n), np.nan)
    out[ix, iy] = values
    return out


def lattice_samples(x, y, values, step, y0=0.0):
    """Values at the nodes where x and y - y0 are multiples of step, ordered
    by x, then y."""
    def on(v):
        return np.abs(v / step - np.rint(v / step)) < 1e-9

    keep = on(x) & on(y - y0)
    order = np.lexsort((y[keep], x[keep]))
    return values[keep][order]


def check_green_solve(ref, config, lam, slope):
    tol = _tol(config)
    h = GREEN_SPACING
    case = ref["green_large_solve"][green_case_key(lam, slope)]

    def check(code, out, out_dir):
        msgs = _solve_checks(code, out, out_dir, "green_large_solve", tol)
        t = read_table(out_dir, "green_large_solve.csv")
        x, y, u = t["x"], t["y"], t["u"]
        grid = node_array(x, y, u, h)
        if np.isnan(grid).any():
            return msgs + ["solve field does not cover the 513^2 lattice"]
        boundary = np.ones_like(grid, dtype=bool)
        boundary[1:-1, 1:-1] = False
        xs = np.arange(grid.shape[0]) * h
        f = 1.0 + slope * np.outer(xs, xs)
        msgs += _within(grid[boundary], f[boundary], 1e-14, "boundary data")
        # discrete equation: |K r| <= ||K||_inf * tol for identity residual r
        lap = (grid[2:, 1:-1] + grid[:-2, 1:-1] + grid[1:-1, 2:] + grid[1:-1, :-2]
               - 4.0 * grid[1:-1, 1:-1]) / h**2
        eq = float(np.max(np.abs(lap - lam * np.maximum(grid[1:-1, 1:-1], 0.0))))
        eq_bound = 8.0 / h**2 * (tol + 1e-15 * float(np.max(np.abs(grid))))
        if eq > eq_bound:
            msgs.append(f"discrete equation residual {eq:.3e} > {eq_bound:.3e}")
        samples = lattice_samples(x, y, u, SAMPLE_STEP)
        bound = 2.0 * ref["green_large_solve_kappa"] * tol + 1e-15
        return msgs + _within(samples, case, bound, "513^2 solve samples")

    return check


def check_green_halfplane(ref, basename, delta):
    def check(code, out, out_dir):
        err = float(output_field(out, "max_abs_error"))
        t = read_table(out_dir, f"{basename}.csv")
        msgs = []
        if np.min(t["discrete"]) < 0:
            msgs.append(f"negative discrete Green value {np.min(t['discrete']):.3e}")
        ref_error = ref[f"{basename}_max_abs_error"]
        if not math.isfinite(err) or abs(err - ref_error) > ORACLE_TOL:
            msgs.append(f"max_abs_error {err!r}, reference {ref_error!r}")
        column = lattice_samples(t["x"], t["y"], t["discrete"], ORACLE_SAMPLE_STEP, delta)
        return msgs + _within(column, ref[f"{basename}_samples"], ORACLE_TOL,
                              f"{basename} Green column samples")

    return check


def check_green_interval(code, out, out_dir):
    err = float(output_field(out, "max_abs_error"))
    col = float(np.max(read_table(out_dir, "green_interval.csv")["abs_error"]))
    return [] if max(err, col) <= 1e-12 else [f"interval max_abs_error {err:.3e} > 1e-12"]


def check_witness(code, out, out_dir):
    with open(os.path.join(out_dir, "sqrt_witness.csv"), encoding="utf-8") as fh:
        rows = dict(line.strip().split(",", 1) for line in fh)
    return [] if rows.get("passed") == "true" else [f"sqrt_witness passed={rows.get('passed')}"]


def check_criterion(basename, expected):
    def check(code, out, out_dir):
        msgs = []
        if output_field(out, "verdict") != expected:
            msgs.append(f"{basename}: {out.strip()!r}, expected {expected}")
        values = read_table(out_dir, f"{basename}.csv")["value"]
        if np.any(np.diff(values) < 0):
            msgs.append(f"{basename}: criterion values decrease")
        return msgs

    return check


def check_verify(code, out, out_dir):
    with open(os.path.join(out_dir, "verify_suites.csv"), encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    msgs = [f"suite {r[0]}: {r[2]} failures" for r in rows if r[2] != "0" or r[3] != "pass"]
    if len(rows) != 7:
        msgs.append(f"expected 7 suites, got {len(rows)}")
    return msgs


def check_poisson_unit(code, vals, out_dir):
    err = float(np.max(np.abs(np.asarray(vals) - 1.0)))
    return [] if err <= 1e-3 else [f"unit-data extension off by {err:.3e} > 1e-3"]


def check_poisson_indicator(code, vals, out_dir):
    err = abs(float(vals[0]) - 0.5)
    return [] if err <= 1e-6 else [f"indicator extension off by {err:.3e} > 1e-6"]


# --- plans ----------------------------------------------------------------

def plan(workload: str, seed: int, root: str, input_dir: str, ref: dict) -> list:
    """The invocations of one pass, in order. Inputs must already exist
    (write_inputs); shipped configs are read from root/configs unchanged."""

    def shipped(name):
        return os.path.join(root, "configs", f"{name}.ini")

    def cli(label, argv, config, check):
        return Invocation(label, config, cli_call(argv), check)

    if workload == "deadcore_exhaust":
        cfg = shipped("sqrt_decay")
        return [cli("exhaust sqrt_decay", ["exhaust", "--config", cfg], cfg,
                    check_sqrt_decay(ref, cfg))]
    if workload == "green_shipped_verify":
        lam, slope = green_large_params(seed)
        solve = os.path.join(input_dir, "green_large_solve.ini")
        oracle = os.path.join(input_dir, "green_large_oracle.ini")
        verify = os.path.join(input_dir, "verify_suites.ini")
        c = {n: shipped(n) for n in ("cosh_benchmark", "green_interval", "green_halfplane",
                                      "sqrt_witness", "strip_criterion", "full_criterion",
                                      "thin_support")}
        return [
            cli(f"solve green_large ({green_case_key(lam, slope)})",
                ["solve", "--config", solve], solve,
                check_green_solve(ref, solve, lam, slope)),
            cli("green green_large_oracle", ["green", "--config", oracle, "--compare"], oracle,
                check_green_halfplane(ref, "green_large_oracle", 0.125)),
            cli("solve cosh_benchmark", ["solve", "--config", c["cosh_benchmark"]],
                c["cosh_benchmark"], check_cosh(ref, c["cosh_benchmark"])),
            cli("green green_interval", ["green", "--config", c["green_interval"], "--compare"],
                c["green_interval"], check_green_interval),
            cli("green green_halfplane", ["green", "--config", c["green_halfplane"], "--compare"],
                c["green_halfplane"],
                check_green_halfplane(ref, "green_halfplane", 0.125)),
            cli("thin-check sqrt_witness", ["thin-check", "--config", c["sqrt_witness"]],
                c["sqrt_witness"], check_witness),
            cli("criterion strip_criterion", ["criterion", "--config", c["strip_criterion"]],
                c["strip_criterion"], check_criterion("strip_criterion", "bounded_trend")),
            cli("criterion full_criterion", ["criterion", "--config", c["full_criterion"]],
                c["full_criterion"], check_criterion("full_criterion", "diverging_trend")),
            cli("exhaust thin_support", ["exhaust", "--config", c["thin_support"]],
                c["thin_support"], check_thin_support(ref, c["thin_support"])),
            Invocation("poisson_extension unit data", None, _poisson_unit, check_poisson_unit),
            Invocation("poisson_extension indicator", None, _poisson_indicator,
                       check_poisson_indicator),
            cli("verify", ["verify", "--config", verify, "--seed", str(seed)], verify,
                check_verify),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
