"""Named randomized invariant suites.

Each suite checks one structural guarantee: positivity of the Green
solves, the comparison check on ordered solutions, monotonicity in
boundary data, sandwich envelope interleaving, the fixed-point identity on
benchmark configs, criterion-integral monotonicity, and the phi = 0
exhaustion. A suite is its check, a function that runs one trial and
returns its failure message ("" when the trial passes); SUITES says how a
suite's trials are produced, and run_suites seeds, runs and counts them.
The CLI `verify` subcommand runs them all; the acceptance gate reruns four
of them at 200 trials.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .exhaustion import harmonic_majorant, run_exhaustion
from .geometry import build_box_grid, build_exhaustion
from .operator import EllipticCoefficients, assemble
from .potential import factorize, green_potential, harmonic_extension
from .solver import Nonlinearity, apply_T, check_comparison, check_monotone_in_data, solve_U
from .thinness import criterion_integral

__all__ = ["SuiteResult", "SUITES", "run_suites"]

TOL = 1e-9


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    failures: int
    detail: str = ""  # the failure message of the last failed trial

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _random_grid(rng):
    if rng.random() < 0.5:
        lo = rng.uniform(-1.0, 1.0)
        n = int(rng.integers(8, 25))
        return build_box_grid((lo, lo + n * 0.0625), 0.0625)
    nx = int(rng.integers(4, 11))
    ny = int(rng.integers(4, 11))
    return build_box_grid(((0.0, nx * 0.125), (0.0, ny * 0.125)), 0.125)


def _random_coeffs(rng):
    # a12 = 0 keeps the M-matrix certificate, which these suites rely on
    return EllipticCoefficients(
        a11=float(rng.uniform(0.5, 2.0)),
        a22=float(rng.uniform(0.5, 2.0)),
        b1=float(rng.uniform(-1.5, 1.5)),
        b2=float(rng.uniform(-1.5, 1.5)),
        c=float(-rng.uniform(0.0, 1.0)),
    )


def _random_phi(rng):
    lam = float(rng.uniform(0.2, 2.0))
    alpha = float(rng.choice([1.0, 1.5, 2.0]))
    return Nonlinearity(
        phi=lambda p, t, lam=lam, alpha=alpha: lam * np.maximum(t, 0.0) ** alpha,
        differentiable=True,
    )


def _random_boundary(rng, grid):
    base = float(rng.uniform(0.2, 1.5))
    slope = float(rng.uniform(-0.5, 0.5))
    pts = grid.nodes[grid.boundary_nodes]
    lo = grid.bbox[0][0]
    return np.maximum(base + slope * (pts[:, 0] - lo), 0.0)


def _green_positivity(rng) -> str:
    grid = _random_grid(rng)
    gop = factorize(assemble(grid, _random_coeffs(rng)))
    psi = rng.uniform(0.0, 1.0, grid.n_interior)
    g = green_potential(gop, psi)
    h = harmonic_extension(gop, _random_boundary(rng, grid))
    if np.min(g) < -TOL or np.min(h) < -TOL:
        return f"min Gpsi={np.min(g):.2e}, min Hf={np.min(h):.2e}"
    return ""


def _solve_pair(rng):
    """(gop, phi, f, bump): one random problem and a positive data shift."""
    grid = _random_grid(rng)
    gop = factorize(assemble(grid, _random_coeffs(rng)))
    phi = _random_phi(rng)
    f = _random_boundary(rng, grid)
    return gop, phi, f, float(rng.uniform(0.1, 1.0))


def _comparison(rng) -> str:
    gop, phi, f, bump = _solve_pair(rng)
    # random draws include steep phi on wide boxes where the
    # alternating scheme stalls; the tangent scheme is exact here
    u1, r1 = solve_U(gop, f, phi, tol=1e-12, max_iter=500, scheme="newton")
    u2, r2 = solve_U(gop, f + bump, phi, tol=1e-12, max_iter=500, scheme="newton")
    if r1.status != "converged" or r2.status != "converged":
        return f"non-converged trial ({r1.status}, {r2.status})"
    return check_comparison(gop, u2, u1, phi, tol=TOL).reason


def _monotone_data(rng) -> str:
    gop, phi, f, bump = _solve_pair(rng)
    v = check_monotone_in_data(gop, f, f + bump, phi, tol=TOL, max_iter=500, scheme="newton")
    return "" if v.passed else f"violation {v.margin:.2e} at node {v.worst_node}"


def _sandwich_interleaving(rng) -> str:
    gop, phi, f, _ = _solve_pair(rng)  # the bump is drawn and unused
    it = [harmonic_extension(gop, f)]
    for _ in range(7):  # eight iterates: H f and seven applications of T
        it.append(apply_T(gop, f, it[-1], phi))
    even = it[0::2]
    odd = it[1::2]
    ok = all(np.max(b - a) <= TOL for a, b in zip(even, even[1:]))
    ok &= all(np.max(a - b) <= TOL for a, b in zip(odd, odd[1:]))
    hi = np.min(np.stack(even), axis=0)
    lo = np.max(np.stack(odd), axis=0)
    ok &= bool(np.max(lo - hi) <= TOL)
    return "" if ok else "envelope ordering violated"


def _benchmark_configs():
    lap1 = EllipticCoefficients(zero_order_mode="c_zero")
    drift = EllipticCoefficients(b1=1.0, c=-0.5)
    quad = EllipticCoefficients(a11=2.0, a22=0.5, zero_order_mode="c_zero")
    linphi = Nonlinearity(phi=lambda p, t: np.maximum(t, 0.0), differentiable=True)
    sqphi = Nonlinearity(phi=lambda p, t: np.maximum(t, 0.0) ** 2, differentiable=True)
    g1 = build_box_grid((0.0, 1.0), 1 / 64)
    g2 = build_box_grid(((0.0, 1.0), (0.0, 1.0)), 1 / 16)
    return [
        ("1d-linear", g1, lap1, linphi, 1.0),
        ("1d-drift", g1, drift, linphi, 2.0),
        ("1d-square", g1, lap1, sqphi, 1.5),
        ("2d-linear", g2, quad, linphi, 1.0),
        ("2d-square", g2, lap1, sqphi, 1.0),
    ]


def _identity(case) -> str:
    name, grid, coeffs, phi, data = case
    u, rep = solve_U(factorize(assemble(grid, coeffs)), data, phi, tol=1e-12, max_iter=500)
    if rep.status != "converged" or rep.final_identity_residual > 1e-10:
        return f"{name}: {rep.status}, residual {rep.final_identity_residual:.2e}"
    return ""


def _criterion_monotone(rng) -> str:
    c0 = float(rng.uniform(0.5, 2.0))
    y_cut = float(rng.uniform(0.5, 2.0))
    strip = lambda p, t: (p[:, 1] < y_cut) * 1.0
    rep = criterion_integral("halfplane", strip, c0, None, [2, 4, 8, 16],
                             x0=(0.0, 0.5), cell=0.25)
    diffs = np.diff(np.asarray(rep.values))
    return f"decreasing increment {diffs.min():.2e}" if np.any(diffs < -1e-15) else ""


def _exhaustion_nesting():
    """One trial per stage of a single phi = 0 run: the stage solution and
    the harmonic majorant both reproduce the data 1."""
    exh = build_exhaustion(2.0, 3, spacing=0.25, halfplane=True, delta=0.25)
    coeffs = EllipticCoefficients(zero_order_mode="c_zero")
    phi0 = Nonlinearity(phi=lambda p, t: np.zeros(p.shape[0]), differentiable=True)
    run = run_exhaustion(exh, coeffs, phi0, 1.0, tol=1e-11)
    family = harmonic_majorant(exh, coeffs, run.limit_estimate)
    for (_, u), h in zip(run.stages, family):
        bad = np.max(np.abs(u - 1.0)) > TOL or np.max(np.abs(h - 1.0)) > TOL
        yield "phi=0 run must reproduce the harmonic data" if bad else ""


def _repeat(check, rng, n):
    return (check(rng) for _ in range(n))


# name -> (rng, trials) -> the failure messages of the suite's trials, run lazily in order
SUITES = {
    "green_positivity": lambda rng, n: _repeat(_green_positivity, rng, n),
    "comparison": lambda rng, n: _repeat(_comparison, rng, n),
    "monotone_data": lambda rng, n: _repeat(_monotone_data, rng, n),
    "sandwich_interleaving": lambda rng, n: _repeat(_sandwich_interleaving, rng, n),
    "identity": lambda rng, n: map(_identity, _benchmark_configs()),  # five fixed cases
    "criterion_monotone": lambda rng, n: _repeat(_criterion_monotone, rng, max(1, n // 10)),
    "exhaustion_nesting": lambda rng, n: _exhaustion_nesting(),  # one trial per stage
}


def run_suites(names=None, seed: int = 0, trials: int = 25):
    """Run the named suites (all when names is None), each on its own
    generator seeded from seed and its name; returns a list of SuiteResult
    in the order of names."""
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
        rng = np.random.default_rng(seed + zlib.crc32(name.encode()) % 100003)
        messages = list(SUITES[name](rng, trials))
        failed = [m for m in messages if m]
        results.append(SuiteResult(name, len(messages), len(failed), failed[-1] if failed else ""))
    return results
