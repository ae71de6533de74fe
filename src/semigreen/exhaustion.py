"""Exhaustion-limit constructions on increasing domain families.

Solves the absorption problem stage by stage with the same supersolution
data, enforces the monotone-decrease law between consecutive stages, and
classifies the anchor trace as nontrivial / trivial_trend / undecided.
harmonic_majorant builds the harmonic-majorant family of a field on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Exhaustion, Grid, restrict
from .operator import EllipticCoefficients, apply, assemble, check_superharmonic, rounding_tol
from .potential import condition_factor, factorize, harmonic_extension
from .solver import Nonlinearity, solve_U

__all__ = [
    "ExhaustionRun",
    "run_exhaustion",
    "harmonic_majorant",
    "correspondence_roundtrip",
    "RoundtripReport",
]

# verdict thresholds: fractions of the initial anchor value / sup s,
# applied over the last WINDOW stages
DECAY_FRACTION = 1e-3
NONTRIVIAL_FRACTION = 0.05
STALL_FRACTION = 0.1
WINDOW = 3
# check tolerance of the superharmonicity of s
SUPERHARMONIC_TOL = 1e-9
# check tolerance of the harmonicity of correspondence_roundtrip's h; rounding_tol widens it
HARMONICITY_TOL = 1e-8


@dataclass
class ExhaustionRun:
    stages: tuple  # (grid, u_n) per stage
    anchor: tuple
    sup_s: float
    coeffs: EllipticCoefficients
    phi: Nonlinearity
    reports: tuple = ()  # SolveReport per stage
    monotone_slack: float = 0.0  # worst observed u_{n+1} - u_n on shared nodes

    @property
    def anchor_values(self) -> np.ndarray:
        return np.array([u[grid.index_of(self.anchor)] for grid, u in self.stages])

    @property
    def limit_estimate(self) -> np.ndarray:
        """u_N on the final stage."""
        return self.stages[-1][1]

    @property
    def triviality_verdict(self) -> str:
        """nontrivial | trivial_trend | undecided"""
        return _classify(self.anchor_values, self.sup_s)


def _classify(anchor_values: np.ndarray, sup_s: float) -> str:
    if len(anchor_values) < WINDOW:
        return "undecided"
    tail = anchor_values[-WINDOW:]
    if np.all(tail < DECAY_FRACTION * anchor_values[0]):
        return "trivial_trend"
    stalled = tail[0] - tail[-1] <= STALL_FRACTION * max(tail[0], 0.0)
    if np.all(tail >= NONTRIVIAL_FRACTION * sup_s) and stalled:
        return "nontrivial"
    return "undecided"


def run_exhaustion(
    exh: Exhaustion,
    coeffs: EllipticCoefficients,
    phi: Nonlinearity,
    s,
    tol: float = 1e-10,
    max_iter: int = 200,
    scheme: str = "sandwich",
) -> ExhaustionRun:
    """Solve the absorption problem on every stage with data s|boundary.

    s is a scalar or a callable on points (any form Grid.field accepts on
    every stage) and must be discretely superharmonic on each stage, up to
    check_superharmonic's rounding allowance; constants are checked too. The
    decrease u_{n+1} <= u_n + kappa*tol on shared nodes is enforced, kappa
    the previous stage's condition_factor; a violation means the
    discretization, not the math, is wrong. Only that kappa, kept as a
    number, outlives a stage: its operator is dropped before the next one
    is assembled.
    Each stage after the first is warm-started (solve_U's start) from s with
    the previous stage's solution written onto the shared nodes: by that
    decrease it lies above the new solution, and on the new nodes H f <= s
    leaves the start at H f.
    s's node field is made once per stage, for the superharmonic check and
    the start; while solve_U runs, the stage holds s on the boundary and no
    node field, and solve_U drops the start, handed on in the call, once
    its first iterate exists.
    """
    fields, reports = [], []
    slack = sup_s = -np.inf
    prev_grid = gop = None
    for n, grid in enumerate(exh.stages):
        if gop is not None:
            # the finished stage's kappa, read before its operator is dropped
            prev_kappa = condition_factor(gop)
            gop = None
        gop = factorize(assemble(grid, coeffs))
        shared = None if prev_grid is None else grid.index_of(prev_grid.nodes)
        sup, fb, start = _stage_data(n, gop.op, s, shared, fields[-1] if fields else None)
        sup_s = max(sup_s, sup)
        # start is a one-item list emptied in the call, so the loop keeps no reference to it
        u, srep = solve_U(gop, fb, phi, tol=tol, max_iter=max_iter, scheme=scheme,
                          start=start.pop())
        srep.require_converged(f"stage {n}: solve")
        if prev_grid is not None:
            defect = float(np.max(u[shared] - fields[-1]))
            slack = max(slack, defect)
            bound = prev_kappa * tol
            if defect > bound:
                raise RuntimeError(
                    f"stage {n}: monotone decrease violated by {defect:.3e} "
                    f"(allowed {bound:.3e}); discretization problem")
        fields.append(u)
        reports.append(srep)
        prev_grid = grid

    return ExhaustionRun(
        stages=tuple(zip(exh.stages, fields)),
        anchor=exh.anchor,
        sup_s=sup_s,
        coeffs=coeffs,
        phi=phi,
        reports=tuple(reports),
        monotone_slack=float(slack) if np.isfinite(slack) else 0.0,
    )


def _stage_data(n: int, op, s, shared, prev_u) -> tuple:
    """(max s, s on the boundary nodes, [start]) on stage n's grid, once s
    is found superharmonic there. The start is None on the first stage
    (shared None), else s with the previous stage's solution prev_u written
    onto the shared nodes (the grid's indices of the previous grid's nodes)."""
    grid = op.grid
    sf = grid.field(s, name="supersolution s")
    rep = check_superharmonic(op, sf, tol=SUPERHARMONIC_TOL)
    if not rep.passed:
        raise ValueError(
            f"stage {n}: supersolution data fails the superharmonic check "
            f"(residual {rep.max_residual:.3e} at node {rep.worst_node})"
        )
    sup, fb = float(np.max(sf)), sf[grid.boundary_nodes]
    if shared is None:
        return sup, fb, [None]
    start = sf.copy()  # sf may be a view on grid.nodes, as for s = lambda p: p[:, 1]
    start[shared] = prev_u
    return sup, fb, [start]


def harmonic_majorant(exh: Exhaustion, coeffs: EllipticCoefficients, w, tol: float = 1e-9):
    """Least-harmonic-majorant family of a solution field: the harmonic
    extension h_n of w on every stage n.

    w takes any form Grid.field accepts on the final stage, and is
    restricted from there to each stage. Returns the family [h_0, ..., h_N],
    checked to be increasing in n on shared nodes.
    """
    final = exh.stages[-1]
    w = final.field(w, name="w")
    family = []
    for n, grid in enumerate(exh.stages):
        h = harmonic_extension(factorize(assemble(grid, coeffs)), restrict(w, final, grid))
        if family:
            shared = grid.index_of(exh.stages[n - 1].nodes)
            defect = float(np.min(h[shared] - family[-1]))
            if defect < -tol:
                raise RuntimeError(
                    f"stage {n}: majorant family not increasing "
                    f"(drop {defect:.3e} beyond {tol:.1e})")
        family.append(h)
    return family


@dataclass(frozen=True)
class RoundtripReport:
    passed: bool
    harmonicity_residual: float
    reconstruction_residual: float
    kappa: float
    monotone_ok: bool
    injective_gap: float


def correspondence_roundtrip(
    grid: Grid,
    coeffs: EllipticCoefficients,
    phi: Nonlinearity,
    h,
    tol: float = 1e-10,
) -> tuple:
    """Check the pairing between a nonnegative harmonic field h and the
    absorption solution with boundary data h.

    Asserts the reconstruction u + G phi(u) == h up to
    kappa*tol + (kappa - 1)*harmonicity_residual, and probes injectivity by
    bumping the data with a positive harmonic field (the extension of
    boundary values 1; a constant when c vanishes). The second term is
    there because the reconstruction is compared with h itself, not with
    the discrete extension H f of its boundary values: the two differ by
    G (L h), at most max(G 1) * max|L h| = (kappa - 1) * harmonicity_residual.

    Returns (u, RoundtripReport).
    """
    op = assemble(grid, coeffs)
    gop = factorize(op)
    h = grid.field(h, name="h")
    if np.min(h) < 0:
        raise ValueError(f"h must be nonnegative; min = {np.min(h):.3e}")
    harm_res = float(np.max(np.abs(apply(op, h))))
    bound = rounding_tol(op, h, HARMONICITY_TOL)
    if harm_res > bound:
        raise ValueError(f"h fails the harmonicity check: residual {harm_res:.3e} > {bound:.1e}")

    kappa = condition_factor(gop)
    u, rep = solve_U(gop, h, phi, tol=tol)
    rep.require_converged("roundtrip solve")
    pts = grid.nodes[grid.interior_nodes]
    gphi = gop.solve(phi(pts, u[grid.interior_nodes]))
    recon = float(np.max(np.abs(u[grid.interior_nodes] + gphi - h[grid.interior_nodes])))

    bump = harmonic_extension(gop, 1.0)
    u2, rep2 = solve_U(gop, h + 1.0, phi, tol=tol)
    rep2.require_converged("roundtrip probe solve")
    monotone_ok = bool(np.min(u2 - u) >= -tol * kappa)
    gap = float(np.max(u2 - u))
    recon_ok = recon <= kappa * tol + (kappa - 1.0) * harm_res
    passed = recon_ok and monotone_ok and gap > 0 and np.min(bump) > 0
    return u, RoundtripReport(passed, harm_res, recon, kappa, monotone_ok, gap)
