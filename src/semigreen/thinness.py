"""Thin-set certificates and the existence-criterion integral.

A certificate exhibits a superharmonic witness s with s >= 1 on a set A
while dipping below 1 somewhere on the grid. The criterion integral
accumulates G(x0, .) * phi(., c0) over the complement of A on nested
truncations and classifies the increments as bounded or diverging; both
directions of the existence dichotomy are exercised through these two
tools.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Grid
from .operator import assemble, check_superharmonic
from .potential import interval_green
from .solver import Nonlinearity

__all__ = [
    "ThinnessCertificate",
    "CertificateVerdict",
    "verify_certificate",
    "mask_predicate",
    "CriterionReport",
    "criterion_integral",
    "necessary_direction_probe",
]

BOUNDED_RATIO = 0.6
DIVERGING_RATIO = 0.9
MIN_TRUNCATIONS = 4


@dataclass
class ThinnessCertificate:
    """A thinness claim: witness_s >= 1 on set_A, min over the grid
    <= 1 - margin, and witness_s superharmonic.

    set_A: node mask or predicate(points); nonzero means in A.
    witness_s: node field or callable(points) -> values.
    Both take any form Grid.field accepts on the nodes.
    """

    set_A: object
    witness_s: object
    margin: float


@dataclass(frozen=True)
class CertificateVerdict:
    min_over_grid: float
    min_on_A: float
    superharmonic_residual: float
    reasons: tuple = ()  # one line per failed inequality

    @property
    def passed(self) -> bool:
        return not self.reasons


def verify_certificate(grid: Grid, coeffs, cert: ThinnessCertificate, tol: float = 1e-9) -> CertificateVerdict:
    """Check the three certificate inequalities discretely. Diagnostic:
    failures are reported in the verdict, never raised."""
    s = grid.field(cert.witness_s, name="witness_s")
    mask = grid.field(cert.set_A, name="set_A") != 0

    reasons = []
    if not (cert.margin > 0):
        reasons.append(f"margin must be positive, got {cert.margin}")
    min_s = float(np.min(s))
    if min_s < -tol:
        reasons.append(f"witness dips negative: min s = {min_s:.3e}")
    min_on_a = float(np.min(s[mask])) if np.any(mask) else float("inf")
    if min_on_a < 1.0 - tol:
        reasons.append(f"witness below 1 on A: min = {min_on_a:.6f}")
    if cert.margin > 0 and min_s > 1.0 - cert.margin:
        reasons.append(
            f"witness never dips below 1 - margin: min {min_s:.6f} > {1.0 - cert.margin:.6f}")
    op = assemble(grid, coeffs)
    rep = check_superharmonic(op, s, tol=tol)
    if not rep.passed:
        reasons.append(
            f"superharmonicity fails: residual {rep.max_residual:.3e} at node {rep.worst_node}")
    return CertificateVerdict(min_s, min_on_a, rep.max_residual, tuple(reasons))


def mask_predicate(grid: Grid, mask):
    """Lift a node mask to a point predicate by nearest-node lookup;
    points more than half a cell outside the grid box are reported as
    not in the set."""
    mask = np.asarray(mask, dtype=bool).reshape(grid.shape)

    def pred(pts):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        k, near = grid._nearest_node(pts)
        # inside the box grown by half a cell: within half a cell of a node
        inside = np.all(np.abs(k - near) <= 0.5, axis=0)
        out = np.zeros(pts.shape[0], dtype=bool)
        out[inside] = mask[tuple(near[:, inside].astype(np.intp))]
        return out

    return pred


# --- criterion integral -------------------------------------------------

def _halfplane_kernel(x0, cx, cy):
    dx2 = (cx - x0[0]) ** 2
    return 0.25 / np.pi * np.log((dx2 + (cy + x0[1]) ** 2) / (dx2 + (cy - x0[1]) ** 2))


def _log_box_quadrant(p, s):
    # int_[0,P]x[0,S] ln(x^2+y^2) dx dy, continuous extension at P=0 or S=0
    if p == 0.0 or s == 0.0:
        return 0.0
    return (p * s * np.log(p * p + s * s) - 3.0 * p * s
            + p * p * np.arctan(s / p) + s * s * np.arctan(p / s))


def _log_cell_integral(z, rect):
    """Exact int over rect of ln|w - z| dw (z may lie inside or on rect)."""
    (a, b), (c, d) = rect
    u = (a - z[0], b - z[0])
    v = (c - z[1], d - z[1])

    def corner(uu, vv):
        # half: quadrant formula integrates ln(x^2+y^2) = 2 ln|w|
        return 0.5 * np.sign(uu) * np.sign(vv) * _log_box_quadrant(abs(uu), abs(vv))

    return (corner(u[1], v[1]) - corner(u[0], v[1])
            - corner(u[1], v[0]) + corner(u[0], v[0]))


@dataclass(frozen=True)
class CriterionReport:
    radii: tuple
    values: tuple  # cumulative I_R, nondecreasing
    increments: tuple
    ratios: tuple
    verdict: str  # bounded_trend | diverging_trend | undecided


def _trend(values) -> tuple:
    increments = np.diff(np.asarray(values))
    ratios = []
    for k in range(1, len(increments)):
        prev, cur = increments[k - 1], increments[k]
        if prev <= 0:
            ratios.append(0.0 if cur <= 0 else float("inf"))
        else:
            ratios.append(float(cur / prev))
    verdict = "undecided"
    if len(values) >= MIN_TRUNCATIONS:  # so at least two ratios
        if ratios[-1] <= BOUNDED_RATIO:
            verdict = "bounded_trend"
        elif ratios[-1] >= DIVERGING_RATIO:
            verdict = "diverging_trend"
    return tuple(increments), tuple(ratios), verdict


def _weight(phi, pts, c0, pred):
    w = phi(pts, c0)
    return w if pred is None else np.where(pred(pts), 0.0, w)


def _cell_count(radius, h, what):
    n = radius / h
    if not np.isfinite(n):
        raise ValueError(f"{what} {radius} over the cell size {h} is a non-finite number of cells")
    if abs(n - round(n)) > 1e-9 or round(n) < 1:
        raise ValueError(f"{what} {radius} must be a positive multiple of the cell size {h}")
    return int(round(n))


def criterion_integral(
    kernel,
    phi,
    c0: float,
    set_A,
    truncations,
    x0=None,
    cell: float = 0.125,
) -> CriterionReport:
    """Accumulate the kernel-weighted absorption mass outside A.

    kernel: "halfplane" or ("interval", (a, b)).
    phi: Nonlinearity or callable(points, t); a callable is wrapped in a
    Nonlinearity, so a non-finite or negative weight raises. set_A:
    predicate on points (nonzero means in A), or None for the empty set.
    truncations: increasing radii; each shell is a difference of
    cell-aligned regions, so values are nondecreasing by construction.
    x0: the anchor; None means the interval's midpoint, or (0, 2) on the half-plane.

    The half-plane kernel's log singularity at x0 is handled by replacing
    the midpoint rule on cells touching x0 with the closed-form integral
    of the log term.
    """
    radii = [float(r) for r in truncations]
    if sorted(radii) != radii or len(set(radii)) != len(radii):
        raise ValueError("truncation radii must be strictly increasing")
    if not radii:
        raise ValueError("need at least one truncation radius")
    if not cell > 0:
        raise ValueError(f"cell must be positive, got {cell}")
    if set_A is not None and not callable(set_A):
        raise ValueError("set_A must be a predicate callable or None")
    if not isinstance(phi, Nonlinearity):
        phi = Nonlinearity(phi)
    if isinstance(kernel, tuple) and kernel and kernel[0] == "interval":
        return _criterion_interval(kernel[1], phi, c0, set_A, radii, x0, cell)
    if kernel != "halfplane":
        raise ValueError(f"unknown kernel {kernel!r}")
    x0 = (0.0, 2.0) if x0 is None else (float(x0[0]), float(x0[1]))
    if x0[1] <= 0:
        raise ValueError(f"anchor must lie in the open half-plane, got y = {x0[1]}")

    values = []
    total = 0.0
    prev = 0.0
    for r in radii:
        _cell_count(r, cell, "truncation radius")
        for (xa, xb), (ya, yb) in _halfplane_shell_blocks(prev, r):
            total += _block_sum(phi, c0, set_A, x0, cell, xa, xb, ya, yb)
        prev = r
        values.append(total)
    increments, ratios, verdict = _trend(values)
    return CriterionReport(tuple(radii), tuple(values), increments, ratios, verdict)


def _halfplane_shell_blocks(r_in, r_out):
    # region(R) = [-R, R] x (0, 2R]; shell = region(r_out) \ region(r_in)
    if r_in == 0.0:
        return [((-r_out, r_out), (0.0, 2.0 * r_out))]
    return [
        ((-r_out, -r_in), (0.0, 2.0 * r_out)),
        ((r_in, r_out), (0.0, 2.0 * r_out)),
        ((-r_in, r_in), (2.0 * r_in, 2.0 * r_out)),
    ]


def _block_sum(phi, c0, pred, x0, h, xa, xb, ya, yb):
    nx = int(round((xb - xa) / h))
    ny = int(round((yb - ya) / h))
    cx = xa + (np.arange(nx) + 0.5) * h
    cy = ya + (np.arange(ny) + 0.5) * h
    gx, gy = np.meshgrid(cx, cy, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    w = _weight(phi, pts, c0, pred)
    # cells whose closed square contains x0 need the exact log integral
    sing = ((np.abs(pts[:, 0] - x0[0]) <= h / 2 + 1e-12)
            & (np.abs(pts[:, 1] - x0[1]) <= h / 2 + 1e-12))
    g = np.zeros(pts.shape[0])
    reg = ~sing
    g[reg] = _halfplane_kernel(x0, pts[reg, 0], pts[reg, 1])
    total = float(np.sum(w * g) * h * h)
    for k in np.flatnonzero(sing):
        if w[k] == 0.0:
            continue
        px, py = pts[k]
        rect = ((px - h / 2, px + h / 2), (py - h / 2, py + h / 2))
        mirror = 0.5 / np.pi * np.log(np.hypot(px - x0[0], py + x0[1])) * h * h
        total += float(w[k]) * (mirror - _log_cell_integral(x0, rect) / (2.0 * np.pi))
    return total


def _criterion_interval(endpoints, phi, c0, pred, radii, x0, cell):
    a, b = float(endpoints[0]), float(endpoints[1])
    if not (a < b):
        raise ValueError(f"bad interval endpoints ({a}, {b})")
    x0s = (a + b) / 2.0 if x0 is None else float(np.atleast_1d(np.asarray(x0, dtype=float))[0])
    n = _cell_count(b - a, cell, "interval length")
    centers = a + (np.arange(n) + 0.5) * cell
    pts = centers[:, None]
    w = _weight(phi, pts, c0, pred)
    g = interval_green(x0s, centers, endpoints=(a, b))
    lo_edges = centers - cell / 2
    hi_edges = centers + cell / 2
    values = []
    for r in radii:
        covered = (lo_edges >= x0s - r) & (hi_edges <= x0s + r)
        values.append(float(np.sum(w[covered] * g[covered]) * cell))
    increments, ratios, verdict = _trend(values)
    return CriterionReport(tuple(radii), tuple(values), increments, ratios, verdict)


def necessary_direction_probe(run, c0: float = None) -> tuple:
    """Build the certificate A = {v <= c0}, s = (c - v)/(c - c0) from a
    nontrivial bounded exhaustion run and re-verify it.

    Returns (certificate, verdict). The anchor trace must witness an
    actual split 0 < v(x0) <= c0 < v(x1) <= c; flat solutions raise."""
    if run.triviality_verdict != "nontrivial":
        raise ValueError(
            f"probe requires a nontrivial run, got {run.triviality_verdict!r}")
    grid = run.stages[-1][0]
    v = run.limit_estimate
    c = float(run.sup_s)
    if c0 is None:
        c0 = 0.5 * (float(np.min(v)) + float(np.max(v)))
    c0 = float(c0)
    span = float(np.max(v) - np.min(v))
    has_low = bool(np.any((v > 0) & (v <= c0)))
    has_high = bool(np.any(v > c0))
    # a split on rounding noise would divide by c - c0 ~ 0 below
    if span <= 1e-9 * max(1.0, abs(c)) or not (has_low and has_high and c0 < c):
        raise ValueError(
            "no valid (c0, x0, x1) split found: solution too flat "
            f"(range [{np.min(v):.3e}, {np.max(v):.3e}], c0={c0:.3e}, c={c:.3e})")
    s = (c - v) / (c - c0)
    margin = 1.0 - float(np.min(s))
    cert = ThinnessCertificate(set_A=(v <= c0), witness_s=s, margin=margin)
    verdict = verify_certificate(grid, run.coeffs, cert)
    return cert, verdict
