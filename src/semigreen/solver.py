"""Nonlinear solution operator: the fixed point u = H_D f - G_D phi(.,u).

Every entry point takes the factorized operator (a GreenOperator); nothing
here factorizes. T u = H_D f - G_D phi(.,u) costs one Green solve. Three
schemes, run by two loops:

* ``damped_picard``: u <- (1-omega) u + omega T u, for nonlinearities
  where the pure alternation cycles. The step gap ||u - T u||_inf is the
  identity residual of u.
* ``sandwich`` (default): damped Picard at omega = 1, i.e. u <- T u
  started from H_D f. T is antitone for monotone phi, so even iterates
  decrease, odd iterates increase, and the two envelopes bracket the fixed
  point; the step gap is then also the envelope gap. Needs only
  monotonicity of phi.
* ``newton``: a free-set (primal-dual active-set) Newton step for
  F(u) = K u + phi(u) - B f = 0 with u >= 0 (the discrete fixed point is
  nonnegative for f >= 0 under (H3)). Each step predicts the dead set
  A = {u <= F(u) / diag(K)}, sends u to 0 on A, and solves
  (K_II + diag(d phi)_I) delta_I = -F_I + K_IA u_A on the free nodes I
  only, so the huge slopes of phi near a dead core never enter a linear
  system and the dead set can move by many grid layers in one step
  (Hintermueller, Ito and Kunisch, SIAM J. Optim. 13(3), 2003). Every
  node whose new value would be <= 0 (all of A, and any free node that
  overshoots) takes THETA times its old value instead: a positive node
  stays positive, so a node predicted dead by mistake can come back. With
  A empty the step is the plain Newton step on the whole system. Offered
  only when the nonlinearity is declared differentiable. The slope is the
  larger of an absolute-step and a relative-step secant; for concave phi
  this is tangent-quality, which keeps the descent monotone even on
  degenerate dead-core problems where an absolute step alone chatters.
  The Jacobian is structurally symmetric, so its sparse LU orders columns
  by minimum degree on A^T + A (ORDERING) rather than COLAMD's A^T A.

Every scheme starts from min(H f, start); a start above the solution, such
as the solution on a smaller domain with the same data, keeps the envelopes
bracketing and lets newton predict the dead set from its first step.
Convergence is declared on the identity residual ||u + G phi(u) - H f||_inf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse.linalg as spla

from .operator import apply as apply_op
from .potential import GreenOperator

__all__ = [
    "Nonlinearity",
    "SolveReport",
    "CheckVerdict",
    "NonConvergence",
    "apply_T",
    "solve_U",
    "check_comparison",
    "check_monotone_in_data",
    "condition_factor",
]

SCHEMES = ("sandwich", "damped_picard", "newton")
MONOTONE_CHECK_SAMPLES = 16  # probe count of Nonlinearity.validate
THETA = 0.03  # newton: a node whose new value would be <= 0 shrinks to THETA * u
ORDERING = "MMD_AT_PLUS_A"  # newton: the Jacobian K + diag(phi') is structurally symmetric


class NonConvergence(RuntimeError):
    """A solve ended without meeting its tolerance; .report has the trace."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class Nonlinearity:
    """Evaluator for phi(x, t).

    phi : callable(points, t) -> values, vectorized over an (n, dim) point
        array with t scalar or length-n; must satisfy phi >= 0, phi
        increasing in t, and phi(x, t) = 0 for t <= 0. Every call checks
        the values are finite and nonnegative; validate probes the rest.
    differentiable : declared smoothness in t; gates the newton scheme.
    """

    phi: Callable
    differentiable: bool = False

    def __call__(self, points: np.ndarray, t) -> np.ndarray:
        """phi(points, t) as one value per point; a scalar result is
        broadcast. Every evaluation is checked: a non-finite or negative
        value raises ValueError."""
        out = np.asarray(self.phi(points, t), dtype=float)
        if out.ndim == 0:
            out = np.full(points.shape[0], float(out))
        lo, hi = out.min(), out.max()
        if not -np.inf < lo <= hi < np.inf:  # a NaN fails every comparison
            raise ValueError("phi must be finite; it returned a non-finite value")
        if lo < 0:
            raise ValueError(f"phi must be nonnegative (H1); it returned {lo:.3e}")
        return out

    def validate(self, points: np.ndarray, t_max: float = 1.0) -> None:
        """Spot-check the vanishing for t <= 0 and the monotonicity in t on
        sampled nodes and a t probe range (each probe call checks the sign)."""
        m = MONOTONE_CHECK_SAMPLES
        idx = np.linspace(0, points.shape[0] - 1, min(m, points.shape[0])).astype(int)
        pts = points[idx]
        probes = np.concatenate([[-1.0, -1e-9, 0.0], np.linspace(1e-9, max(t_max, 1e-9), m)])
        prev = None
        for t in probes:
            vals = self(pts, t)
            if t <= 0 and np.any(vals != 0):
                raise ValueError(f"phi(x, t) must vanish for t <= 0; got {vals.max():.3e} at t={t}")
            if prev is not None and np.any(vals < prev - 1e-12 * max(1.0, float(np.max(prev)))):
                raise ValueError(f"phi must be increasing in t; decrease detected at t={t}")
            prev = vals


@dataclass
class SolveReport:
    iterations: int
    residual_history: list  # identity residual per iterate
    status: str  # converged | max_iter | diverged
    scheme: str = ""
    dead_set_history: list = field(default_factory=list)  # newton: |A| per step

    @property
    def final_identity_residual(self) -> float:
        return self.residual_history[-1]


def apply_T(gop: GreenOperator, f, u, phi: Nonlinearity) -> np.ndarray:
    """One application of T u = H_D f - G_D phi(., u); returns a full node
    field. f and u take any form Grid.field accepts on the boundary and the
    interior."""
    grid = gop.grid
    fb = grid.field(f, on="boundary", name="boundary data")
    ui = grid.field(u, on="interior", name="u")
    pts = grid.nodes[grid.interior_nodes]
    hf = gop.solve(gop.op.B @ fb)
    out = np.empty(grid.n_nodes)
    out[grid.boundary_nodes] = fb
    out[grid.interior_nodes] = hf - gop.solve(phi(pts, ui))
    return out


def solve_U(
    gop: GreenOperator,
    f,
    phi: Nonlinearity,
    tol: float = 1e-10,
    max_iter: int = 200,
    scheme: str = "sandwich",
    omega: float = 0.5,
    start=None,
) -> tuple:
    """Solve u = H_D f - G_D phi(., u) for boundary data f >= 0.

    Every scheme starts from min(H_D f, start) on the interior (H_D f when
    start is None); start takes any form Grid.field accepts on the
    interior. It should lie above the solution for the sandwich envelopes
    to bracket it: a solution on a smaller domain with the same
    superharmonic data does, which is how run_exhaustion warm-starts each
    stage.

    Returns (u, SolveReport); u is a full node field with u = f on the
    boundary. Non-convergence is reported in SolveReport.status, not
    raised: a stalled sandwich still returns verified envelope data.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    grid = gop.grid
    fb = grid.field(f, on="boundary", name="boundary data")
    if start is not None:
        start = grid.field(start, on="interior", name="start")
    if np.min(fb) < 0:
        raise ValueError(f"boundary data must be nonnegative; min f = {np.min(fb):.3e}")
    if scheme == "newton" and not phi.differentiable:
        raise ValueError(
            "scheme=newton requires a nonlinearity declared differentiable"
        )
    pts = grid.nodes[grid.interior_nodes]
    phi.validate(pts, t_max=float(np.max(fb)))

    out = np.empty(grid.n_nodes)
    out[grid.boundary_nodes] = fb

    if np.max(fb, initial=0.0) == 0.0:
        # zero data: zero is the (trivial) solution, one step
        out[grid.interior_nodes] = 0.0
        report = SolveReport(0, [0.0], "converged", scheme=scheme)
        return out, report

    hf = gop.solve(gop.op.B @ fb)
    u0 = hf if start is None else np.minimum(hf, start)
    if scheme == "newton":
        ui, report = _solve_newton(gop, hf, u0, fb, pts, phi, tol, max_iter)
    else:
        ui, report = _solve_damped(gop, hf, u0, pts, phi, tol, max_iter,
                                   1.0 if scheme == "sandwich" else omega)
    report.scheme = scheme
    out[grid.interior_nodes] = ui
    return out, report


def _status(res_hist, tol):
    if not np.isfinite(res_hist[-1]):
        return "diverged"
    return "converged" if res_hist[-1] <= tol else "max_iter"


def _solve_damped(gop, hf, u0, pts, phi, tol, max_iter, omega):
    if not (0 < omega <= 1):
        raise ValueError(f"omega must be in (0, 1], got {omega}")
    u = u0  # upper envelope start when u0 lies above the fixed point, as Hf does
    residuals = []
    for it in range(max_iter):
        tu = hf - gop.solve(phi(pts, u))
        res = float(np.max(np.abs(u - tu)))  # identity residual of u
        residuals.append(res)
        if not (np.isfinite(res) and res > tol):
            return u, SolveReport(it + 1, residuals, _status(residuals, tol))
        u = (1.0 - omega) * u + omega * tu
    return u, SolveReport(max_iter, residuals, _status(residuals, tol))


def _solve_newton(gop, hf, u0, fb, pts, phi, tol, max_iter):
    K = gop.op.K
    kdiag = K.diagonal()
    # positions of the diagonal in K.data: a Jacobian is K with d added there
    diag_pos = np.flatnonzero(K.indices == np.repeat(np.arange(K.shape[1]), np.diff(K.indptr)))
    assert diag_pos.size == K.shape[0], "K must store each diagonal entry once"
    bf = gop.op.B @ fb

    u = u0
    residuals, dead_sizes = [], []
    for it in range(max_iter + 1):
        p = phi(pts, u)
        res = float(np.max(np.abs(u + gop.solve(p) - hf)))  # identity residual
        residuals.append(res)
        if not (np.isfinite(res) and res > tol) or it == max_iter:
            return u, SolveReport(it, residuals, _status(residuals, tol),
                                  dead_set_history=dead_sizes)
        # slope: max of absolute-step and relative-step secants (see module doc)
        s_abs = 1e-6 * (1.0 + np.abs(u))
        s_rel = 1e-6 * np.abs(u) + 1e-300
        d = np.maximum((phi(pts, u + s_abs) - p) / s_abs, (phi(pts, u + s_rel) - p) / s_rel)
        d = np.maximum(d, 0.0)
        direct = K @ u + p - bf
        dead = u <= direct / kdiag
        dead_sizes.append(int(np.count_nonzero(dead)))
        if not dead_sizes[-1]:
            J = K.copy()
            J.data[diag_pos] += d
            new = u + spla.spsolve(J, -direct, permc_spec=ORDERING)
        else:
            free = np.flatnonzero(~dead)
            rhs = (K @ np.where(dead, u, 0.0))[free] - direct[free]  # K_IA u_A - F_I
            J = K[free][:, free]
            J.setdiag(J.diagonal() + d[free])
            new = np.zeros_like(u)
            new[free] = u[free] + spla.spsolve(J, rhs, permc_spec=ORDERING)
        u = np.where(new <= 0.0, THETA * u, new)


@dataclass(frozen=True)
class CheckVerdict:
    passed: bool
    worst_node: int
    margin: float
    kappa: float = float("nan")
    reason: str = ""


def condition_factor(gop: GreenOperator) -> float:
    """kappa = 1 + max(G_D 1): how far an interior residual slack of tol can
    displace the solution, by the discrete maximum principle. Computed once
    per operator and kept on it."""
    if gop._kappa is None:
        gop._kappa = 1.0 + float(np.max(gop.solve(np.ones(gop.grid.n_interior))))
    return gop._kappa


def check_comparison(gop: GreenOperator, u, v, phi: Nonlinearity, boundary_gap: float = 0.0,
                     tol: float = 1e-9) -> CheckVerdict:
    """Discrete comparison check for Lu - phi(.,u) <= Lv - phi(.,v).

    Passes iff all three hold:
      residual premise   (Lu - phi(u)) <= (Lv - phi(v)) + tol at interior nodes,
      boundary premise   u >= v - boundary_gap on the boundary,
      conclusion         u >= v - boundary_gap - kappa*tol in the interior.
    """
    grid = gop.grid
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[0] != grid.n_nodes or v.shape[0] != grid.n_nodes:
        raise ValueError("check_comparison needs full node fields for u and v")
    pts = grid.nodes[grid.interior_nodes]
    ru = apply_op(gop.op, u) - phi(pts, u[grid.interior_nodes])
    rv = apply_op(gop.op, v) - phi(pts, v[grid.interior_nodes])
    kappa = condition_factor(gop)

    excess = ru - rv
    k = int(np.argmax(excess))
    if excess[k] > tol:
        return CheckVerdict(
            False, int(grid.interior_nodes[k]), float(excess[k] - tol), kappa,
            "residual premise violated",
        )
    bdiff = u[grid.boundary_nodes] - v[grid.boundary_nodes]
    k = int(np.argmin(bdiff))
    if bdiff[k] < -boundary_gap:
        return CheckVerdict(
            False, int(grid.boundary_nodes[k]), float(bdiff[k] + boundary_gap), kappa,
            "boundary premise violated",
        )
    idiff = u[grid.interior_nodes] - v[grid.interior_nodes]
    k = int(np.argmin(idiff))
    bound = -(boundary_gap + kappa * tol)
    if idiff[k] < bound:
        return CheckVerdict(
            False, int(grid.interior_nodes[k]), float(idiff[k] - bound), kappa,
            "interior conclusion violated",
        )
    return CheckVerdict(True, int(grid.interior_nodes[k]), float(idiff[k] - bound), kappa)


def check_monotone_in_data(gop: GreenOperator, f, g, phi: Nonlinearity, tol: float = 1e-9,
                           **solve_kw) -> CheckVerdict:
    """Solve with data f and g, f <= g on the boundary, and check
    U f <= U g + tol componentwise."""
    fb = gop.grid.field(f, on="boundary", name="boundary data f")
    gb = gop.grid.field(g, on="boundary", name="boundary data g")
    if np.any(fb > gb):
        raise ValueError("pre-condition f <= g on the boundary is violated")
    uf, rf = solve_U(gop, fb, phi, **solve_kw)
    ug, rg = solve_U(gop, gb, phi, **solve_kw)
    for name, rep in (("f", rf), ("g", rg)):
        if rep.status != "converged":
            raise NonConvergence(f"solve for data {name} did not converge", rep)
    diff = uf - ug
    k = int(np.argmax(diff))
    return CheckVerdict(
        bool(diff[k] <= tol), k, float(tol - diff[k]),
        reason="" if diff[k] <= tol else "monotonicity violated",
    )
