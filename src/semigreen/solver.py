"""Nonlinear solution operator: the fixed point u = H_D f - G_D phi(.,u).

Every entry point takes the factorized operator (a GreenOperator); nothing
here factorizes. T u = H_D f - G_D phi(.,u) costs one Green solve. Three
schemes share one loop and differ only in the step it takes:

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
  A empty the step is the plain Newton step on the whole system; with A
  every node it solves an empty system, and every node shrinks. Offered
  only when the nonlinearity is declared differentiable. The slope is the
  larger of an absolute-step and a relative-step secant; for concave phi
  this is tangent-quality, which keeps the descent monotone even on
  degenerate dead-core problems where an absolute step alone chatters.
  solve_free forms and solves every step's system: by multigrid CG when K
  is separable (op.stencil is not None; multigrid.py), else, or when CG
  does not converge, by a sparse LU (potential.spla, loaded at first use)
  that orders columns by minimum degree on A^T + A (ORDERING), as the
  Jacobian is structurally symmetric. A separable operator keeps only its
  stencil record and builds K only on request, which no step makes:
  _free_system applies K from the record (operator.apply_K), and
  solve_free fills the Jacobian on the free set from it
  (operator.stencil_matrix), the same entries, bit for bit, as the slice
  of K that a non-separable operator's step takes.

Every scheme starts from min(H f, start); a start above the solution keeps
the envelopes bracketing, and a start near it, such as run_exhaustion's
prolonged solve at twice the spacing (only a start, so solved to
tol ** 0.25), lets newton predict the dead set from its first step. Each
pass of the loop evaluates phi(u) and G phi(u), records the identity
residual ||u + G phi(u) - H f||_inf of u, and stops when it is <= tol
or not finite, or after max_iter steps; otherwise it takes the scheme's
step.
So the returned field is always the one the last recorded residual
describes, and SolveReport.iterations counts steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import multigrid
from .operator import apply as apply_op, apply_K, diagonal_K, stencil_matrix
from .potential import GreenOperator, condition_factor, spla

__all__ = [
    "Nonlinearity",
    "SolveReport",
    "CheckVerdict",
    "NonConvergence",
    "apply_T",
    "solve_U",
    "solve_free",
    "check_comparison",
    "check_monotone_in_data",
]

SCHEMES = ("sandwich", "damped_picard", "newton")
MONOTONE_CHECK_SAMPLES = 16  # probe count of Nonlinearity.validate
THETA = 0.03  # newton: a node whose new value would be <= 0 shrinks to THETA * u
ORDERING = "MMD_AT_PLUS_A"  # newton's LU: the Jacobian K + diag(phi') is structurally symmetric


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
        out = self._values(points, t)
        bad = _bad_values(out.min(), out.max()) if out.size else ""
        if bad:
            raise ValueError(bad)
        return out

    def _values(self, points, t) -> np.ndarray:
        out = np.asarray(self.phi(points, t), dtype=float)
        return np.full(points.shape[0], float(out)) if out.ndim == 0 else out

    def validate(self, points: np.ndarray, t_max: float = 1.0) -> None:
        """Spot-check that phi is finite, nonnegative, vanishing for t <= 0
        and increasing in t on sampled nodes over a t probe range. The probes
        are evaluated first and checked together; the first failing probe
        raises, naming its first failing check in that order, also when phi
        itself raises at a later probe."""
        m = MONOTONE_CHECK_SAMPLES
        idx = np.linspace(0, points.shape[0] - 1, min(m, points.shape[0])).astype(int)
        pts = points[idx]
        probes = np.concatenate([[-1.0, -1e-9, 0.0], np.linspace(1e-9, max(t_max, 1e-9), m)])
        rows, error = [], None
        for t in probes:
            try:
                rows.append(self._values(pts, t))
            except Exception as e:  # reported after the probes before it are checked
                error = e
                break
        vals = np.array(rows).reshape(len(rows), len(pts))
        lo, hi = vals.min(axis=1), vals.max(axis=1)
        with np.errstate(invalid="ignore"):  # rows past a non-finite one are never read
            prev = vals[:-1] - 1e-12 * np.maximum(1.0, hi[:-1])[:, None]
        decrease = np.concatenate([[False], np.any(vals[1:] < prev, axis=1)])
        nonzero = (probes[:len(rows)] <= 0) & np.any(vals != 0, axis=1)
        for k, t in enumerate(probes[:len(rows)]):
            bad = _bad_values(lo[k], hi[k])
            if bad:
                raise ValueError(bad)
            if nonzero[k]:
                raise ValueError(f"phi(x, t) must vanish for t <= 0; got {hi[k]:.3e} at t={t}")
            if decrease[k]:
                raise ValueError(f"phi must be increasing in t; decrease detected at t={t}")
        if error is not None:
            raise error


def _bad_values(lo: float, hi: float) -> str:
    """Why phi values with minimum lo and maximum hi break the contract, or ""."""
    if not -np.inf < lo <= hi < np.inf:  # a NaN fails every comparison
        return "phi must be finite; it returned a non-finite value"
    if lo < 0:
        return f"phi must be nonnegative (H1); it returned {lo:.3e}"
    return ""


@dataclass
class SolveReport:
    residual_history: list  # identity residual of every iterate, the returned one last
    status: str  # converged | max_iter | diverged
    dead_set_history: list = field(default_factory=list)  # newton: |A| per step

    @property
    def iterations(self) -> int:
        """Steps taken: one fewer than the iterates whose residual was recorded."""
        return len(self.residual_history) - 1

    @property
    def final_identity_residual(self) -> float:
        return self.residual_history[-1]

    def require_converged(self, what: str) -> None:
        """Raise NonConvergence naming `what`, the last residuals and, under
        newton, the final dead set, unless the solve converged."""
        if self.status == "converged":
            return
        last = ", ".join(f"{r:.3e}" for r in self.residual_history[-3:])
        dead = (f"; final dead set {self.dead_set_history[-1]} nodes"
                if self.dead_set_history else "")
        raise NonConvergence(f"{what} ended with status {self.status!r} "
                             f"(last identity residuals {last}{dead})", self)


def apply_T(gop: GreenOperator, f, u, phi: Nonlinearity) -> np.ndarray:
    """One application of T u = H_D f - G_D phi(., u); returns a full node
    field. f and u take any form Grid.field accepts on the boundary and the
    interior."""
    grid = gop.grid
    fb = grid.field(f, on="boundary", name="boundary data")
    ui = grid.field(u, on="interior", name="u")
    pts = grid.nodes[grid.interior_nodes]
    return grid.join(gop.solve(gop.op.B @ fb) - gop.solve(phi(pts, ui)), fb)


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
    interior. A start above the solution keeps the sandwich envelopes
    bracketing it; none is needed for convergence, and run_exhaustion
    hands each large stage the prolonged solve of its box at twice the
    spacing, which may lie below the solution.

    Returns (u, SolveReport); u is a full node field with u = f on the
    boundary. Non-convergence is reported in SolveReport.status, not
    raised: a stalled sandwich still returns verified envelope data.

    Through each newton linear solve, solve_U holds only the boundary data,
    the interior points, H f, the iterate u and p = phi(u): start, and its
    interior copy, are dropped once the first iterate exists, and
    G phi(u) once its residual is recorded. The step itself keeps no node
    array between steps (see _newton_step).
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
    if not 0 < omega <= 1:
        raise ValueError(f"omega must be in (0, 1], got {omega}")
    pts = grid.nodes[grid.interior_nodes]
    phi.validate(pts, t_max=float(np.max(fb)))

    hf = gop.solve(gop.op.B @ fb)
    u = hf if start is None else np.minimum(hf, start)
    del start  # neither the caller's start nor its interior copy is kept through the solve
    residuals, dead_sizes = [], []
    w = 1.0 if scheme == "sandwich" else omega

    for it in range(max_iter + 1):
        p = phi(pts, u)
        g = gop.solve(p)
        res = float(np.max(np.abs(u + g - hf)))  # identity residual of u
        residuals.append(res)
        if not (np.isfinite(res) and res > tol) or it == max_iter:
            break
        if scheme == "newton":
            del g  # the free-set step does not read G phi(u)
            u, n_dead = _newton_step(gop, phi, tol, u, p, fb, pts)
            dead_sizes.append(n_dead)
        else:  # damped Picard: u <- (1 - w) u + w T u, T u = hf - g
            u = (1.0 - w) * u + w * (hf - g)

    status = "diverged" if not np.isfinite(res) else "converged" if res <= tol else "max_iter"
    return grid.join(u, fb), SolveReport(residuals, status, dead_sizes)


def _newton_step(gop, phi, tol, u, p, fb, pts):
    """The free-set step of the module doc from u, with p = phi(u), boundary
    data fb and interior points pts: returns (new u, |A|). B fb is formed
    here, so no node array lives between steps. Through the linear solve a
    step holds u, p, the free mask, and the right-hand side and slope, both
    on the free set: B fb, F(u) and diag K are freed in _free_system, the
    slope once solve_free has put it on J, and solve_U drops G phi(u) before
    the step. A step that predicts every node dead shrinks each to THETA u."""
    free, rhs = _free_system(gop.op, gop.op.B @ fb, u, p)
    delta = solve_free(gop, free, _slope(phi, pts[free], u[free], p[free]), rhs, tol)
    new = np.zeros_like(u)
    new[free] = u[free] + delta
    return np.where(new <= 0.0, THETA * u, new), free.size - int(np.count_nonzero(free))


def solve_free(gop: GreenOperator, free, d, rhs, tol: float) -> np.ndarray:
    """x with J x = rhs, J = (K + diag d)_FF on the free set F (a boolean mask
    over the interior; d >= 0 given on F, like rhs, or a scalar): multigrid
    CG on J's own arrays when K is separable, else, or when CG gives up, the
    LU. A separable operator's J is filled on F straight from its stencil
    record (operator.stencil_matrix), with no K; any other J is sliced from
    the assembled K. An empty F gives an empty x."""
    op = gop.op
    if op.stencil is not None:
        J = stencil_matrix(op, free, d)
    else:
        # K.copy() is far cheaper than K[:, free][free], and steps without a dead core
        # take it; columns first is cheap on K's CSC and gives the same matrix as rows first
        J = op.K.copy() if free.all() else op.K[:, free][free]
        J.setdiag(J.diagonal() + d)  # in place: K stores each diagonal entry once
    del d
    if op.stencil is not None:
        x = multigrid.pcg(J, free, rhs, tuple(n - 2 for n in gop.grid.shape), tol)
        if x is not None:
            return x
    return spla.spsolve(J, rhs, permc_spec=ORDERING)


def _slope(phi, pts, u, p):
    """phi's slope at u (p = phi(u)) on the free nodes pts, the larger of an
    absolute-step and a relative-step secant (see the module doc), at least
    0: one value per free node."""
    s_abs = 1e-6 * (1.0 + np.abs(u))
    s_rel = 1e-6 * np.abs(u) + 1e-300
    return np.maximum(np.maximum((phi(pts, u + s_abs) - p) / s_abs,
                                 (phi(pts, u + s_rel) - p) / s_rel), 0.0)


def _free_system(op, bf, u, p):
    """(free, rhs): the free set I = ~A as a boolean mask, A = {u <= F(u) /
    diag K} the predicted dead set with F(u) = K u + p - bf (a NaN
    comparison counts as free), and the right-hand side K_IA u_A - F_I,
    given on I like the slope, and empty when every node is predicted dead.
    K is applied by operator.apply_K: from the stencil record on a separable
    operator, which builds no K."""
    direct = apply_K(op, u) + p - bf
    free = ~(u <= direct / diagonal_K(op))
    return free, apply_K(op, np.where(free, 0.0, u))[free] - direct[free]


@dataclass(frozen=True)
class CheckVerdict:
    worst_node: int
    margin: float  # slack of the deciding inequality: < 0 exactly when the check fails
    kappa: float = float("nan")
    reason: str = ""

    @property
    def passed(self) -> bool:
        return self.margin >= 0


def check_comparison(gop: GreenOperator, u, v, phi: Nonlinearity,
                     tol: float = 1e-9) -> CheckVerdict:
    """Discrete comparison check for Lu - phi(.,u) <= Lv - phi(.,v).

    Passes iff all three hold:
      residual premise   (Lu - phi(u)) <= (Lv - phi(v)) + tol at interior nodes,
      boundary premise   u >= v on the boundary,
      conclusion         u >= v - kappa*tol in the interior.
    u and v take any form Grid.field accepts on the nodes.
    """
    grid = gop.grid
    u = grid.field(u, name="u")
    v = grid.field(v, name="v")
    pts = grid.nodes[grid.interior_nodes]
    ru = apply_op(gop.op, u) - phi(pts, u[grid.interior_nodes])
    rv = apply_op(gop.op, v) - phi(pts, v[grid.interior_nodes])
    kappa = condition_factor(gop)

    # (difference, nodes, lowest allowed value, reason), scanned in order; the first
    # violated row fails the check, and the margin is the slack difference - bound
    table = [
        (rv - ru, grid.interior_nodes, -tol, "residual premise violated"),
        (u[grid.boundary_nodes] - v[grid.boundary_nodes], grid.boundary_nodes, 0.0,
         "boundary premise violated"),
        (u[grid.interior_nodes] - v[grid.interior_nodes], grid.interior_nodes, -kappa * tol,
         "interior conclusion violated"),
    ]
    for diff, nodes, bound, reason in table:
        k = int(np.argmin(diff))
        if diff[k] < bound:
            return CheckVerdict(int(nodes[k]), float(diff[k] - bound), kappa, reason)
    return CheckVerdict(int(nodes[k]), float(diff[k] - bound), kappa)


def check_monotone_in_data(gop: GreenOperator, f, g, phi: Nonlinearity, tol: float = 1e-9,
                           **solve_kw) -> CheckVerdict:
    """Solve with data f and g, f <= g on the boundary, and check
    U f <= U g + tol componentwise."""
    fb = gop.grid.field(f, on="boundary", name="boundary data f")
    gb = gop.grid.field(g, on="boundary", name="boundary data g")
    if np.any(fb > gb):
        raise ValueError("pre-condition f <= g on the boundary is violated")
    uf, rf = solve_U(gop, fb, phi, **solve_kw)
    rf.require_converged("solve for data f")
    ug, rg = solve_U(gop, gb, phi, **solve_kw)
    rg.require_converged("solve for data g")
    diff = uf - ug
    k = int(np.argmax(diff))
    return CheckVerdict(k, float(tol - diff[k]),
                        reason="" if diff[k] <= tol else "monotonicity violated")
