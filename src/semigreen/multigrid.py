"""Multigrid-preconditioned CG for Newton's Jacobian on a separable operator.

On a separable K (GreenOperator's DST path) K is symmetric, so the Jacobian
J = K_II + diag(d)_I of a free set I, with d >= 0, is symmetric positive
definite. J arrives as the symmetric CSC matrix solver.solve_free builds;
its transpose J.T is the same matrix in CSR, a view on J's arrays, and CG
and the finest level use it with no copy. CG solves J with one Galerkin
V-cycle per iteration as the preconditioner (Trottenberg, Oosterlee and
Schueller, *Multigrid*, 2001), the hierarchy built on the free set only,
as in multigrid for free-boundary problems (Brandt and Cryer, SIAM J. Sci.
Stat. Comput. 4(4), 1983):

* the whole-lattice prolongations, built once per operator (kept by
  GreenOperator), are Kronecker products of 1D linear interpolation;
  coarse node j of an axis of m interior points sits at fine index 2j + 1,
  so an axis keeps m // 2 points (exhaustion.py prolongs its coarse
  solves with the same prolongation); an axis of at most 3 points is
  carried over, and coarsening goes on while some axis has more (at most
  3^dim unknowns on the coarsest level, on any box shape);
* per solve, P_f = P[free rows][:, kept], where a coarse column is kept only
  when its injection node (its entry 1) is free: P_f then has full column
  rank and every coarse operator P_f^T A P_f is SPD. A level restricts with
  the CSR copy R = P_f^T and prolongs with R.T, the CSC view on R's
  arrays; the CSR P_f lives only for the Galerkin product that forms the
  next level;
* damped Jacobi (OMEGA, SWEEPS before and after the coarse correction),
  the coarsest level smoothed the same way with no correction between:
  nothing is factorized, and only CG giving up needs an LU;
* CG gives up, and the caller takes its LU, after MAX_ITER iterations or
  as soon as STALL_WINDOW iterations cut the residual by less than
  STALL_FALL, as on strongly anisotropic grids, where point Jacobi does
  not smooth across the weak axis.

The hierarchy lives for one solve; _vcycle is a module-level function, not
a closure, so nothing holds it after pcg returns. Inner products are numpy
reductions, which stay on one thread.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import scipy.sparse as sp

OMEGA = 0.6  # damped Jacobi weight
SWEEPS = 2  # smoothing sweeps before and after each coarse correction
RTOL = 1e-2  # CG stops at ||r||_2 <= RTOL * tol * ||b||_2
MAX_ITER = 50  # CG iterations before the caller falls back to its LU
STALL_WINDOW, STALL_FALL = 5, 10.0  # CG gives up when STALL_WINDOW iterations cut ||r||_2
# by less than STALL_FALL: shipped steps cut it by 3e4 or more, a 1:256 box by at most 5


def prolongations(m: tuple) -> list:
    """prolongation(m) of each coarsening of the interior shape m, finest
    first, down to at most 3 points per axis."""
    levels = []
    while max(m) > 3:
        levels.append(prolongation(m))
        m = _coarse_shape(m)
    return levels


def prolongation(m: tuple) -> tuple:
    """(P, inj) for one coarsening of the interior shape m to m // 2 on each
    axis of more than 3 points: P maps a coarse field to the finer one by
    1D linear interpolation on each such axis and the identity on the
    others, and inj holds the fine index of each coarse node."""
    mc = _coarse_shape(m)
    P = sp.csr_matrix(np.ones((1, 1)))
    for k, kc in zip(m, mc):
        j = np.arange(kc)
        rows = np.concatenate([2 * j + 1, 2 * j, 2 * j + 2])
        vals = np.repeat([1.0, 0.5, 0.5], kc)
        inside = rows < k
        P1 = sp.csr_matrix((vals[inside], (rows[inside], np.tile(j, 3)[inside])),
                           shape=(k, kc)) if kc < k else sp.identity(k, format="csr")
        P = sp.kron(P, P1, format="csr")
    inj = np.arange(math.prod(m)).reshape(m)[
        tuple(slice(1, 2 * kc, 2) if kc < k else slice(None) for k, kc in zip(m, mc))]
    return P, inj.ravel()


def _coarse_shape(m: tuple) -> tuple:
    return tuple(k // 2 if k > 3 else k for k in m)


def pcg(J, free: np.ndarray, b: np.ndarray, prolong: list, tol: float):
    """Solve J x = b, J the SPD Jacobian on the free nodes (free is a
    boolean mask over the interior of prolong's finest level), given as the
    symmetric CSC matrix and used through its transpose, which is the CSR
    form of the same matrix on the same arrays (no copy). Returns x,
    or None when CG does not reach RTOL * tol within MAX_ITER iterations,
    when it stalls (STALL_WINDOW iterations cut the residual by less than
    STALL_FALL), or when CG breaks down: the caller then solves with its
    LU."""
    if not b.any():
        return np.zeros_like(b)
    J = J.T  # CSR view: J is symmetric
    levels, coarsest = _hierarchy(J, free, prolong)
    x, r = np.zeros_like(b), b.copy()
    # ||r||_2 of the last STALL_WINDOW + 1 iterations, oldest first
    norms = deque([math.sqrt((b * b).sum())], maxlen=STALL_WINDOW + 1)
    stop = RTOL * tol * norms[0]
    p, rz = np.zeros_like(b), 1.0
    for _ in range(MAX_ITER):
        z = _vcycle(levels, coarsest, 0, r)
        rz, rz_old = (r * z).sum(), rz
        if not 0 < rz < math.inf:  # the V-cycle is not SPD on r
            return None
        p *= rz / rz_old
        p += z
        q = J @ p
        pq = (p * q).sum()
        if not pq > 0:  # J is not SPD, or the iteration broke down
            return None
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        norms.append(math.sqrt((r * r).sum()))
        if norms[-1] <= stop:
            return x
        if len(norms) > STALL_WINDOW and norms[-1] * STALL_FALL > norms[0]:
            return None  # stalled
    return None


def _hierarchy(A, free, prolong):
    """Levels (A, OMEGA / diag A, P_f, P_f^T), finest first, and the
    coarsest level (A, OMEGA / diag A); A is CSR. The restriction
    R = P_f^T is a CSR copy, and the prolongation is R.T, the CSC view on
    R's arrays: its matvec adds each fine entry's terms in ascending coarse
    index, as a CSR row of P_f does. The CSR P_f lives only for the
    Galerkin product that forms the next level."""
    levels = []
    for P, inj in prolong:
        kept = free[inj]
        if not kept.any():
            break
        Pf = P[np.flatnonzero(free)][:, np.flatnonzero(kept)]
        R = Pf.T.tocsr()
        levels.append((A, OMEGA / A.diagonal(), R.T, R))
        A = R @ (A @ Pf)
        free = kept
    return levels, (A, OMEGA / A.diagonal())


def _vcycle(levels, coarsest, k, r):
    """One V-cycle from level k for the residual r: symmetric, so CG can
    use it as its preconditioner. The coarsest level is smoothed with no
    coarse correction."""
    A, w, P, R = levels[k] if k < len(levels) else (*coarsest, None, None)
    x = w * r
    for _ in range(SWEEPS - 1):
        x += w * (r - A @ x)
    if P is not None:
        x += P @ _vcycle(levels, coarsest, k + 1, R @ (r - A @ x))
    for _ in range(SWEEPS):
        x += w * (r - A @ x)
    return x
