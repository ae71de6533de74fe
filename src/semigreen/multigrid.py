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

* restriction(m, free) decides how a level coarsens, for multigrid and
  for exhaustion.py's coarse starts alike: coarse node j of an axis of m
  interior points sits at fine index 2j + 1, so an axis keeps m // 2
  points; an axis of at most 3 points is carried over, and coarsening goes
  on while some axis has more (at most 3^dim unknowns on the coarsest
  level, on any box shape);
* per level, a coarse node is kept only when its injection node is free,
  and R = P_f^T is built straight from the free mask, P_f the 1D linear
  interpolation (a Kronecker product over the axes) from the kept coarse
  nodes to the free fine ones: P_f has full column rank and every coarse
  operator R A R^T is SPD. A level restricts with R and prolongs with R.T,
  the CSC view on R's arrays;
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

import itertools
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


def restriction(m: tuple, free: np.ndarray) -> tuple:
    """(R, kept) for one coarsening of the interior shape m, free a boolean
    mask over its nodes: each axis of more than 3 points halves to m // 2,
    coarse node j sitting at fine index 2j + 1, and an axis of at most 3
    points is carried over. kept masks the coarse nodes whose injection node
    is free; R = P_f^T is the canonical CSR restriction from the free fine
    nodes to the kept coarse ones: the 1D linear interpolation weights
    (0.5, 1, 0.5) on each halved axis and the identity on the others,
    multiplied over the axes, on the free fine nodes only."""
    mc = _coarse_shape(m)
    halved = [kc < k for k, kc in zip(m, mc)]
    # free on a lattice padded by one layer at the top of each axis, where the
    # neighbour 2j + 2 of the last coarse node of an even axis lands, never free
    mp = tuple(k + 1 for k in m)
    fp = np.zeros(mp, dtype=bool)
    fp[tuple(slice(k) for k in m)] = free.reshape(m)
    fp = fp.ravel()
    # the padded index of every coarse node's injection node
    inj = np.arange(fp.size).reshape(mp)[
        tuple(slice(1, 2 * kc, 2) if h else slice(kc) for kc, h in zip(mc, halved))].ravel()
    kept = fp[inj]
    # the stencil, in ascending fine index: offsets -1, 0, 1 with weights 0.5, 1, 0.5
    # on each halved axis
    offsets = np.array(list(itertools.product(*((-1, 0, 1) if h else (0,) for h in halved))))
    weights = np.where(offsets, 0.5, 1.0).prod(axis=1)
    fine = inj[kept, None] + offsets @ [math.prod(mp[a + 1:]) for a in range(len(m))]
    ok = fp[fine]
    rank = np.cumsum(fp) - 1  # a free fine node's index among the free ones
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(ok, axis=1))])
    R = sp.csr_matrix((np.broadcast_to(weights, ok.shape)[ok], rank[fine[ok]], indptr),
                      shape=(ok.shape[0], rank[-1] + 1))
    return R, kept


def _coarse_shape(m: tuple) -> tuple:
    return tuple(k // 2 if k > 3 else k for k in m)


def pcg(J, free: np.ndarray, b: np.ndarray, m: tuple, tol: float):
    """Solve J x = b, J the SPD Jacobian on the free nodes (free is a
    boolean mask over the interior shape m), given as the symmetric CSC
    matrix and used through its transpose, which is the CSR form of the
    same matrix on the same arrays (no copy). Returns x, or None when CG
    does not reach RTOL * tol within MAX_ITER iterations, when it stalls
    (STALL_WINDOW iterations cut the residual by less than STALL_FALL), or
    when CG breaks down: the caller then solves with its LU."""
    if not b.any():
        return np.zeros_like(b)
    J = J.T  # CSR view: J is symmetric
    levels = _hierarchy(J, free, m)
    x, r = np.zeros_like(b), b.copy()
    # ||r||_2 of the last STALL_WINDOW + 1 iterations, oldest first
    norms = deque([math.sqrt((b * b).sum())], maxlen=STALL_WINDOW + 1)
    stop = RTOL * tol * norms[0]
    p, rz = np.zeros_like(b), 1.0
    for _ in range(MAX_ITER):
        z = _vcycle(levels, 0, r)
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


def _hierarchy(A, free, m):
    """Levels (A, OMEGA / diag A, P_f, R), finest first, A CSR; the coarsest
    level has P_f = R = None. Each level takes its restriction R = P_f^T
    from restriction(m, free) and prolongs with R.T, the CSC view on R's
    arrays: its matvec adds each fine entry's terms in ascending coarse
    index, as a CSR row of P_f does. Coarsening stops at 3 points per axis,
    or earlier at a level that keeps no coarse node."""
    levels = []
    while max(m) > 3:
        R, kept = restriction(m, free)
        if not kept.any():
            break
        levels.append((A, OMEGA / A.diagonal(), R.T, R))
        A = R @ (A @ R.T)
        free, m = kept, _coarse_shape(m)
    levels.append((A, OMEGA / A.diagonal(), None, None))
    return levels


def _vcycle(levels, k, r):
    """One V-cycle from level k for the residual r: symmetric, so CG can
    use it as its preconditioner. The coarsest level is smoothed with no
    coarse correction."""
    A, w, P, R = levels[k]
    x = w * r
    for _ in range(SWEEPS - 1):
        x += w * (r - A @ x)
    if P is not None:
        x += P @ _vcycle(levels, k + 1, R @ (r - A @ x))
    for _ in range(SWEEPS):
        x += w * (r - A @ x)
    return x
