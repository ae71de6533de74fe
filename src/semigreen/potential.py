"""Discrete Dirichlet solves (harmonic extension, Green potential) plus the
closed-form kernels used as oracles: interval Green function, half-plane
Green function, and the Poisson extension quadrature of the half-plane.

Both discrete operations are one linear solve with K = -L restricted to
interior nodes, through one GreenOperator per operator:

    harmonic extension   h = K^-1 B f   (Lh = 0 inside, h = f on the boundary)
    Green potential      g = K^-1 psi   (Lg = -psi inside, g = 0 on the boundary)

A GreenOperator picks its solve path once, from op.stencil. When assemble
recorded K as the separable constant-coefficient stencil on the full box
interior (one diagonal value and one neighbour coupling per axis, nothing
else; constant a_ii and c, no drift, no cross term), the DST-I diagonalizes
it exactly (Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7(4), 1970) and
a solve is a forward transform, a division by the eigenvalues and an
inverse transform. The DST-I runs on numpy's real FFT (_dstn), which is
loaded at start-up and gives the bits of scipy's dstn; SciPy's FFT
module is never imported. Every other K (drift, variable coefficients, a
cross term) gets a sparse LU factorization. That is the only sparse LU of
a Green solve; newton's linear step is solver.solve_free, which slices
its Jacobian from K, or, on a separable operator, fills it on the free
set from the stencil record (a separable operator keeps only that record
and builds K only on request) and builds multigrid's hierarchy from the
free set: a GreenOperator holds no multigrid state. Both take their LU
from spla, scipy.sparse.linalg loaded lazily: it executes (and imports
scipy.linalg) at the first LU, so a run on separable operators whose
multigrid CG converges never loads it.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .operator import DiscreteOperator

__all__ = [
    "GreenOperator",
    "factorize",
    "condition_factor",
    "harmonic_extension",
    "green_potential",
    "interval_green",
    "halfplane_green",
    "poisson_extension",
    "ORACLE_DIMS",
]

# scipy.sparse.linalg, executed on first use (see the module doc)
spla = sys.modules.get("scipy.sparse.linalg")
if spla is None:
    _spec = importlib.util.find_spec("scipy.sparse.linalg")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    spla = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(spla)

# the closed-form Green functions by name, and the dimension of the grid each lives
# on: the oracles of `semigreen green` and the kernels of criterion_integral
ORACLE_DIMS = {"interval": 1, "halfplane": 2}
DST_BLOCK_ROWS = 32  # rows per rfft call of _dstn: a block of 511^2 rows stays in cache


def _separable_eigenvalues(op: DiscreteOperator) -> np.ndarray:
    """Eigenvalues of K on the interior shape m, from the stencil record
    (d0, -c_ax per axis) of a separable K.

    The eigenvector of index k (1-based per axis) is the product of
    sin(pi k_ax j_ax / (m_ax + 1)) over the axes, with eigenvalue
    d0 - sum_ax 2 c_ax cos(pi k_ax / (m_ax + 1)).
    """
    lam, neighbour = op.stencil
    m = tuple(n - 2 for n in op.grid.shape)
    for ax in range(len(m)):
        k = np.arange(1, m[ax] + 1).reshape((-1,) + (1,) * (len(m) - ax - 1))
        lam = lam + 2.0 * neighbour[ax] * np.cos(math.pi * k / (m[ax] + 1))
    return lam


def _dstn(x: np.ndarray, inverse: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """DST-I over every axis of x, axis 0 first, written to out (a new array
    by default; out may be x): SciPy's dstn(x, type=1), or with inverse
    its idstn(x, type=1), bit for bit.

    A DST-I of a row c of length m is the real DFT of its odd extension
    (0, c, 0, -reversed c) of length 2(m + 1): its values are
    -rfft(ext).imag[1:m + 1]. pocketfft computes scipy's DST-I that way,
    and numpy.fft.rfft runs the same pocketfft. The inverse scales by
    1 / prod(2(m + 1)) in the first pass only, as pocketfft does.
    """
    if out is None:
        out = np.empty(x.shape)
    fct = 1.0 / math.prod(2 * (m + 1) for m in x.shape) if inverse else 1.0
    for ax, m in enumerate(x.shape):
        # the rows along axis ax as 2D arrays: views, except along an inner axis
        # (the middle one in dimension 3), where reshape copies; such a copy of
        # out is written back after the pass
        rows = np.moveaxis(x, ax, -1).reshape(-1, m)
        moved = np.moveaxis(out, ax, -1)
        dst = moved.reshape(-1, m)
        b = min(DST_BLOCK_ROWS, rows.shape[0])
        ext = np.zeros((b, 2 * m + 2))  # columns 0 and m + 1 stay 0
        spec = np.empty((b, m + 2), dtype=complex)
        for i in range(0, rows.shape[0], b):
            n = min(b, rows.shape[0] - i)
            e = ext[:n]
            e[:, 1:m + 1] = rows[i:i + n]
            np.negative(e[:, m:0:-1], out=e[:, m + 2:])
            np.fft.rfft(e, axis=-1, out=spec[:n])
            # y * -fct is -(fct * y) bit for bit: rounding is symmetric in sign
            np.multiply(spec.imag[:n, 1:m + 1], -fct, out=dst[i:i + n])
        if not np.may_share_memory(dst, out):
            moved[...] = dst.reshape(moved.shape)
        x, fct = out, 1.0
    return out


@dataclass
class GreenOperator:
    """Solve handle over a DiscreteOperator's interior system.

    Sign convention: solves K v = rhs with K = -L, so Green data enters
    with a plus sign and L(G psi) = -psi. Building one picks the solve path
    from op.stencil: the DST-I when assemble recorded the separable
    constant-coefficient stencil (see _separable_eigenvalues), otherwise a
    sparse LU factorization, the only one of a Green solve.
    """

    op: DiscreteOperator
    _lam: np.ndarray | None = field(default=None, init=False, repr=False)  # DST-I eigenvalues of K
    _lu: object = field(default=None, init=False, repr=False)  # SuperLU when K is not separable
    _kappa: float | None = field(default=None, init=False, repr=False)  # cache of condition_factor

    def __post_init__(self):
        if self.op.stencil is not None:
            self._lam = _separable_eigenvalues(self.op)
            return
        try:
            self._lu = spla.splu(self.op.K)
        except RuntimeError as e:
            raise RuntimeError(f"singular interior system: {e}") from e

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if self._lu is not None:
            return self._lu.solve(rhs)
        coef = _dstn(rhs.reshape(self._lam.shape))
        coef /= self._lam
        return _dstn(coef, inverse=True, out=coef).ravel()

    @property
    def grid(self):
        return self.op.grid


def factorize(op: DiscreteOperator) -> GreenOperator:
    return GreenOperator(op=op)


def condition_factor(gop: GreenOperator) -> float:
    """kappa = 1 + max(G_D 1): how far an interior residual slack of tol can
    displace the solution, by the discrete maximum principle. Computed once
    per operator and kept on it."""
    if gop._kappa is None:
        gop._kappa = 1.0 + float(np.max(gop.solve(np.ones(gop.grid.n_interior))))
    return gop._kappa


def harmonic_extension(gop: GreenOperator, f) -> np.ndarray:
    """Solve the Dirichlet problem Lh = 0, h = f on the boundary.

    Parameters
    ----------
    gop : the factorized operator (see factorize).
    f : boundary values in a form Grid.field accepts on="boundary" (a
        scalar, a callable, a full node field, or values aligned with
        grid.boundary_nodes).

    Returns
    -------
    Full node field with h = f exactly on boundary nodes.
    """
    grid = gop.grid
    fb = grid.field(f, on="boundary", name="boundary data")
    return grid.join(gop.solve(gop.op.B @ fb), fb)


def green_potential(gop: GreenOperator, psi) -> np.ndarray:
    """Solve L g = -psi with zero boundary data; returns a full node field.

    psi may be any form Grid.field accepts on="interior"; the boundary
    entries of a full node field are ignored (the potential lives on
    interior sources).
    """
    grid = gop.grid
    psi = grid.field(psi, on="interior", name="source field")
    return grid.join(gop.solve(psi))


def interval_green(x: float, y, endpoints=(0.0, 1.0)):
    """Green function of d^2/dx^2 on an interval: G(x,y) = (x-a)(b-y)/(b-a)
    for x <= y, symmetric otherwise. Arguments must lie strictly inside;
    y may also be an array of points, giving an array."""
    a, b = float(endpoints[0]), float(endpoints[1])
    ys = np.asarray(y, dtype=float)
    if not (a < x < b and np.all((a < ys) & (ys < b))):
        raise ValueError(f"points must lie strictly inside ({a}, {b})")
    g = (np.minimum(x, ys) - a) * (b - np.maximum(x, ys)) / (b - a)
    return float(g) if g.ndim == 0 else g


def halfplane_green(z, w):
    """Green function of the Laplacian on the upper half-plane:
    G(z,w) = ln(|z - conj(w)| / |z - w|) / (2 pi). Points as (x,y) pairs;
    z may also be an (n, 2) array of points, giving an (n,) array."""
    pts = np.asarray(z, dtype=float)
    single = pts.ndim == 1
    zx, zy = np.atleast_2d(pts).T
    wx, wy = float(w[0]), float(w[1])
    if wy <= 0 or np.any(zy <= 0):
        raise ValueError("points must lie in the open upper half-plane")
    d2 = (zx - wx) ** 2 + (zy - wy) ** 2
    if np.any(d2 == 0.0):
        raise ValueError("coincident points")
    m2 = (zx - wx) ** 2 + (zy + wy) ** 2
    # math.log, not np.log: the two differ in the last bit on some points
    g = 0.25 * np.array([math.log(q) for q in (m2 / d2).tolist()]) / math.pi
    return float(g[0]) if single else g


def _simpson_panel(func, lo: float, hi: float, n_sub: int) -> float:
    # composite Simpson with n_sub even subintervals on [lo, hi]
    xs = np.linspace(lo, hi, n_sub + 1)
    ys = func(xs)
    h = (hi - lo) / n_sub
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())


def poisson_extension(f, eval_points, radius: float = 100.0, breakpoints=()) -> np.ndarray:
    """Harmonic extension of bounded data on the real line into the upper
    half-plane: h(x,y) = integral of P(x - s, y) f(s) ds.

    The quadrature is composite Simpson on [-radius, radius], split at the
    declared breakpoints so discontinuous data (indicators) keeps full
    accuracy. The tail beyond the truncation is corrected analytically
    assuming f is constant there at its endpoint values:
    integral of P over [R, inf) = 1/2 - arctan((R - x)/y) / pi.

    Parameters
    ----------
    f : callable mapping a sample array to data values.
    eval_points : sequence of (x, y) with y > 0.
    breakpoints : data discontinuity locations inside [-radius, radius].
    """
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    if np.any(pts[:, 1] <= 0):
        raise ValueError("evaluation points must have y > 0")
    edges = sorted({-radius, radius, *(float(b) for b in breakpoints if -radius < float(b) < radius)})
    out = np.empty(pts.shape[0])
    for k, (x0, y0) in enumerate(pts):
        total = 0.0
        for lo, hi in zip(edges, edges[1:]):
            # resolve the kernel peak near s = x0: 512 subintervals per y0
            # of panel width, counting between 2 and 16 widths
            nn = 512 * min(max(2, int(math.ceil((hi - lo) / y0))), 16)
            # data samples stay strictly inside the panel so a jump placed
            # exactly at a breakpoint contributes its one-sided limits
            nudge = 1e-9 * max(1.0, abs(lo), abs(hi))

            def integrand(s, x0=x0, y0=y0, lo=lo, hi=hi, nudge=nudge):
                inside = np.clip(s, lo + nudge, hi - nudge)
                return f(inside) / math.pi * y0 / ((x0 - s) ** 2 + y0 * y0)

            total += _simpson_panel(integrand, lo, hi, nn)
        f_hi = float(np.asarray(f(np.array([radius]))).ravel()[0])
        f_lo = float(np.asarray(f(np.array([-radius]))).ravel()[0])
        total += f_hi * (0.5 - math.atan((radius - x0) / y0) / math.pi)
        total += f_lo * (0.5 - math.atan((radius + x0) / y0) / math.pi)
        out[k] = total
    return out
