"""Finite-difference assembly of L = sum a_ij d_i d_j + sum b_i d_i + c.

Second-order terms use central differences, drift terms use first-order
upwind differences (direction picked per node by the sign of b_i) so the
assembled system is an M-matrix whenever a is diagonal and c <= 0. Mixed
derivatives use the 4-point cross stencil and may break the M-matrix
sign structure; the m_matrix flag reports the outcome of a direct check.

Conventions: the stencil is stored once, as the M-matrix K = -L restricted
to interior nodes, and the boundary coupling B carries the boundary-data
contribution, so

    (Lu)_interior = -K @ u_interior + B @ u_boundary,

and the solvers elsewhere use H f = K^-1 B f, G psi = K^-1 psi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import Grid

__all__ = [
    "EllipticCoefficients",
    "DiscreteOperator",
    "assemble",
    "apply",
    "check_superharmonic",
    "SuperharmonicReport",
]

EPS_ELL = 1e-10  # strict-ellipticity floor
_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class EllipticCoefficients:
    """Coefficient fields of L, each in a form Grid.field accepts (a
    scalar, a callable on (n, dim) points, or a node field). 1D uses a11,
    b1, c only.

    zero_order_mode: "c_nonpos" allows c <= 0; "c_zero" requires c == 0.
    """

    a11: object = 1.0
    a22: object = 1.0
    a12: object = 0.0
    b1: object = 0.0
    b2: object = 0.0
    c: object = 0.0
    zero_order_mode: str = "c_nonpos"

    def __post_init__(self):
        if self.zero_order_mode not in ("c_nonpos", "c_zero"):
            raise ValueError(f"unknown zero_order_mode {self.zero_order_mode!r}")


def _validate_coefficients(vals: dict, pts: np.ndarray, dim: int, mode: str) -> None:
    a11, a22, a12, c = vals["a11"], vals["a22"], vals["a12"], vals["c"]
    if dim == 1:
        lam = a11
    else:
        # eigenvalues of [[a11,a12],[a12,a22]]
        tr = a11 + a22
        disc = np.sqrt(((a11 - a22) / 2.0) ** 2 + a12**2)
        lam = tr / 2.0 - disc
    worst = int(np.argmin(lam))
    if lam[worst] <= EPS_ELL:
        raise ValueError(
            f"ellipticity violation: min eigenvalue {lam[worst]:.3e} <= {EPS_ELL:.0e} "
            f"at node {worst} {tuple(pts[worst])}"
        )
    worst = int(np.argmax(c))
    if c[worst] > _SIGN_TOL:
        raise ValueError(
            f"positive zero-order coefficient c = {c[worst]:.3e} at node {worst} {tuple(pts[worst])}"
        )
    if mode == "c_zero" and np.max(np.abs(c)) > _SIGN_TOL:
        worst = int(np.argmax(np.abs(c)))
        raise ValueError(
            f"zero_order_mode=c_zero but |c| = {abs(c[worst]):.3e} at node {worst}"
        )


@dataclass(frozen=True)
class DiscreteOperator:
    grid: Grid
    B: sp.csr_matrix  # interior x boundary coupling
    m_matrix: bool
    coeffs: EllipticCoefficients
    K: sp.csc_matrix  # interior x interior, rows of -L; the M-matrix the solvers factorize


def assemble(grid: Grid, coeffs: EllipticCoefficients) -> DiscreteOperator:
    """Assemble the interior stencil and boundary coupling of L on a grid.

    Raises on coefficient invariant violations (ellipticity, sign of c).
    A broken M-matrix sign structure from cross derivatives is reported
    via m_matrix=False, not an error.
    """
    vals = {name: grid.field(getattr(coeffs, name), name=name)
            for name in ("a11", "a22", "a12", "b1", "b2", "c")}
    _validate_coefficients(vals, grid.nodes, grid.dim, coeffs.zero_order_mode)

    n_int = grid.n_interior
    nodes = grid.interior_nodes
    rows = np.arange(n_int)
    pieces = []  # (row indices, target node indices, values)

    def sample_at(name):
        return vals[name][nodes]

    if grid.dim == 1:
        h = grid.spacing[0]
        a, b, c = sample_at("a11"), sample_at("b1"), sample_at("c")
        up, dn = np.maximum(b, 0.0), np.minimum(b, 0.0)
        pieces.append((rows, nodes, -2.0 * a / h**2 + c - np.abs(b) / h))
        pieces.append((rows, nodes + 1, a / h**2 + up / h))
        pieces.append((rows, nodes - 1, a / h**2 - dn / h))
    else:
        hx, hy = grid.spacing
        ny = grid.shape[1]
        a11, a22, a12 = sample_at("a11"), sample_at("a22"), sample_at("a12")
        b1, b2, c = sample_at("b1"), sample_at("b2"), sample_at("c")
        up1, dn1 = np.maximum(b1, 0.0), np.minimum(b1, 0.0)
        up2, dn2 = np.maximum(b2, 0.0), np.minimum(b2, 0.0)
        diag = (
            -2.0 * a11 / hx**2
            - 2.0 * a22 / hy**2
            + c
            - np.abs(b1) / hx
            - np.abs(b2) / hy
        )
        pieces.append((rows, nodes, diag))
        pieces.append((rows, nodes + ny, a11 / hx**2 + up1 / hx))  # east
        pieces.append((rows, nodes - ny, a11 / hx**2 - dn1 / hx))  # west
        pieces.append((rows, nodes + 1, a22 / hy**2 + up2 / hy))  # north
        pieces.append((rows, nodes - 1, a22 / hy**2 - dn2 / hy))  # south
        if np.any(a12 != 0.0):
            # 2*a12 * d2u/dxdy on the 4-point cross stencil
            q = 2.0 * a12 / (4.0 * hx * hy)
            pieces.append((rows, nodes + ny + 1, q))
            pieces.append((rows, nodes - ny - 1, q))
            pieces.append((rows, nodes + ny - 1, -q))
            pieces.append((rows, nodes - ny + 1, -q))

    int_of_node = -np.ones(grid.n_nodes, dtype=np.int64)
    int_of_node[nodes] = np.arange(n_int)
    bd_of_node = -np.ones(grid.n_nodes, dtype=np.int64)
    bd_of_node[grid.boundary_nodes] = np.arange(len(grid.boundary_nodes))

    all_rows = np.concatenate([p[0] for p in pieces])
    all_tgts = np.concatenate([p[1] for p in pieces])
    all_vals = np.concatenate([p[2] for p in pieces])
    into_interior = int_of_node[all_tgts] >= 0

    n_bd = len(grid.boundary_nodes)
    matrix = sp.csr_matrix(
        (
            all_vals[into_interior],
            (all_rows[into_interior], int_of_node[all_tgts[into_interior]]),
        ),
        shape=(n_int, n_int),
        dtype=float,
    )
    coupling = sp.csr_matrix(
        (
            all_vals[~into_interior],
            (all_rows[~into_interior], bd_of_node[all_tgts[~into_interior]]),
        ),
        shape=(n_int, n_bd),
        dtype=float,
    )
    matrix.sum_duplicates()
    coupling.sum_duplicates()

    K = (-matrix).tocsc()
    diag = K.diagonal()
    offdiag_max = (K - sp.diags(diag)).max()
    # row sums of -L over all columns (interior and boundary): discrete L1 <= 0
    rowsum = K @ np.ones(n_int) - coupling @ np.ones(n_bd)
    scale = float(np.max(np.abs(diag)))
    m_matrix = bool(
        np.all(diag > 0)
        and offdiag_max <= _SIGN_TOL * scale
        and np.all(rowsum >= -_SIGN_TOL * scale)
        and (coupling.nnz == 0 or coupling.min() >= -_SIGN_TOL * scale)
    )
    return DiscreteOperator(
        grid=grid, B=coupling, m_matrix=m_matrix, coeffs=coeffs, K=K,
    )


def apply(op: DiscreteOperator, u) -> np.ndarray:
    """Evaluate (Lu) at interior nodes of a full node field u (any form
    Grid.field accepts on the nodes)."""
    grid = op.grid
    u = grid.field(u, name="u")
    return -(op.K @ u[grid.interior_nodes]) + op.B @ u[grid.boundary_nodes]


@dataclass(frozen=True)
class SuperharmonicReport:
    passed: bool
    max_residual: float
    worst_node: int
    tol: float


def check_superharmonic(op: DiscreteOperator, s, tol: float = 1e-9) -> SuperharmonicReport:
    """Check Ls <= tol at interior nodes (discrete superharmonicity of s >= 0)."""
    vals = apply(op, s)
    worst = int(np.argmax(vals))
    mx = float(vals[worst])
    return SuperharmonicReport(
        passed=bool(mx <= tol),
        max_residual=mx,
        worst_node=int(op.grid.interior_nodes[worst]),
        tol=tol,
    )
