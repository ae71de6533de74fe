"""Finite-difference assembly of L = sum a_ij d_i d_j + sum b_i d_i + c.

Second-order terms use central differences, drift terms use first-order
upwind differences (direction picked per node by the sign of b_i) so the
assembled system is an M-matrix whenever a is diagonal and c <= 0. Mixed
derivatives use the 4-point cross stencil and may break the M-matrix
sign structure; the m_matrix flag is read from the assembled stencil
entries: K's diagonal is positive, L's couplings are nonnegative and L's
row sums are <= 0 (the discrete L1 <= 0).

Conventions: the stencil is stored once, as the M-matrix K = -L restricted
to interior nodes, and the boundary coupling B carries the boundary-data
contribution, so

    (Lu)_interior = -K @ u_interior + B @ u_boundary,

and the solvers elsewhere use H f = K^-1 B f, G psi = K^-1 psi.

Storage: assemble keeps the stencil as a table of pieces, one (node
offset, values) pair each: 0 for the diagonal, +-stride[ax] per axis and
+-sx+-sy for the cross stencil, values[r] the weight of row r. K (CSC) and
B (CSR) are filled straight from the table, with no COO triplets: column j
of K holds the rows of the source nodes nodes[j] - offset that are
interior, row r of B the boundary targets nodes[r] + offset. Taken in
order of decreasing (K) or increasing (B) offset, the pieces give each
column's rows, or each row's columns, in ascending order without
duplicates, so indptr is a cumulative count and both matrices come out
canonical.
"""

from __future__ import annotations

import math
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
ZERO_ORDER_MODES = ("c_nonpos", "c_zero")
_INT32_MAX = np.iinfo(np.int32).max


@dataclass(frozen=True)
class EllipticCoefficients:
    """Coefficient fields of L, each in a form Grid.field accepts (a
    scalar, a callable on (n, dim) points, or a node field). A 1D grid
    uses a11, b1 and c only; a 2D grid uses all six.

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
        if self.zero_order_mode not in ZERO_ORDER_MODES:
            raise ValueError(f"unknown zero_order_mode {self.zero_order_mode!r}; "
                             f"expected one of {ZERO_ORDER_MODES}")


def _coefficient_names(dim: int) -> list:
    """The coefficients L uses on a dim-dimensional grid: those whose
    axis digits are all <= dim (a11, b1, c in 1D; all six in 2D)."""
    return [name for name in ("a11", "a22", "a12", "b1", "b2", "c")
            if all(int(ax) <= dim for ax in name[1:])]


def _validate_coefficients(vals: dict, pts: np.ndarray, mode: str, sign_tol: float) -> None:
    """Ellipticity, then c <= sign_tol (|c| <= sign_tol under c_zero)."""
    lam, c = vals["a11"], vals["c"]
    if "a12" in vals:
        # smaller eigenvalue of [[a11,a12],[a12,a22]]
        a11, a22, a12 = vals["a11"], vals["a22"], vals["a12"]
        disc = np.sqrt(((a11 - a22) / 2.0) ** 2 + a12**2)
        lam = (a11 + a22) / 2.0 - disc
    worst = int(np.argmin(lam))
    if lam[worst] <= EPS_ELL:
        raise ValueError(
            f"ellipticity violation: min eigenvalue {lam[worst]:.3e} <= {EPS_ELL:.0e} "
            f"at node {worst} {tuple(pts[worst])}"
        )
    worst = int(np.argmax(c))
    if c[worst] > sign_tol:
        raise ValueError(
            f"positive zero-order coefficient c = {c[worst]:.3e} at node {worst} {tuple(pts[worst])}"
        )
    if mode == "c_zero" and np.max(np.abs(c)) > sign_tol:
        worst = int(np.argmax(np.abs(c)))
        raise ValueError(
            f"zero_order_mode=c_zero but |c| = {abs(c[worst]):.3e} at node {worst}"
        )


@dataclass(frozen=True)
class DiscreteOperator:
    grid: Grid
    B: sp.csr_matrix  # interior x boundary coupling
    m_matrix: bool
    K: sp.csc_matrix  # interior x interior, rows of -L; the M-matrix the solvers factorize
    # (diagonal value, neighbour value per axis) of K when it is the separable constant
    # stencil (constant a_ii and c, no drift, no cross term), entry for entry; else None
    stencil: tuple | None = None


def assemble(grid: Grid, coeffs: EllipticCoefficients) -> DiscreteOperator:
    """Assemble the interior stencil and boundary coupling of L on a grid.

    Raises on coefficient invariant violations (ellipticity, sign of c).
    A broken M-matrix sign structure from cross derivatives is reported
    via m_matrix=False, not an error. The coefficients decide the stencil
    record: set exactly when K is the separable constant stencil.
    """
    dim = grid.dim
    fields = {name: grid.field(getattr(coeffs, name), name=name)
              for name in _coefficient_names(dim)}

    n_int = grid.n_interior
    nodes = grid.interior_nodes
    at = {name: v[nodes] for name, v in fields.items()}
    h = grid.spacing
    a = [at[f"a{ax + 1}{ax + 1}"] for ax in range(dim)]
    b = [at[f"b{ax + 1}"] for ax in range(dim)]
    stride = [math.prod(grid.shape[ax + 1:]) for ax in range(dim)]  # C order

    # the Kronecker sum of the 3-point stencils of the axes. The diagonal
    # adds all -2a/h^2, then c, then all -|b|/h: floating-point addition
    # is not associative, and this order fixes the bits of K.
    diag = sum(-2.0 * a[ax] / h[ax]**2 for ax in range(dim)) + at["c"]
    for ax in range(dim):
        diag -= np.abs(b[ax]) / h[ax]
    # the certificate below allows row sums of L, which are c, up to tol; the sign of c
    # is judged to the same allowance, and never looser than _SIGN_TOL
    tol = _SIGN_TOL * float(np.max(np.abs(diag)))
    _validate_coefficients(fields, grid.nodes, coeffs.zero_order_mode, min(_SIGN_TOL, tol))
    # the stencil table: row r of L couples interior node nodes[r] to node
    # nodes[r] + offset with weight values[r], one (offset, values) entry per piece
    table = [(0, diag)]
    for ax in range(dim):
        table.append((stride[ax], a[ax] / h[ax]**2 + np.maximum(b[ax], 0.0) / h[ax]))
        table.append((-stride[ax], a[ax] / h[ax]**2 - np.minimum(b[ax], 0.0) / h[ax]))
    cross = bool(np.any(at.get("a12", 0.0)))
    if cross:
        # 2*a12 * d2u/dxdy on the 4-point cross stencil
        q = 2.0 * at["a12"] / (4.0 * h[0] * h[1])
        sx, sy = stride
        table += [(sx + sy, q), (-sx - sy, q), (sx - sy, -q), (-sx + sy, -q)]
    # K is the separable constant stencil when only the a_ii and c enter, each constant;
    # its entries are then the negated values below, bit for bit
    separable = not cross and not any(np.any(v) for v in b) and all(
        np.all(v == v[0]) for v in [*a, at["c"]])
    stencil = (-diag[0], tuple(-(a[ax][0] / h[ax]**2) for ax in range(dim))) if separable else None
    # the coefficient fields are dead from here; freed before K and B are filled,
    # they add nothing to the peak memory of a large assembly
    del fields, at, a, b

    # the M-matrix certificate, read from the table (no row targets a node twice):
    # K's diagonal -diag is positive, every other entry of L (the pieces after the
    # diagonal, in K and in B) is nonnegative, and the row sums of L are <= 0 (L1 <= 0);
    # the row sums add the pieces in table order, diagonal first
    m_matrix = bool(
        np.all(diag < 0)
        and np.min([np.min(values) for _, values in table[1:]]) >= -tol
        and np.max(sum(values for _, values in table)) <= tol
    )

    # an interior node's row, a boundary node's column; int32 while it fits, which halves
    # the index temporaries _compressed gathers from it
    pos = np.empty(grid.n_nodes, dtype=np.int32 if grid.n_nodes <= _INT32_MAX else np.int64)
    pos[nodes] = np.arange(n_int)
    pos[grid.boundary_nodes] = np.arange(len(grid.boundary_nodes))
    interior = np.zeros(grid.n_nodes, dtype=bool)
    interior[nodes] = True
    data, indices, indptr = _compressed(table, nodes, pos, interior, transpose=True)
    K = sp.csc_matrix((np.negative(data, out=data), indices, indptr), shape=(n_int, n_int))
    coupling = sp.csr_matrix(_compressed(table, nodes, pos, ~interior, transpose=False),
                             shape=(n_int, len(grid.boundary_nodes)))
    return DiscreteOperator(grid=grid, B=coupling, m_matrix=m_matrix, K=K, stencil=stencil)


def _compressed(table, nodes, pos, wanted, transpose: bool) -> tuple:
    """(data, indices, indptr) of L's entries at the wanted nodes, read from
    the stencil table; slot k of the major axis belongs to interior node
    nodes[k].

    transpose=False (B's CSR): slot k is row k, and piece (offset, values)
    puts values[k] at column pos[nodes[k] + offset] when that node is wanted.
    transpose=True (K's CSC): slot k is column k, and the piece puts
    values[i] at row i = pos[nodes[k] - offset] when that source node is
    wanted. The pieces are taken in increasing order of +offset (CSR) or
    -offset (CSC), so the minor indices of each slot ascend without
    duplicates: the result is canonical. Index arrays are int32 while nnz and
    every dimension fit, as scipy would choose."""
    sign = -1 if transpose else 1
    table = sorted(table, key=lambda piece: sign * piece[0])
    keep = [wanted[nodes + sign * offset] for offset, _ in table]
    counts = np.count_nonzero(keep, axis=0)
    nnz = int(counts.sum())
    index = np.int32 if max(nnz, len(pos)) <= _INT32_MAX else np.int64
    indptr = np.zeros(len(nodes) + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz)
    slot = indptr[:-1].astype(np.intp)  # each slot's next free position
    for k, (offset, values) in zip(keep, table):
        minor = pos[nodes[k] + sign * offset]
        dest = slot[k]
        indices[dest] = minor
        data[dest] = values[minor] if transpose else values[k]
        slot += k
    return data, indices, indptr


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


def rounding_tol(op: DiscreteOperator, s: np.ndarray, tol: float) -> float:
    """tol plus the rounding allowance of a check that compares L s with tol.

    Entries of L grow like 1/h^2, so on a fine grid rounding alone moves L s
    past a fixed tol. The allowance is Higham's bound gamma_n sum_j |L_ij| |s_j|
    on the rounding of one row's sum of products (Accuracy and Stability of
    Numerical Algorithms, 2002, sec. 3), with gamma_n <= n eps for the
    n = 3**dim + 2 roundings (the stencil's products, the join of K's and B's
    parts, s's own values), and sum_j |L_ij| <= 2.5 max(diag K): a row's
    couplings add up to at most its diagonal, plus half of it for a cross
    stencil, whose weight ellipticity bounds."""
    n = 3**op.grid.dim + 2
    scale = float(np.max(op.K.diagonal()))
    return tol + n * np.finfo(float).eps * 2.5 * scale * float(np.max(np.abs(s)))


def check_superharmonic(op: DiscreteOperator, s, tol: float = 1e-9) -> SuperharmonicReport:
    """Check Ls <= tol + n eps * 2.5 max(diag K) * max|s| at interior nodes
    (discrete superharmonicity of s >= 0): tol plus rounding_tol's bound on
    the rounding of one row of Ls, which grows like max|s| / h^2."""
    s = op.grid.field(s, name="s")
    vals = apply(op, s)
    worst = int(np.argmax(vals))
    mx = float(vals[worst])
    return SuperharmonicReport(
        passed=bool(mx <= rounding_tol(op, s, tol)),
        max_residual=mx,
        worst_node=int(op.grid.interior_nodes[worst]),
    )
