"""Rectilinear grids with interior/boundary classification and nested
exhaustion sequences.

Grids are axis-aligned boxes sampled on a uniform lattice. The lattice
code is written per axis, so the dimension is a loop bound; boxes of
dimension 1 and 2 are accepted. A node is a boundary node iff it lies
on a box face; everything else is interior.
Unbounded domains (the upper half-plane) are represented by growing box
truncations kept a fixed offset ``delta`` above the axis.

Grid owns the lattice: its docstring states the one point-to-node
lookup and the one interior/boundary join that the package uses.

All objects here are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "Exhaustion",
    "build_box_grid",
    "build_halfplane_truncation",
    "build_exhaustion",
    "restrict",
]

_COMMENSURATE_RTOL = 1e-9
DIMS = (1, 2)  # the box dimensions build_box_grid accepts


@dataclass(frozen=True)
class Grid:
    """Uniform lattice over a closed box.

    Attributes
    ----------
    dim : int, len(shape) (a property).
    n_nodes, n_interior : node counts (properties).
    bbox : tuple of (lo, hi) pairs, one per axis.
    spacing : tuple of floats, one per axis.
    shape : tuple of node counts, one per axis.
    nodes : (n_nodes, dim) array of node positions in C order over the
        axis index tuples: the last axis (y in 2D) varies fastest.
    boundary_nodes : (n_boundary,) sorted int array of the node indices
        on a box face.
    interior_nodes : (n_interior,) sorted int array of the other node
        indices.

    A point p has the lattice coordinate (p - lo) / h on each axis.
    index_of maps one point, or an (n, dim) array of points, to node
    indices: the one point-to-node lookup, also of the nesting check of
    build_exhaustion, of restrict and of the nodes that exhaustion
    stages share. field reads the interior or boundary part of a node
    field; join writes a full node field from the two parts.
    """

    bbox: tuple
    spacing: tuple
    shape: tuple
    nodes: np.ndarray = field(repr=False)
    boundary_nodes: np.ndarray = field(repr=False)
    interior_nodes: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_interior(self) -> int:
        return self.interior_nodes.shape[0]

    def _nearest_node(self, pts: np.ndarray) -> tuple:
        """(k, near) for an (n, dim) point array, both (dim, n): the lattice
        coordinates k = (p - lo) / h and the nearest node's axis indices,
        k rounded and clipped to the grid (as floats)."""
        if pts.shape[1:] != (self.dim,):
            raise ValueError(f"points have wrong dimension {pts.shape[1:]}, grid dim {self.dim}")
        # axis-major rows: numpy loops over n, not over an axis of length dim
        k = np.array([(pts[:, ax] - self.bbox[ax][0]) / self.spacing[ax] for ax in range(self.dim)])
        return k, np.clip(np.rint(k), 0, np.array(self.shape)[:, None] - 1)

    def index_of(self, points):
        """Node index of a lattice point, or the index array of an (n, dim)
        array of points. A point is a node when each lattice coordinate is
        within 1e-6 of a node's; raises ValueError naming the first point
        that is not."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim < 2
        if single:
            pts = pts.reshape(1, -1)
        k, near = self._nearest_node(pts)
        off = ~np.all(np.abs(k - near) <= 1e-6, axis=0)
        if np.any(off):
            p = tuple(pts[np.argmax(off)].tolist())
            raise ValueError(f"point {p} is not a lattice node of this grid")
        idx = np.ravel_multi_index(tuple(near.astype(np.intp)), self.shape)
        return int(idx[0]) if single else idx

    def field(self, value, on: str = "nodes", name: str = "field") -> np.ndarray:
        """The one node-field format: values of `value` on the nodes `on`
        ("nodes", "interior" or "boundary"), as a float array in grid order.

        value may be a scalar, a callable on an (n, dim) point array
        (evaluated on all nodes), a full node field, or an array already
        of the length of `on`. Raises ValueError naming `name` on a wrong
        shape or a non-finite value.
        """
        index = {"nodes": None, "interior": self.interior_nodes,
                 "boundary": self.boundary_nodes}[on]
        n = self.n_nodes if index is None else len(index)
        if callable(value):
            value = value(self.nodes)
        vals = np.asarray(value, dtype=float)
        if vals.ndim == 0:
            vals = np.full(n, float(vals))
        elif index is not None and vals.shape == (self.n_nodes,):
            vals = vals[index]
        if vals.shape != (n,):
            also = "" if index is None else f" or {n} {on} values"
            raise ValueError(f"{name} must be a scalar, a callable or a full node field "
                             f"of {self.n_nodes} values{also}; got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{name} must be finite")
        return vals

    def join(self, interior, boundary=0.0) -> np.ndarray:
        """The full node field with values `interior` on interior_nodes and
        `boundary` on boundary_nodes (each a scalar or an array aligned with
        those indices): the inverse of field(on="interior"/"boundary")."""
        out = np.empty(self.n_nodes)
        out[self.boundary_nodes] = boundary
        out[self.interior_nodes] = interior
        return out


@dataclass(frozen=True)
class Exhaustion:
    """Nested grids D_0 subset D_1 subset ... sharing an anchor point."""

    stages: tuple
    anchor: tuple


def _axis_count(lo: float, hi: float, h: float) -> int:
    """Number of intervals along one axis; errors if h is not commensurate."""
    lo, hi, h = float(lo), float(hi), float(h)  # Python floats overflow to inf silently
    length = hi - lo
    if not (length > 0):
        raise ValueError(f"degenerate box axis [{lo}, {hi}]")
    if not (h > 0):
        raise ValueError(f"spacing must be positive, got {h}")
    n = length / h
    if not np.isfinite(n):
        raise ValueError(f"spacing {h} gives a non-finite number of cells on axis [{lo}, {hi}]")
    ni = round(n)
    if ni < 2 or abs(n - ni) > _COMMENSURATE_RTOL * max(1.0, n):
        raise ValueError(
            f"spacing {h} does not divide axis [{lo}, {hi}] "
            f"(needs an integer number >= 2 of cells, got {n})"
        )
    return int(ni)


def build_box_grid(bbox, spacing) -> Grid:
    """Build a uniform grid over a box.

    Parameters
    ----------
    bbox : (lo, hi) for 1D, or ((xlo, xhi), (ylo, yhi)) for 2D.
    spacing : positive float, or per-axis tuple.

    Returns
    -------
    Grid with boundary nodes exactly on the box faces.
    """
    box = np.asarray(bbox, dtype=float)
    if box.ndim == 1:
        box = box[None, :]
    if box.ndim != 2 or box.shape[1] != 2 or box.shape[0] not in DIMS:
        raise ValueError(f"bbox must be (lo,hi) or ((lo,hi),(lo,hi)), got {bbox!r}")
    dim = box.shape[0]
    hs = np.broadcast_to(np.asarray(spacing, dtype=float), (dim,))

    counts = [_axis_count(box[ax, 0], box[ax, 1], hs[ax]) for ax in range(dim)]
    shape = tuple(c + 1 for c in counts)
    axes = [box[ax, 0] + hs[ax] * np.arange(shape[ax]) for ax in range(dim)]
    # snap the last node onto the box face to kill accumulation error
    for ax in range(dim):
        axes[ax][-1] = box[ax, 1]

    nodes = np.column_stack([c.ravel() for c in np.meshgrid(*axes, indexing="ij")])
    on_face = np.zeros(shape, dtype=bool)
    for ax in range(dim):
        np.moveaxis(on_face, ax, 0)[[0, -1]] = True  # the two faces normal to axis ax
    return Grid(
        bbox=tuple((float(a), float(b)) for a, b in box),
        spacing=tuple(float(h) for h in hs),
        shape=shape,
        nodes=nodes,
        boundary_nodes=np.flatnonzero(on_face),
        interior_nodes=np.flatnonzero(~on_face),
    )


def build_halfplane_truncation(radius: float, delta: float, spacing) -> Grid:
    """Box truncation [-R, R] x [delta, delta + 2R] of the upper half-plane.

    The strip 0 < y < delta stays outside every truncation; delta defaults
    to one spacing unit at call sites.
    """
    if not (radius > 0 and delta > 0):
        raise ValueError("radius and delta must be positive")
    return build_box_grid(((-radius, radius), (delta, delta + 2.0 * radius)), spacing)


def build_exhaustion(
    base_bbox,
    n_stages: int,
    *,
    spacing,
    anchor=None,
    halfplane: bool = False,
    delta: float | None = None,
) -> Exhaustion:
    """Build nested grids whose box doubles per stage on one spacing: the
    dyadic shells of Wiener's test at infinity.

    Parameters
    ----------
    base_bbox : box of stage 0 (for halfplane mode: the scalar radius R_0);
        stage n scales it by 2**n.
    n_stages : >= 2.
    spacing : spacing of every stage.
    anchor : point that must be a lattice node of stage 0. Defaults to the
        box center (halfplane mode: one spacing unit above the bottom
        face midpoint).
    halfplane : grow upper half-plane truncations instead of centered boxes.
    delta : half-plane bottom offset; defaults to the spacing.
    """
    if n_stages < 2:
        raise ValueError(f"n_stages must be >= 2, got {n_stages}")

    stages = []
    for n in range(n_stages):
        scale = 2.0**n
        if halfplane:
            r0 = float(np.asarray(base_bbox).ravel()[0])
            d = spacing if delta is None else delta
            g = build_halfplane_truncation(r0 * scale, d, spacing)
        else:
            g = build_box_grid(np.asarray(base_bbox, dtype=float) * scale, spacing)
        stages.append(g)

    for inner, outer in zip(stages, stages[1:]):
        outer.index_of(inner.nodes)  # raises unless every inner node is an outer node

    g0 = stages[0]
    if anchor is None:
        if halfplane:
            anchor = (0.0, g0.bbox[1][0] + g0.spacing[1])
        else:
            anchor = tuple((lo + hi) / 2.0 for lo, hi in g0.bbox)
    anchor = tuple(float(v) for v in np.atleast_1d(anchor))
    g0.index_of(anchor)  # raises unless a node of stage 0, so of every nested stage
    return Exhaustion(stages=tuple(stages), anchor=anchor)


def restrict(values: np.ndarray, frm: Grid, to: Grid) -> np.ndarray:
    """Copy a node field from a finer/larger grid onto a nested coarser one.

    Exact value copy at shared nodes, no interpolation.
    """
    values = np.asarray(values)
    if values.shape[0] != frm.n_nodes:
        raise ValueError(
            f"field has {values.shape[0]} values, grid has {frm.n_nodes} nodes"
        )
    return values[frm.index_of(to.nodes)]
