import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semigreen.geometry import (
    build_box_grid,
    build_exhaustion,
    build_halfplane_truncation,
    restrict,
)


class TestBuildBoxGrid:
    def test_1d_quarters(self):
        g = build_box_grid((0.0, 1.0), 0.25)
        assert g.dim == 1
        assert g.shape == (5,)
        interior = g.nodes[g.interior_nodes, 0]
        np.testing.assert_allclose(interior, [0.25, 0.5, 0.75])
        np.testing.assert_allclose(g.nodes[g.boundary_nodes, 0], [0.0, 1.0])

    def test_2d_single_interior(self):
        g = build_box_grid(((0, 1), (0, 1)), 0.5)
        assert g.n_interior == 1
        assert len(g.boundary_nodes) == 8
        np.testing.assert_allclose(g.nodes[g.interior_nodes[0]], [0.5, 0.5])

    def test_incommensurate_spacing_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            build_box_grid((0.0, 1.0), 0.3)

    def test_single_cell_axis_rejected(self):
        # every grid has at least one interior node
        with pytest.raises(ValueError, match=">= 2"):
            build_box_grid((0.0, 1.0), 1.0)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_box_grid((1.0, 1.0), 0.25)

    @pytest.mark.parametrize("spacing", [0.0, -0.25])
    def test_nonpositive_spacing_rejected(self, spacing):
        with pytest.raises(ValueError, match=f"spacing must be positive, got {spacing}"):
            build_box_grid((0.0, 1.0), spacing)

    def test_three_axis_box_rejected(self):
        with pytest.raises(ValueError, match="bbox must be"):
            build_box_grid(((0, 1), (0, 1), (0, 1)), 0.5)

    @pytest.mark.parametrize("radius, delta", [(0.0, 0.25), (-1.0, 0.25), (1.0, 0.0)])
    def test_halfplane_truncation_needs_positive_sizes(self, radius, delta):
        with pytest.raises(ValueError, match="radius and delta must be positive"):
            build_halfplane_truncation(radius, delta, 0.25)

    def test_boundary_interior_disjoint(self):
        g = build_box_grid(((0, 2), (0, 1)), 0.25)
        assert not np.intersect1d(g.boundary_nodes, g.interior_nodes).size
        assert len(g.boundary_nodes) + g.n_interior == g.n_nodes

    @given(
        n=st.integers(min_value=2, max_value=40),
        lo=st.floats(min_value=-5, max_value=5),
        length=st.floats(min_value=0.1, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_1d_node_counts(self, n, lo, length):
        h = length / n
        g = build_box_grid((lo, lo + length), h)
        assert g.n_nodes == n + 1
        assert g.n_interior == n - 1
        # every interior node's lattice neighbors are grid nodes
        assert np.all(np.diff(g.nodes[:, 0]) > 0)

    def test_neighbors_resolve_2d(self):
        g = build_box_grid(((0, 1), (0, 1)), 0.25)
        nx, ny = g.shape
        for k in g.interior_nodes:
            i, j = divmod(k, ny)
            for ii, jj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                assert 0 <= ii < nx and 0 <= jj < ny

    def test_nodes_in_c_order(self):
        # the last axis varies fastest
        g = build_box_grid(((0, 1), (0, 2)), 0.5)
        np.testing.assert_array_equal(g.nodes[:3], [[0, 0], [0, 0.5], [0, 1]])
        np.testing.assert_array_equal(g.nodes[5], [0.5, 0])


class TestIndexOf:
    @pytest.mark.parametrize("bbox, h", [((-1.0, 2.0), 0.25),
                                         (((0, 1), (-1, 2)), (0.25, 0.5))])
    def test_every_node_finds_itself(self, bbox, h):
        g = build_box_grid(bbox, h)
        assert [g.index_of(p) for p in g.nodes] == list(range(g.n_nodes))
        assert all(isinstance(g.index_of(p), int) for p in g.nodes[:3])
        # one lookup of the whole node array
        np.testing.assert_array_equal(g.index_of(g.nodes), np.arange(g.n_nodes))

    @pytest.mark.parametrize("point", [(0.1, 0.0), (0.0, 2.5), (-0.25, 0.0)])
    def test_point_off_the_lattice_rejected(self, point):
        g = build_box_grid(((0, 1), (-1, 2)), (0.25, 0.5))
        with pytest.raises(ValueError, match="lattice node"):
            g.index_of(point)
        # in an array of nodes, the error names the one point off the lattice
        pts = np.vstack([g.nodes[:5], [point], g.nodes[5:]])
        with pytest.raises(ValueError, match=rf"point \({point[0]}, {point[1]}\) is not a lattice node"):
            g.index_of(pts)

    @pytest.mark.parametrize("points", [(0.5, 0.5), np.zeros((3, 2)), np.zeros((2, 1, 1))])
    def test_wrong_dimension_rejected(self, points):
        g = build_box_grid((0.0, 1.0), 0.25)
        with pytest.raises(ValueError, match="wrong dimension"):
            g.index_of(points)


class TestExhaustion:
    def test_boxes_grow_geometrically(self):
        # each stage doubles the box on the stage-0 spacing
        exh = build_exhaustion(((-1, 1), (-1, 1)), 3, spacing=0.5)
        boxes = [g.bbox for g in exh.stages]
        assert boxes[0] == ((-1, 1), (-1, 1))
        assert boxes[1] == ((-2, 2), (-2, 2))
        assert boxes[2] == ((-4, 4), (-4, 4))
        assert [g.spacing for g in exh.stages] == [(0.5, 0.5)] * 3
        assert [g.shape for g in exh.stages] == [(5, 5), (9, 9), (17, 17)]

    def test_halfplane_mode_boxes(self):
        exh = build_exhaustion(4.0, 3, spacing=0.25, halfplane=True)
        assert exh.stages[0].bbox == ((-4.0, 4.0), (0.25, 8.25))
        assert exh.stages[1].bbox == ((-8.0, 8.0), (0.25, 16.25))
        assert exh.stages[2].bbox == ((-16.0, 16.0), (0.25, 32.25))
        # default anchor one spacing above the bottom face midpoint
        assert exh.anchor == (0.0, 0.5)

    @pytest.mark.parametrize("n_stages", [1, 0], ids=["one_stage", "no_stage"])
    def test_bad_stage_plan_rejected(self, n_stages):
        with pytest.raises(ValueError, match=f"n_stages must be >= 2, got {n_stages}"):
            build_exhaustion(((-1, 1), (-1, 1)), n_stages, spacing=0.5)

    def test_interior_counts_increase(self):
        exh = build_exhaustion(((-1, 1), (-1, 1)), 4, spacing=0.25)
        counts = [g.n_interior for g in exh.stages]
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_misaligned_stage_lattices_rejected(self):
        # stage 1 spans [-1.2, 0.8]: stage 0's node -0.6 sits 2.4 cells into it
        with pytest.raises(ValueError, match=r"point \(-0.6,\) is not a lattice node"):
            build_exhaustion((-0.6, 0.4), 2, spacing=0.25)

    def test_stage_box_not_containing_the_previous_rejected(self):
        # stage 1 spans [2, 4] and misses stage 0's nodes below 2
        with pytest.raises(ValueError, match=r"point \(1.0,\) is not a lattice node"):
            build_exhaustion((1.0, 2.0), 2, spacing=0.25)

    def test_anchor_must_be_shared_node(self):
        with pytest.raises(ValueError, match="lattice node"):
            build_exhaustion(((-1, 1), (-1, 1)), 2, spacing=0.5, anchor=(0.3, 0.0))


class TestRestrict:
    def test_constant_restricts_to_constant(self):
        exh = build_exhaustion(((-1, 1), (-1, 1)), 2, spacing=0.5)
        big, small = exh.stages[1], exh.stages[0]
        out = restrict(np.full(big.n_nodes, 3.0), big, small)
        np.testing.assert_array_equal(out, 3.0)

    def test_coordinate_field_exact(self):
        exh = build_exhaustion(((-2, 2), (-2, 2)), 2, spacing=0.25)
        big, small = exh.stages[1], exh.stages[0]
        out = restrict(big.nodes[:, 0].copy(), big, small)
        # bit-identical, not merely close
        np.testing.assert_array_equal(out, small.nodes[:, 0])

    def test_field_of_another_length_rejected(self):
        exh = build_exhaustion(((-1, 1), (-1, 1)), 2, spacing=0.5)
        big, small = exh.stages[1], exh.stages[0]
        with pytest.raises(ValueError, match="field has 25 values, grid has 81 nodes"):
            restrict(np.zeros(small.n_nodes), big, small)

    def test_mismatched_grids_rejected(self):
        a = build_box_grid((0.0, 1.0), 0.25)
        b = build_box_grid((0.0, 1.0), 0.2)
        with pytest.raises(ValueError):
            restrict(np.zeros(b.n_nodes), b, a)

    def test_halfplane_shared_nodes_exact(self):
        exh = build_exhaustion(2.0, 3, spacing=0.25, halfplane=True)
        f = exh.stages[2].nodes[:, 1] ** 2
        mid = restrict(f, exh.stages[2], exh.stages[1])
        small = restrict(mid, exh.stages[1], exh.stages[0])
        np.testing.assert_array_equal(small, exh.stages[0].nodes[:, 1] ** 2)


def test_halfplane_truncation_finest_shape():
    g = build_halfplane_truncation(32.0, 0.25, 0.25)
    assert g.shape == (257, 257)


GRIDS = {
    "1d": lambda: build_box_grid((0.0, 1.0), 0.125),
    "2d": lambda: build_box_grid(((0.0, 2.0), (0.0, 1.0)), 0.25),
}


def _on_points(pts):
    return 1.0 + pts[:, 0] ** 2 + pts[:, -1]


def _node_values(grid):
    return _on_points(grid.nodes)


def _slice(grid, on):
    return {"nodes": np.arange(grid.n_nodes), "interior": grid.interior_nodes,
            "boundary": grid.boundary_nodes}[on]


class TestGridField:
    @pytest.mark.parametrize("dim", sorted(GRIDS))
    @pytest.mark.parametrize("on", ["nodes", "interior", "boundary"])
    @pytest.mark.parametrize("form", ["scalar", "callable", "full", "restricted"])
    def test_every_form_matches_the_explicit_slice(self, dim, on, form):
        grid = GRIDS[dim]()
        full = _node_values(grid)
        expected = full[_slice(grid, on)]
        value = {
            "scalar": 2.5,
            "callable": _on_points,
            "full": full,
            "restricted": expected.copy(),
        }[form]
        if form == "scalar":
            expected = np.full(expected.shape, 2.5)
        out = grid.field(value, on=on, name="probe")
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("dim", sorted(GRIDS))
    @pytest.mark.parametrize("on", ["nodes", "interior", "boundary"])
    def test_wrong_length_names_the_field(self, dim, on):
        grid = GRIDS[dim]()
        with pytest.raises(ValueError, match="probe must be"):
            grid.field(np.ones(grid.n_nodes + 1), on=on, name="probe")
        with pytest.raises(ValueError, match="probe must be"):
            grid.field(lambda pts: np.ones(3), on=on, name="probe")

    @pytest.mark.parametrize("on", ["nodes", "interior", "boundary"])
    def test_nan_rejected(self, on):
        grid = GRIDS["2d"]()
        with pytest.raises(ValueError, match="probe must be finite"):
            grid.field(np.nan, on=on, name="probe")
        bad = _node_values(grid)
        bad[_slice(grid, on)[0]] = np.inf
        with pytest.raises(ValueError, match="finite"):
            grid.field(bad, on=on, name="probe")

    def test_restriction_ignores_values_off_the_target(self):
        # a full field is sliced before the finiteness check
        grid = GRIDS["1d"]()
        full = _node_values(grid)
        full[grid.interior_nodes] = np.nan
        np.testing.assert_array_equal(grid.field(full, on="boundary"),
                                      _node_values(grid)[grid.boundary_nodes])


class TestGridJoin:
    @pytest.mark.parametrize("dim", sorted(GRIDS))
    def test_join_inverts_the_interior_and_boundary_parts(self, dim):
        grid = GRIDS[dim]()
        full = _node_values(grid)
        out = grid.join(grid.field(full, on="interior"), grid.field(full, on="boundary"))
        np.testing.assert_array_equal(out, full)

    @pytest.mark.parametrize("dim", sorted(GRIDS))
    def test_boundary_defaults_to_zero(self, dim):
        grid = GRIDS[dim]()
        out = grid.join(np.arange(grid.n_interior, dtype=float))
        np.testing.assert_array_equal(out[grid.boundary_nodes], 0.0)
        np.testing.assert_array_equal(out[grid.interior_nodes], np.arange(grid.n_interior))
