import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semigreen.geometry import build_box_grid, build_halfplane_truncation
from semigreen.operator import (EllipticCoefficients, apply, apply_K, assemble,
                                check_superharmonic, rounding_tol)


def interval_op(h=0.25, **kw):
    grid = build_box_grid((0.0, 1.0), h)
    return grid, assemble(grid, EllipticCoefficients(**kw))


class TestAssemble1D:
    def test_three_point_stencil(self):
        grid, op = interval_op(h=0.25, zero_order_mode="c_zero")
        m = (-op.K).toarray()
        # interior nodes x = 0.25, 0.5, 0.75; stencil (1, -2, 1)/h^2
        assert m[1, 0] == pytest.approx(16.0)
        assert m[1, 1] == pytest.approx(-32.0)
        assert m[1, 2] == pytest.approx(16.0)
        ones = np.ones(grid.n_nodes)
        assert np.max(np.abs(apply(op, ones))) == 0.0

    def test_zero_order_on_constants(self):
        grid, op = interval_op(c=-1.0)
        np.testing.assert_allclose(apply(op, np.ones(grid.n_nodes)), -1.0)
        np.testing.assert_allclose(apply(op, 3.0 * np.ones(grid.n_nodes)), -3.0)

    def test_affine_in_kernel(self):
        grid, op = interval_op(h=1 / 16, zero_order_mode="c_zero")
        u = 2.0 * grid.nodes[:, 0] + 3.0
        assert np.max(np.abs(apply(op, u))) <= 1e-12

    def test_quadratic_exact(self):
        grid, op = interval_op(h=1 / 16, zero_order_mode="c_zero")
        u = grid.nodes[:, 0] ** 2
        np.testing.assert_allclose(apply(op, u), 2.0, atol=1e-10)

    def test_upwind_direction(self):
        # b > 0 puts the drift weight on the right neighbor
        grid, op = interval_op(h=0.25, b1=2.0, zero_order_mode="c_zero")
        m = (-op.K).toarray()
        assert m[1, 2] == pytest.approx(16.0 + 2.0 / 0.25)
        assert m[1, 0] == pytest.approx(16.0)
        # drift is exact on affine fields regardless of direction
        u = grid.nodes[:, 0]
        np.testing.assert_allclose(apply(op, u), 2.0, atol=1e-12)

    def test_variable_coefficient_sampling(self):
        grid = build_box_grid((0.0, 1.0), 1 / 32)
        co = EllipticCoefficients(a11=lambda p: 1.0 + 0.5 * p[:, 0],
                                  zero_order_mode="c_zero")
        op = assemble(grid, co)
        u = grid.nodes[:, 0] ** 2
        x = grid.nodes[grid.interior_nodes, 0]
        np.testing.assert_allclose(apply(op, u), 2.0 * (1.0 + 0.5 * x), atol=1e-9)


class TestAssemble2D:
    def test_five_point_and_upwind_row_sums(self):
        grid = build_box_grid(((0.0, 2.0), (0.0, 2.0)), 0.5)
        op = assemble(grid, EllipticCoefficients(b1=1.0, zero_order_mode="c_zero"))
        assert op.m_matrix
        ones_i = np.ones(grid.n_interior)
        ones_b = np.ones(grid.n_nodes - grid.n_interior)
        rowsums = -(-op.K @ ones_i + op.B @ ones_b)
        assert np.min(rowsums) >= -1e-12

    def test_harmonic_quadratic(self):
        grid = build_box_grid(((0.0, 1.0), (0.0, 1.0)), 1 / 8)
        op = assemble(grid, EllipticCoefficients(zero_order_mode="c_zero"))
        u = grid.nodes[:, 0] ** 2 - grid.nodes[:, 1] ** 2
        assert np.max(np.abs(apply(op, u))) <= 1e-10

    def test_mixed_term_on_bilinear(self):
        grid = build_box_grid(((0.0, 1.0), (0.0, 1.0)), 1 / 8)
        op = assemble(grid, EllipticCoefficients(a12=0.25, zero_order_mode="c_zero"))
        assert not op.m_matrix  # cross stencil breaks the sign certificate
        u = grid.nodes[:, 0] * grid.nodes[:, 1]
        np.testing.assert_allclose(apply(op, u), 0.5, atol=1e-10)

    def test_consistency_order(self):
        errs = []
        for h in (1 / 16, 1 / 32):
            grid = build_box_grid((0.0, 1.0), h)
            op = assemble(grid, EllipticCoefficients(zero_order_mode="c_zero"))
            u = np.sin(np.pi * grid.nodes[:, 0])
            x = grid.nodes[grid.interior_nodes, 0]
            errs.append(np.max(np.abs(apply(op, u) + np.pi**2 * np.sin(np.pi * x))))
        assert 3.5 <= errs[0] / errs[1] <= 4.5


def reference_stencil(grid, coeffs):
    """Dense K and B of L, built one interior node at a time from the
    documented formulas: central second differences, upwind drift (toward
    the neighbour on the side of sign(b_i)), c on the diagonal and, in 2D,
    2 a12 d_x d_y on the 4-point cross stencil. Neighbours are found by
    their lattice coordinates, not by the grid's node order."""
    lo = np.array([a for a, _ in grid.bbox])
    h = np.array(grid.spacing)
    lattice = np.rint((grid.nodes - lo) / h).astype(int)
    node_at = {tuple(k): n for n, k in enumerate(lattice)}
    column = {n: ("K", k) for k, n in enumerate(grid.interior_nodes)}
    column.update({n: ("B", k) for k, n in enumerate(grid.boundary_nodes)})
    val = lambda name: grid.field(getattr(coeffs, name))  # noqa: E731
    K = np.zeros((grid.n_interior, grid.n_interior))
    B = np.zeros((grid.n_interior, len(grid.boundary_nodes)))
    for row, n in enumerate(grid.interior_nodes):
        center = np.zeros(grid.dim, dtype=int)
        weights = [(center, val("c")[n])]  # (lattice offset, weight in Lu)
        for ax in range(grid.dim):
            a, b = val(f"a{ax + 1}{ax + 1}")[n], val(f"b{ax + 1}")[n]
            e = np.eye(grid.dim, dtype=int)[ax]
            weights += [(e, a / h[ax] ** 2 + max(b, 0.0) / h[ax]),
                        (-e, a / h[ax] ** 2 - min(b, 0.0) / h[ax]),
                        (center, -2.0 * a / h[ax] ** 2 - abs(b) / h[ax])]
        if grid.dim == 2:
            q = 2.0 * val("a12")[n] / (4.0 * h[0] * h[1])
            weights += [((1, 1), q), ((-1, -1), q), ((1, -1), -q), ((-1, 1), -q)]
        for offset, w in weights:
            which, k = column[node_at[tuple(lattice[n] + offset)]]
            if which == "K":
                K[row, k] -= w
            else:
                B[row, k] += w
    return K, B


def dense_certificate(K, B):
    """The M-matrix certificate of dense K and B with tol = 1e-12 max|diag K|:
    K's diagonal is > 0, K's off-diagonal entries are <= tol, B is >= -tol
    and the row sums of -L (K's minus B's) are >= -tol."""
    d = np.diag(K)
    tol = 1e-12 * np.max(np.abs(d))
    return bool(np.all(d > 0) and np.all(K - np.diag(d) <= tol) and np.all(B >= -tol)
                and np.all(K.sum(axis=1) - B.sum(axis=1) >= -tol))


# operators no shipped config uses: variable a_ii, drift of both signs, c < 0 and a cross term
REFERENCE_CASES = {
    "1d": ((-1.0, 2.0), 0.125, EllipticCoefficients(
        a11=lambda p: 1.0 + 0.5 * np.sin(3.0 * p[:, 0]),
        b1=lambda p: 3.0 * np.cos(2.0 * p[:, 0]),
        c=lambda p: -1.0 - p[:, 0] ** 2)),
    "2d": (((0.0, 1.0), (-1.0, 1.0)), (0.125, 0.25), EllipticCoefficients(
        a11=lambda p: 1.0 + 0.3 * p[:, 0] * p[:, 1],
        a22=lambda p: 2.0 + np.cos(p[:, 0]),
        b1=lambda p: 4.0 * np.sin(5.0 * p[:, 1]),
        b2=lambda p: p[:, 0] - 0.5,
        c=lambda p: -0.7 * (1.0 + p[:, 1] ** 2))),
    "2d_cross": (((0.0, 1.0), (0.0, 1.5)), 0.125, EllipticCoefficients(
        a11=lambda p: 1.5 + p[:, 0], a22=1.2,
        a12=lambda p: 0.3 * np.sin(4.0 * p[:, 1]),
        b1=-0.8, b2=lambda p: 2.0 * p[:, 1] - 1.0, c=-0.25)),
}


class TestAssembleAgainstReference:
    """assemble against reference_stencil and dense_certificate."""

    @pytest.mark.parametrize("bbox, h, coeffs", REFERENCE_CASES.values(), ids=REFERENCE_CASES)
    def test_matches_the_per_node_stencil(self, bbox, h, coeffs):
        grid = build_box_grid(bbox, h)
        op = assemble(grid, coeffs)
        K, B = reference_stencil(grid, coeffs)
        np.testing.assert_allclose(op.K.toarray(), K, rtol=1e-14, atol=0)
        np.testing.assert_allclose(op.B.toarray(), B, rtol=1e-14, atol=0)
        inner = grid.interior_nodes
        b = np.concatenate([grid.field(getattr(coeffs, f"b{ax + 1}"))[inner]
                            for ax in range(grid.dim)])
        assert b.min() < 0.0 < b.max() and grid.field(coeffs.c)[inner].max() < 0.0

    @pytest.mark.parametrize("bbox, h, coeffs, certified", [
        (*REFERENCE_CASES["1d"], True),
        (*REFERENCE_CASES["2d"], True),
        (*REFERENCE_CASES["2d_cross"], False),
        # the cross stencil puts +q and -q off the diagonal, q = a12 / (2 h_x h_y),
        # so any |q| above the 1e-12 relative tolerance breaks the certificate
        (((0.0, 1.0), (0.0, 1.0)), 0.125, EllipticCoefficients(a12=1e-14), True),
        (((0.0, 1.0), (0.0, 1.0)), 0.125, EllipticCoefficients(a12=1e-9), False),
    ], ids=["1d", "2d", "2d_cross", "a12=1e-14", "a12=1e-9"])
    def test_m_matrix_matches_the_dense_certificate(self, bbox, h, coeffs, certified):
        grid = build_box_grid(bbox, h)
        assert dense_certificate(*reference_stencil(grid, coeffs)) is certified
        assert assemble(grid, coeffs).m_matrix is certified


class TestLayoutOfK:
    """splu and newton's in-place Jacobian diagonal (setdiag) rely on K
    being canonical CSC with one stored entry per diagonal position."""

    @pytest.mark.parametrize("bbox, h, coeffs", [
        ((0.0, 1.0), 0.125, EllipticCoefficients()),
        (((0.0, 1.0), (0.0, 2.0)), (0.125, 0.25), EllipticCoefficients(c=-1.0)),
        (((0.0, 1.0), (0.0, 1.0)), 0.125, EllipticCoefficients(b1=0.7, b2=-0.3)),
        (((0.0, 1.0), (0.0, 1.0)), 0.125, EllipticCoefficients(a12=0.2)),
        (((0.0, 1.0), (0.0, 1.0)), 0.125,
         EllipticCoefficients(a11=lambda p: 1.0 + p[:, 0], c=lambda p: -p[:, 1])),
    ], ids=["1d", "2d", "drift", "cross_term", "variable"])
    def test_canonical_csc_with_each_diagonal_entry_once(self, bbox, h, coeffs):
        K = assemble(build_box_grid(bbox, h), coeffs).K
        assert K.format == "csc" and K.has_canonical_format
        on_diagonal = K.indices == np.repeat(np.arange(K.shape[1]), np.diff(K.indptr))
        assert np.count_nonzero(on_diagonal) == K.shape[0]


class TestSeparableK:
    """A separable operator keeps only its stencil record: K is built on
    request and cached, and apply_K applies it from the record, bit for bit
    the CSC matvec of that K. Any other operator holds the K assemble built,
    which its LU needs."""

    CASES = {
        "1d": ((0.0, 1.0), 1 / 16, EllipticCoefficients()),
        "2d": (((0.0, 1.0), (0.0, 1.0)), 1 / 16, EllipticCoefficients(zero_order_mode="c_zero")),
        "anisotropic": (((0.0, 1.0), (0.0, 2.0)), (1 / 8, 1 / 32),
                        EllipticCoefficients(a11=0.3, a22=7.0)),
        "c<0": (((0.0, 1.0), (0.0, 1.5)), 1 / 16, EllipticCoefficients(c=-2.5)),
    }

    @staticmethod
    def fields(n):
        """Interior fields with +-0.0, subnormals and magnitudes from 1e-300 to 1e300."""
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        x[::5], x[1::5], x[2::7], x[3::7] = 0.0, -0.0, 5e-324, -1e-310
        smooth = np.sin(np.arange(n) / 7.0)
        return [x, -x, smooth, np.ones(n), np.zeros(n), np.full(n, -0.0)]

    @pytest.mark.parametrize("bbox, h, coeffs", CASES.values(), ids=CASES)
    def test_apply_K_has_the_bits_of_the_csc_matvec(self, bbox, h, coeffs):
        op = assemble(build_box_grid(bbox, h), coeffs)
        assert op.stencil is not None
        for x in self.fields(op.grid.n_interior):
            assert np.array_equal(apply_K(op, x).view(np.int64), (op.K @ x).view(np.int64))

    @pytest.mark.parametrize("bbox, h, coeffs", CASES.values(), ids=CASES)
    def test_K_is_built_on_request_and_kept(self, bbox, h, coeffs):
        op = assemble(build_box_grid(bbox, h), coeffs)
        assert op._K is None and "K" not in vars(op)
        K = op.K
        assert op.K is K and K.shape == (op.grid.n_interior,) * 2

    def test_drift_operator_builds_K_in_assemble(self):
        op = assemble(build_box_grid(((0.0, 1.0), (0.0, 1.0)), 1 / 16),
                      EllipticCoefficients(b1=0.5))
        assert op.stencil is None and op._K is not None and op.K is op._K
        x = self.fields(op.grid.n_interior)[2]
        assert np.array_equal(apply_K(op, x), op.K @ x)


class TestAssemblyMemory:
    """K and B are filled straight from the stencil table, so one assembly
    holds little more than the table and the finished K; a conversion from
    COO triplets peaks near 5.7x K's storage."""

    @pytest.mark.parametrize("coeffs", [
        EllipticCoefficients(),
        EllipticCoefficients(b1=0.7, b2=lambda p: p[:, 0] - 0.5, a12=0.2),
    ], ids=["laplacian", "drift_cross"])
    def test_peak_within_a_small_multiple_of_K(self, coeffs):
        grid = build_box_grid(((0.0, 1.0), (0.0, 1.0)), 1 / 256)
        tracemalloc.start()
        try:
            K = assemble(grid, coeffs).K
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * (K.data.nbytes + K.indices.nbytes + K.indptr.nbytes)


class TestCoefficientValidation:
    def test_ellipticity_violation_names_node(self):
        grid = build_box_grid((0.0, 1.0), 0.25)
        with pytest.raises(ValueError, match="node"):
            assemble(grid, EllipticCoefficients(a11=-1.0))

    def test_indefinite_matrix_rejected(self):
        grid = build_box_grid(((0.0, 1.0), (0.0, 1.0)), 0.25)
        with pytest.raises(ValueError):
            assemble(grid, EllipticCoefficients(a12=1.5))

    def test_positive_c_rejected(self):
        grid = build_box_grid((0.0, 1.0), 0.25)
        with pytest.raises(ValueError):
            assemble(grid, EllipticCoefficients(c=0.5))

    def test_unknown_zero_order_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown zero_order_mode 'x'"):
            EllipticCoefficients(zero_order_mode="x")

    def test_c_zero_mode_is_strict(self):
        grid = build_box_grid((0.0, 1.0), 0.25)
        with pytest.raises(ValueError):
            assemble(grid, EllipticCoefficients(c=-0.5, zero_order_mode="c_zero"))

    def test_positive_c_judged_to_the_certificate_on_a_weak_diagonal(self):
        # c = 5e-13 is below the absolute 1e-12, but L1 = c > 0 exceeds the
        # certificate's allowance 1e-12 * max|diag K| = 2e-21
        grid = build_box_grid((0.0, 4.0), 1.0)
        coeffs = EllipticCoefficients(a11=1e-9, c=5e-13)
        assert dense_certificate(*reference_stencil(grid, coeffs)) is False
        with pytest.raises(ValueError, match="positive zero-order coefficient c = 5.000e-13"):
            assemble(grid, coeffs)

    def test_c_zero_tolerance_stays_absolute_on_a_strong_diagonal(self):
        # max|diag K| = 2 * 512^2, yet |c| may not exceed 1e-12
        grid = build_box_grid((0.0, 1.0), 1 / 512)
        with pytest.raises(ValueError, match=r"c_zero but \|c\| = 2.000e-12"):
            assemble(grid, EllipticCoefficients(c=-2e-12, zero_order_mode="c_zero"))
        assemble(grid, EllipticCoefficients(c=-5e-13, zero_order_mode="c_zero"))

    @given(
        a11=st.floats(0.3, 3.0),
        b1=st.floats(-2.0, 2.0),
        c=st.floats(-2.0, 0.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_l_one_nonpositive(self, a11, b1, c):
        grid = build_box_grid((0.0, 1.0), 0.125)
        op = assemble(grid, EllipticCoefficients(a11=a11, b1=b1, c=c))
        assert np.max(apply(op, np.ones(grid.n_nodes))) <= 1e-12
        assert op.m_matrix


class TestCheckSuperharmonic:
    def test_sqrt_witness_on_halfplane(self):
        grid = build_halfplane_truncation(4.0, 0.25, 0.25)
        op = assemble(grid, EllipticCoefficients(zero_order_mode="c_zero"))
        rep = check_superharmonic(op, np.sqrt(grid.nodes[:, 1]))
        assert rep.passed

    def test_constant_is_harmonic_without_zero_order(self):
        grid, op = interval_op(zero_order_mode="c_zero")
        rep = check_superharmonic(op, np.full(grid.n_nodes, 7.0))
        assert rep.passed and abs(rep.max_residual) <= 1e-12

    def test_convex_quadratic_fails(self):
        grid, op = interval_op(zero_order_mode="c_zero")
        rep = check_superharmonic(op, grid.nodes[:, 0] ** 2)
        assert not rep.passed
        assert rep.max_residual == pytest.approx(2.0, abs=1e-9)
        assert 0 <= rep.worst_node < grid.n_nodes

    def test_bad_field_is_named_s(self):
        grid, op = interval_op(h=1 / 16)
        with pytest.raises(ValueError, match="^s must be a scalar, a callable or a full node "
                                             "field of 17 values"):
            check_superharmonic(op, np.ones(3))
        with pytest.raises(ValueError, match="^s must be finite$"):
            check_superharmonic(op, np.full(grid.n_nodes, np.nan))


class TestRoundingAllowance:
    """Entries of L grow like 1/h^2, so the rounding of L s outgrows a fixed tol."""

    @pytest.mark.parametrize("h", [5e-4, 2e-4, 1e-4])
    def test_harmonic_line_passes_on_fine_grids(self, h):
        # L(1 + x) = 0 exactly; rounding alone reads 2.8e-9 ... 6.0e-8 here
        grid, op = interval_op(h=h, zero_order_mode="c_zero")
        rep = check_superharmonic(op, lambda p: 1.0 + p[:, 0])
        assert rep.passed and rep.max_residual > 1e-9

    @pytest.mark.parametrize("h", [5e-4, 2e-4, 1e-4])
    def test_convex_quadratic_still_fails(self, h):
        grid, op = interval_op(h=h, zero_order_mode="c_zero")
        rep = check_superharmonic(op, lambda p: p[:, 0] ** 2)
        assert not rep.passed and rep.max_residual == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("bbox", [(0.0, 1e-3), ((0.0, 1e-3), (0.0, 1e-3))])
    def test_constant_passes_without_zero_order(self, bbox):
        # in 2D the diagonal -4/h^2 rounds, and L 1 reads 3.8e-6 at h = 1e-5
        grid = build_box_grid(bbox, 1e-5)
        op = assemble(grid, EllipticCoefficients(zero_order_mode="c_zero"))
        assert check_superharmonic(op, 1.0).passed

    def test_allowance_is_added_to_tol_in_proportion_to_max_abs_s(self):
        grid, op = interval_op(h=1e-3)
        assert rounding_tol(op, np.zeros(grid.n_nodes), 1e-9) == 1e-9
        one = rounding_tol(op, np.ones(grid.n_nodes), 0.0)
        assert one == pytest.approx(5 * np.finfo(float).eps * 2.5 * 2e6)  # n = 3 + 2 in 1D
        assert rounding_tol(op, np.full(grid.n_nodes, -2.0), 1e-9) == pytest.approx(1e-9 + 2 * one)


class TestApplyFullFieldsOnly:
    def test_interior_only_field_rejected(self):
        grid, op = interval_op()
        with pytest.raises(ValueError, match="full node field"):
            apply(op, np.ones(grid.n_interior))

    def test_scalar_and_callable_forms(self):
        grid, op = interval_op(c=-1.0)
        np.testing.assert_array_equal(apply(op, 3.0), apply(op, np.full(grid.n_nodes, 3.0)))
        np.testing.assert_array_equal(apply(op, lambda p: p[:, 0] ** 2),
                                      apply(op, grid.nodes[:, 0] ** 2))
