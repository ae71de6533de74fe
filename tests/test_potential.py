import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from semigreen.config import load_config
from semigreen.geometry import build_box_grid, build_halfplane_truncation
from semigreen.operator import EllipticCoefficients, assemble
from semigreen.potential import (
    _dstn,
    factorize,
    green_potential,
    halfplane_green,
    harmonic_extension,
    interval_green,
    poisson_extension,
)


def laplace_gop(bbox, h):
    grid = build_box_grid(bbox, h)
    op = assemble(grid, EllipticCoefficients(zero_order_mode="c_zero"))
    return grid, factorize(op)


class TestIntervalGreen:
    def test_closed_form_values(self):
        assert interval_green(0.25, 0.5) == pytest.approx(0.125)
        assert interval_green(0.5, 0.25) == pytest.approx(0.125)
        assert interval_green(1.0, 2.0, endpoints=(0.0, 4.0)) == pytest.approx(0.5)

    def test_rejects_points_outside(self):
        with pytest.raises(ValueError):
            interval_green(0.0, 0.5)
        with pytest.raises(ValueError):
            interval_green(0.5, 1.5)

    @pytest.mark.parametrize("h", [0.1, 1 / 64, 1 / 257])
    def test_discrete_potential_of_one_is_exact(self, h):
        # inverting the second-difference matrix against a constant source
        # reproduces x(1-x)/2 to rounding, independent of the spacing
        grid, gop = laplace_gop((0.0, 1.0), h)
        g = green_potential(gop, 1.0)
        x = grid.nodes[:, 0]
        assert np.max(np.abs(g - 0.5 * x * (1.0 - x))) <= 1e-12


class TestGreenPotential:
    def test_agrees_with_dense_solve(self):
        grid = build_box_grid(((0.0, 1.0), (0.0, 2.0)), 0.125)
        op = assemble(grid, EllipticCoefficients(a11=2.0, b1=0.5, c=-1.0))
        gop = factorize(op)
        rng = np.random.default_rng(7)
        psi = rng.uniform(0.0, 1.0, grid.n_interior)
        g = green_potential(gop, psi)
        dense = np.linalg.solve(op.K.toarray(), psi)
        np.testing.assert_allclose(g[grid.interior_nodes], dense, atol=1e-11)
        assert np.max(np.abs(g[grid.boundary_nodes])) == 0.0

    def test_input_shapes(self):
        grid, gop = laplace_gop((0.0, 1.0), 0.25)
        full = np.ones(grid.n_nodes)
        np.testing.assert_allclose(green_potential(gop, full),
                                   green_potential(gop, 1.0))
        with pytest.raises(ValueError, match="interior"):
            green_potential(gop, np.ones(grid.n_interior + 1))
        with pytest.raises(ValueError, match="finite"):
            green_potential(gop, np.full(grid.n_interior, np.nan))

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_positivity(self, seed):
        grid, gop = laplace_gop((0.0, 1.0), 0.125)
        psi = np.random.default_rng(seed).uniform(0.0, 2.0, grid.n_interior)
        assert np.min(green_potential(gop, psi)) >= -1e-12


class TestHarmonicExtension:
    def test_affine_data_reproduced(self):
        grid, gop = laplace_gop((0.0, 1.0), 1 / 32)
        x = grid.nodes[:, 0]
        h = harmonic_extension(gop, (2.0 * x + 1.0)[grid.boundary_nodes])
        np.testing.assert_allclose(h, 2.0 * x + 1.0, atol=1e-12)

    def test_harmonic_polynomial_2d(self):
        grid, gop = laplace_gop(((0.0, 1.0), (0.0, 1.0)), 1 / 8)
        u = grid.nodes[:, 0] ** 2 - grid.nodes[:, 1] ** 2
        h = harmonic_extension(gop, u)  # full field: boundary slice is taken
        np.testing.assert_allclose(h, u, atol=1e-10)

    def test_scalar_data(self):
        grid, gop = laplace_gop((0.0, 1.0), 0.25)
        np.testing.assert_allclose(harmonic_extension(gop, 3.5), 3.5)

    def test_maximum_principle(self):
        grid, gop = laplace_gop(((0.0, 1.0), (0.0, 1.0)), 0.125)
        rng = np.random.default_rng(3)
        fb = rng.uniform(-1.0, 2.0, grid.n_nodes - grid.n_interior)
        h = harmonic_extension(gop, fb)
        assert np.min(h) >= fb.min() - 1e-12
        assert np.max(h) <= fb.max() + 1e-12

    def test_rejects_bad_lengths(self):
        grid, gop = laplace_gop((0.0, 1.0), 0.25)
        with pytest.raises(ValueError):
            harmonic_extension(gop, np.ones(grid.n_nodes + 1))
        with pytest.raises(ValueError):
            harmonic_extension(gop, np.array([np.inf, 1.0]))


class TestHalfplaneGreen:
    def test_matches_reflection_formula(self):
        z, w = (0.3, 1.2), (-0.5, 0.7)
        zc, wc = complex(*z), complex(*w)
        expected = (math.log(abs(zc - wc.conjugate())) - math.log(abs(zc - wc))) / (2 * math.pi)
        assert halfplane_green(z, w) == pytest.approx(expected, abs=1e-15)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = (rng.uniform(-3, 3), rng.uniform(0.1, 3))
            w = (rng.uniform(-3, 3), rng.uniform(0.1, 3))
            if z == w:
                continue
            g = halfplane_green(z, w)
            assert g == pytest.approx(halfplane_green(w, z), abs=1e-15)
            assert g > 0.0

    def test_vanishes_toward_boundary(self):
        w = (0.0, 1.0)
        vals = [halfplane_green((0.5, eps), w) for eps in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-5

    def test_harmonic_away_from_pole(self):
        # five-point Laplacian of the analytic kernel at distance 1 from the pole
        w, z0, h = (0.0, 1.0), (1.0, 1.5), 1e-2
        lap = (
            halfplane_green((z0[0] + h, z0[1]), w)
            + halfplane_green((z0[0] - h, z0[1]), w)
            + halfplane_green((z0[0], z0[1] + h), w)
            + halfplane_green((z0[0], z0[1] - h), w)
            - 4.0 * halfplane_green(z0, w)
        ) / h**2
        assert abs(lap) <= 1e-4

    def test_rejects_lower_halfplane(self):
        with pytest.raises(ValueError):
            halfplane_green((0.0, -1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            halfplane_green((0.0, 1.0), (0.0, 1.0))

    def test_array_matches_scalar_bit_for_bit(self):
        # the green subcommand evaluates every node in one call; its column
        # must equal point-by-point evaluation
        def former(z, w):  # the scalar formula in Python floats
            d2 = (z[0] - w[0]) ** 2 + (z[1] - w[1]) ** 2
            m2 = (z[0] - w[0]) ** 2 + (z[1] + w[1]) ** 2
            return 0.25 * math.log(m2 / d2) / math.pi

        w = (0.0, 1.0)
        nodes = build_halfplane_truncation(8.0, 0.125, 0.125).nodes
        nodes = nodes[np.any(nodes != w, axis=1)]
        scattered = np.random.default_rng(2).uniform([-5, 1e-3], [5, 5], (500, 2))
        for pts in (nodes, scattered):
            column = halfplane_green(pts, w)
            assert column.shape == (len(pts),)
            assert np.array_equal(column, [halfplane_green(tuple(z), w) for z in pts])
        # on lattice nodes the squares are exact, so the column also equals the
        # Python-float formula; elsewhere float ** 2 goes through libm pow,
        # which can differ from numpy's x * x in the last bit
        assert np.array_equal(halfplane_green(nodes, w), [former(z, w) for z in nodes.tolist()])
        np.testing.assert_allclose(halfplane_green(scattered, w),
                                   [former(z, w) for z in scattered.tolist()],
                                   rtol=1e-13, atol=0)
        assert isinstance(halfplane_green((0.5, 2.0), w), float)

    def test_array_rejects_any_bad_point(self):
        good = np.array([[0.0, 2.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="upper half-plane"):
            halfplane_green(np.vstack([good, [[3.0, 0.0]]]), (0.0, 1.0))
        with pytest.raises(ValueError, match="coincident"):
            halfplane_green(np.vstack([good, [[0.0, 1.0]]]), (0.0, 1.0))


class TestPoissonExtension:
    def test_constant_data(self):
        vals = poisson_extension(lambda s: np.ones_like(s), [(0.0, 1.0), (3.0, 0.5)])
        np.testing.assert_allclose(vals, 1.0, atol=1e-6)

    def test_indicator_closed_form(self):
        # extension of 1_{s>0} is 1/2 + arctan(x/y)/pi
        pts = [(0.0, 1.0), (1.0, 2.0), (-2.0, 0.5)]
        vals = poisson_extension(lambda s: (s > 0).astype(float), pts, breakpoints=(0.0,))
        expect = [0.5 + math.atan(x / y) / math.pi for x, y in pts]
        np.testing.assert_allclose(vals, expect, atol=1e-6)

    def test_tail_correction_matters(self):
        ones = lambda s: np.ones_like(s)
        with_tail = poisson_extension(ones, [(0.0, 5.0)], radius=50.0)[0]
        assert abs(with_tail - 1.0) < 1e-6

    def test_rejects_boundary_evaluation(self):
        with pytest.raises(ValueError):
            poisson_extension(lambda s: np.ones_like(s), [(0.0, 0.0)])


class TestFactorization:
    def test_solve_matches_matrix(self):
        grid = build_halfplane_truncation(2.0, 0.25, 0.25)
        op = assemble(grid, EllipticCoefficients(zero_order_mode="c_zero"))
        gop = factorize(op)
        rhs = np.linspace(0.0, 1.0, grid.n_interior)
        sol = gop.solve(rhs)
        np.testing.assert_allclose(op.K @ sol, rhs, atol=1e-11)
        assert gop.grid is grid


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# (bbox, spacing, coefficients) whose K is the separable constant stencil
SEPARABLE = {
    "1d": ((0.0, 1.0), 1 / 64, EllipticCoefficients(zero_order_mode="c_zero")),
    "isotropic_2d": (((0.0, 1.0), (0.0, 1.0)), 1 / 16, EllipticCoefficients()),
    # a11 != a22, hx != hy and a non-square box: a swapped axis order fails
    "anisotropic_2d": (((0.0, 1.0), (0.0, 3.0)), (1 / 8, 1 / 4),
                       EllipticCoefficients(a11=2.0, a22=0.5)),
    "constant_c": (((-1.0, 1.0), (0.25, 2.25)), 0.125, EllipticCoefficients(c=-1.5)),
}
NOT_SEPARABLE = {
    "drift": EllipticCoefficients(b1=0.5),
    "variable_a11": EllipticCoefficients(a11=lambda p: 1.0 + p[:, 0]),
    "cross_term": EllipticCoefficients(a12=0.2),
}


class TestSolvePath:
    @pytest.mark.parametrize("case", sorted(SEPARABLE))
    def test_separable_operator_skips_lu(self, case, splu_calls):
        bbox, h, coeffs = SEPARABLE[case]
        factorize(assemble(build_box_grid(bbox, h), coeffs))
        assert splu_calls == []

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.stem)
    def test_shipped_configs_skip_lu(self, path, splu_calls):
        cfg = load_config(str(path))
        if cfg.experiment == "criterion":
            assert cfg.coeffs is None  # the criterion integral assembles no operator
        else:
            factorize(assemble(cfg.grid(), cfg.coeffs))
        assert splu_calls == []

    @pytest.mark.parametrize("case", sorted(NOT_SEPARABLE))
    def test_other_operators_use_lu(self, case, splu_calls):
        grid = build_box_grid(((0.0, 1.0), (0.0, 1.0)), 0.125)
        op = assemble(grid, NOT_SEPARABLE[case])
        assert op.stencil is None
        factorize(op)
        assert splu_calls == [1]

    @pytest.mark.parametrize("case", sorted(SEPARABLE))
    def test_stencil_record_is_ks_entries(self, case):
        bbox, h, coeffs = SEPARABLE[case]
        op = assemble(build_box_grid(bbox, h), coeffs)
        d0, neighbour = op.stencil
        K, m = op.K.toarray(), [n - 2 for n in op.grid.shape]
        assert len(neighbour) == len(m)
        assert np.array_equal(np.diag(K), np.full(K.shape[0], d0))
        # node j + e_ax follows node j along axis ax at C-order stride s unless j is
        # last along ax; every such pair carries the axis value, in both directions
        for ax in range(len(m)):
            s = math.prod(m[ax + 1:])
            last = np.unravel_index(np.arange(K.shape[0]), m)[ax] == m[ax] - 1
            pairs = np.flatnonzero(~last)
            assert np.array_equal(K[pairs, pairs + s], np.full(pairs.size, neighbour[ax]))
            assert np.array_equal(K[pairs + s, pairs], np.full(pairs.size, neighbour[ax]))
        assert np.count_nonzero(K) == K.shape[0] + sum(
            2 * (K.shape[0] // m[ax]) * (m[ax] - 1) for ax in range(len(m)))

    @pytest.mark.parametrize("case", sorted(SEPARABLE))
    def test_dst_eigenvalues_are_ks(self, case):
        bbox, h, coeffs = SEPARABLE[case]
        op = assemble(build_box_grid(bbox, h), coeffs)
        lam = np.sort(factorize(op)._lam.ravel())
        ref = np.linalg.eigvalsh(op.K.toarray())
        assert np.max(np.abs(lam - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", sorted(SEPARABLE))
    def test_dst_solve_agrees_with_lu(self, case):
        bbox, h, coeffs = SEPARABLE[case]
        op = assemble(build_box_grid(bbox, h), coeffs)
        gop, lu = factorize(op), spla.splu(op.K)
        rng = np.random.default_rng(5)
        for _ in range(3):
            rhs = rng.standard_normal(op.grid.n_interior)
            x, ref = gop.solve(rhs), lu.solve(rhs)
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert np.max(np.abs(op.K @ x - rhs)) <= 10.0 * np.max(np.abs(op.K @ ref - rhs))


# every 1D length, every 2D shape and the 3D shape on which _dstn is checked against scipy's DST-I
DST_SHAPES = ([(m,) for m in (1, 2, 3, 7, 15, 23, 24, 31, 63, 100, 127, 255, 511, 1023)]
              + [(a, b) for a in (7, 15, 31, 63, 127, 255) for b in (7, 15, 31, 63, 127, 255)]
              + [(10, 17), (23, 41), (99, 100), (63, 255), (511, 511)]
              + [(7, 5, 9)])


class TestDst:
    @pytest.mark.parametrize("shape", DST_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_equals_scipy_bit_for_bit(self, shape):
        # the reference transform: the package itself runs the DST-I on numpy.fft
        import scipy.fft

        x = np.random.default_rng(sum(shape)).standard_normal(shape)
        assert np.array_equal(_dstn(x), scipy.fft.dstn(x, type=1))
        inv = scipy.fft.idstn(x, type=1)
        assert np.array_equal(_dstn(x, inverse=True), inv)
        y = x.copy()
        assert _dstn(y, inverse=True, out=y) is y
        assert np.array_equal(y, inv)
