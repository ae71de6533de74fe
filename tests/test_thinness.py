from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad

from semigreen.config import load_config
from semigreen.exhaustion import run_exhaustion
from semigreen.geometry import build_exhaustion, build_halfplane_truncation
from semigreen.operator import EllipticCoefficients
from semigreen.potential import interval_green
from semigreen.solver import Nonlinearity
from semigreen.thinness import (
    ThinnessCertificate,
    _log_cell_integral,
    criterion_integral,
    mask_predicate,
    necessary_direction_probe,
    verify_certificate,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LAPLACE = EllipticCoefficients(zero_order_mode="c_zero")
ANCHOR = (0.0, 2.0)  # separated from the strip {0 < y < 1}


def strip_phi(p, t):
    return (p[:, 1] < 1.0) * np.maximum(t, 0.0)


def halfplane_G(x0, wx, wy):
    dx2 = (wx - x0[0]) ** 2
    return 0.25 / np.pi * np.log((dx2 + (wy + x0[1]) ** 2) / (dx2 + (wy - x0[1]) ** 2))


class TestLogCellIntegral:
    # adaptive quadrature oracle, integration split at the singular point
    @staticmethod
    def oracle(z, rect):
        (a, b), (c, d) = rect
        xs = sorted({a, b, min(max(z[0], a), b)})
        ys = sorted({c, d, min(max(z[1], c), d)})
        total = 0.0
        for x1, x2 in zip(xs, xs[1:]):
            for y1, y2 in zip(ys, ys[1:]):
                val, _ = dblquad(
                    lambda y, x: np.log(np.hypot(x - z[0], y - z[1])),
                    x1, x2, lambda x: y1, lambda x: y2,
                    epsabs=1e-12, epsrel=1e-12,
                )
                total += val
        return total

    @pytest.mark.parametrize("z", [
        (0.2, 2.0),    # interior of the cell
        (0.1, 1.9),    # at a corner
        (0.3, 2.2),    # on an edge
        (1.0, 5.0),    # well outside
    ])
    def test_matches_quadrature(self, z):
        rect = ((0.1, 0.45), (1.9, 2.2))
        assert _log_cell_integral(z, rect) == pytest.approx(self.oracle(z, rect), abs=1e-10)

    def test_centered_square(self):
        rect = ((-0.5, 0.5), (-0.5, 0.5))
        assert _log_cell_integral((0.0, 0.0), rect) == pytest.approx(
            self.oracle((0.0, 0.0), rect), abs=1e-10)

    def test_translation_invariance(self):
        rect = ((0.0, 0.25), (0.0, 0.125))
        shifted = ((3.0, 3.25), (-1.0, -0.875))
        assert _log_cell_integral((0.05, 0.03), rect) == pytest.approx(
            _log_cell_integral((3.05, -0.97), shifted), abs=1e-13)


class TestCriterionHalfplane:
    def test_smooth_region_matches_quadrature(self):
        # anchor outside the strip: pure midpoint, no singular cells
        rep = criterion_integral("halfplane", strip_phi, 1.0, None, [4.0], x0=ANCHOR)
        oracle, _ = dblquad(lambda y, x: halfplane_G(ANCHOR, x, y), -4, 4,
                            lambda x: 0, lambda x: 1, epsabs=1e-11, epsrel=1e-11)
        assert rep.values[0] == pytest.approx(oracle, abs=1e-8)

    def test_singular_region_matches_quadrature(self):
        # anchor inside the region: the exact cell integral takes over
        one = lambda p, t: np.maximum(t, 0.0)
        rep = criterion_integral("halfplane", one, 1.0, None, [4.0], x0=ANCHOR)
        total = 0.0
        for x1, x2 in [(-4.0, 0.0), (0.0, 4.0)]:
            for y1, y2 in [(0.0, 2.0), (2.0, 8.0)]:
                val, _ = dblquad(lambda y, x: halfplane_G(ANCHOR, x, y), x1, x2,
                                 lambda x: y1, lambda x: y2,
                                 epsabs=1e-10, epsrel=1e-10)
                total += val
        assert rep.values[0] == pytest.approx(total, abs=1e-4)

    def test_confined_absorption_trend_is_bounded(self):
        rep = criterion_integral("halfplane", strip_phi, 1.0, None, [4, 8, 16, 32], x0=ANCHOR)
        assert rep.verdict == "bounded_trend"
        assert all(r <= 0.6 for r in rep.ratios)
        assert np.all(np.diff(rep.values) >= 0)

    def test_everywhere_absorption_trend_diverges(self):
        one = lambda p, t: np.maximum(t, 0.0)
        rep = criterion_integral("halfplane", one, 1.0, None, [4, 8, 16, 32], x0=ANCHOR)
        assert rep.verdict == "diverging_trend"
        assert all(r >= 0.9 for r in rep.ratios)

    def test_shipped_thin_support_strip_is_not_thin(self):
        # configs/thin_support.ini absorbs on {y > 1}; its criterion
        # integral grows like R, so the strip is not thin at infinity
        phi = load_config(str(CONFIGS / "thin_support.ini")).phi
        rep = criterion_integral("halfplane", phi, 1.0, None, [4, 8, 16, 32], x0=ANCHOR)
        np.testing.assert_allclose(rep.values, [6.63, 15.30, 32.87, 68.11], atol=0.005)
        assert rep.verdict == "diverging_trend"

    def test_compact_support_saturates(self):
        box = lambda p, t: ((np.abs(p[:, 0]) < 2) & (p[:, 1] < 1)) * np.maximum(t, 0.0)
        rep = criterion_integral("halfplane", box, 1.0, None, [4, 8, 16, 32], x0=ANCHOR)
        assert rep.verdict == "bounded_trend"
        assert rep.increments[1] == 0.0 and rep.increments[2] == 0.0
        assert rep.ratios[-1] == 0.0

    def test_set_A_removes_mass(self):
        pred = lambda p: p[:, 0] > 0  # right half masked out
        full = criterion_integral("halfplane", strip_phi, 1.0, None, [4.0], x0=ANCHOR)
        half = criterion_integral("halfplane", strip_phi, 1.0, pred, [4.0], x0=ANCHOR)
        assert half.values[0] == pytest.approx(0.5 * full.values[0], abs=1e-12)

    def test_input_validation(self):
        one = lambda p, t: np.maximum(t, 0.0)
        with pytest.raises(ValueError, match="increasing"):
            criterion_integral("halfplane", one, 1.0, None, [8, 4], x0=ANCHOR)
        with pytest.raises(ValueError, match="multiple"):
            criterion_integral("halfplane", one, 1.0, None, [4.3], x0=ANCHOR)
        with pytest.raises(ValueError, match="at least one"):
            criterion_integral("halfplane", one, 1.0, None, [], x0=ANCHOR)
        with pytest.raises(ValueError, match="kernel"):
            criterion_integral("sphere", one, 1.0, None, [4.0], x0=ANCHOR)
        with pytest.raises(ValueError, match="half-plane"):
            criterion_integral("halfplane", one, 1.0, None, [4.0], x0=(0.0, -1.0))
        with pytest.raises(ValueError, match="nonnegative"):
            neg = lambda p, t: -np.ones(p.shape[0])
            criterion_integral("halfplane", neg, 1.0, None, [4.0], x0=ANCHOR)
        with pytest.raises(ValueError, match="predicate"):
            criterion_integral("halfplane", one, 1.0, np.ones(4), [4.0], x0=ANCHOR)

    @given(c0=st.floats(0.25, 4.0), y_cut=st.sampled_from([0.5, 1.0, 1.5, 2.5]))
    @settings(max_examples=20, deadline=None)
    def test_values_nondecreasing(self, c0, y_cut):
        phi = lambda p, t: (p[:, 1] < y_cut) * np.maximum(t, 0.0)
        rep = criterion_integral("halfplane", phi, c0, None, [2, 4, 8], x0=ANCHOR, cell=0.25)
        assert np.all(np.diff(rep.values) >= -1e-15)
        assert all(v >= 0 for v in rep.values)


class TestCriterionInterval:
    def test_saturated_value_is_exact(self):
        # full weight: the integral of G(1/2, .) over (0,1) is 1/8, reached
        # once the window covers the interval and flat afterwards
        one = lambda p, t: np.maximum(t, 0.0)
        rep = criterion_integral(("interval", (0.0, 1.0)), one, 1.0, None,
                                 [0.25, 0.5, 1.0, 2.0], x0=(0.5,), cell=0.125)
        assert rep.values[-1] == pytest.approx(0.125, abs=1e-12)
        assert rep.values[-2] == pytest.approx(0.125, abs=1e-12)
        assert rep.verdict == "bounded_trend"

    def test_default_anchor_is_the_midpoint(self):
        # the half-plane's default anchor (0, 2) would sit on this interval's endpoint
        one = lambda p, t: np.maximum(t, 0.0)
        rep = criterion_integral(("interval", (0.0, 1.0)), one, 1.0, None, [0.25, 0.5])
        assert rep == criterion_integral(("interval", (0.0, 1.0)), one, 1.0, None,
                                         [0.25, 0.5], x0=(0.5,))
        assert criterion_integral("halfplane", one, 1.0, None, [4.0]) == \
            criterion_integral("halfplane", one, 1.0, None, [4.0], x0=(0.0, 2.0))

    def test_bad_endpoints(self):
        one = lambda p, t: np.maximum(t, 0.0)
        with pytest.raises(ValueError, match="endpoints"):
            criterion_integral(("interval", (1.0, 0.0)), one, 1.0, None, [0.5], x0=(0.5,))

    def test_kernel_column_matches_pointwise_green(self):
        # the cell centres of test_saturated_value_is_exact, in one call and one by one
        centers = (np.arange(8) + 0.5) * 0.125
        column = interval_green(0.5, centers)
        scalar = [interval_green(0.5, float(c)) for c in centers]
        # the closed form in Python floats, as the per-cell loop computed it
        closed = [(min(0.5, c) - 0.0) * (1.0 - max(0.5, c)) / 1.0 for c in centers.tolist()]
        assert column.tolist() == scalar == closed


@pytest.mark.parametrize("kernel, x0", [("halfplane", ANCHOR),
                                        (("interval", (0.0, 1.0)), (0.5,))])
@pytest.mark.parametrize("value, match", [(np.nan, "finite"), (np.inf, "finite"),
                                          (-1.0, "nonnegative")])
def test_criterion_rejects_bad_phi(kernel, x0, value, match):
    # a bare callable is checked like a Nonlinearity
    bad = lambda p, t: np.full(p.shape[0], value)
    for phi in (bad, Nonlinearity(bad)):
        with pytest.raises(ValueError, match=match):
            criterion_integral(kernel, phi, 1.0, None, [0.5], x0=x0)


@pytest.mark.parametrize("kernel, x0", [("halfplane", ANCHOR),
                                        (("interval", (0.0, 1.0)), (0.5,))])
@pytest.mark.parametrize("cell", [0.0, -0.125])
def test_criterion_rejects_nonpositive_cell(kernel, x0, cell):
    one = lambda p, t: np.maximum(t, 0.0)
    with pytest.raises(ValueError, match="cell must be positive"):
        criterion_integral(kernel, one, 1.0, None, [0.5], x0=x0, cell=cell)


class TestMaskPredicate:
    def test_roundtrip_on_nodes(self):
        grid = build_halfplane_truncation(2.0, 0.25, 0.25)
        mask = grid.nodes[:, 1] >= 1.0
        pred = mask_predicate(grid, mask)
        np.testing.assert_array_equal(pred(grid.nodes), mask)

    def test_outside_box_is_false(self):
        grid = build_halfplane_truncation(2.0, 0.25, 0.25)
        pred = mask_predicate(grid, np.ones(grid.n_nodes, dtype=bool))
        assert not pred(np.array([[50.0, 1.0], [0.0, 100.0]])).any()

    def test_points_of_another_dimension_rejected(self):
        grid = build_halfplane_truncation(2.0, 0.25, 0.25)
        pred = mask_predicate(grid, np.ones(grid.n_nodes, dtype=bool))
        with pytest.raises(ValueError, match="wrong dimension"):
            pred(np.array([0.0, 1.0]))

    def test_nearest_node_lookup(self):
        grid = build_halfplane_truncation(2.0, 0.25, 0.25)
        mask = grid.nodes[:, 1] >= 1.0
        pred = mask_predicate(grid, mask)
        assert pred(np.array([[0.01, 1.01]]))[0]
        assert not pred(np.array([[0.01, 0.76]]))[0]


class TestVerifyCertificate:
    def grid(self):
        return build_halfplane_truncation(4.0, 0.25, 0.25)

    def test_sqrt_witness_passes(self):
        grid = self.grid()
        cert = ThinnessCertificate(
            set_A=lambda p: p[:, 1] >= 1.0,
            witness_s=lambda p: np.minimum(1.0, np.sqrt(p[:, 1])),
            margin=0.25,
        )
        verdict = verify_certificate(grid, LAPLACE, cert)
        assert verdict.passed and not verdict.reasons
        assert verdict.min_over_grid == pytest.approx(0.5)  # sqrt(delta)
        assert verdict.min_on_A >= 1.0 - 1e-12
        # the verdict, not the certificate, carries the measurements
        assert verdict.min_over_grid == pytest.approx(0.5)
        assert verdict.superharmonic_residual <= 1e-9

    def test_witness_must_dip(self):
        grid = self.grid()
        cert = ThinnessCertificate(set_A=np.ones(grid.n_nodes, dtype=bool),
                                   witness_s=np.ones(grid.n_nodes), margin=0.25)
        verdict = verify_certificate(grid, LAPLACE, cert)
        assert not verdict.passed
        assert any("never dips" in r for r in verdict.reasons)

    def test_subharmonic_witness_fails(self):
        grid = self.grid()
        cert = ThinnessCertificate(set_A=lambda p: p[:, 1] >= 1.0,
                                   witness_s=lambda p: p[:, 0] ** 2 / 16.0, margin=0.5)
        verdict = verify_certificate(grid, LAPLACE, cert)
        assert not verdict.passed
        assert any("superharmonicity" in r for r in verdict.reasons)

    def test_margin_and_negativity_reported(self):
        grid = self.grid()
        s = lambda p: np.minimum(1.0, np.sqrt(p[:, 1]))
        bad_margin = ThinnessCertificate(set_A=lambda p: p[:, 1] >= 1.0,
                                         witness_s=s, margin=0.0)
        verdict = verify_certificate(grid, LAPLACE, bad_margin)
        assert any("margin" in r for r in verdict.reasons)
        dips = ThinnessCertificate(set_A=lambda p: p[:, 1] >= 4.0,
                                   witness_s=lambda p: np.minimum(1.0, p[:, 1] - 1.0),
                                   margin=0.5)
        verdict = verify_certificate(grid, LAPLACE, dips)
        assert any("negative" in r for r in verdict.reasons)

    def test_empty_A_is_vacuous(self):
        grid = self.grid()
        cert = ThinnessCertificate(set_A=np.zeros(grid.n_nodes, dtype=bool),
                                   witness_s=lambda p: np.minimum(1.0, np.sqrt(p[:, 1])),
                                   margin=0.25)
        verdict = verify_certificate(grid, LAPLACE, cert)
        assert verdict.passed
        assert verdict.min_on_A == np.inf

    def test_shape_mismatch_raises(self):
        grid = self.grid()
        cert = ThinnessCertificate(set_A=np.zeros(3, dtype=bool),
                                   witness_s=np.ones(grid.n_nodes), margin=0.5)
        with pytest.raises(ValueError, match="set_A"):
            verify_certificate(grid, LAPLACE, cert)


class TestNecessaryDirectionProbe:
    @staticmethod
    def confined_run(stages=4):
        phi = Nonlinearity(lambda p, t: (p[:, 1] > 1.0) * np.maximum(t, 0.0),
                           differentiable=True)
        exh = build_exhaustion(2.0, stages, spacing=0.25, halfplane=True, delta=0.25)
        cap = lambda p: np.minimum(1.0, np.sqrt(p[:, 1]))
        return run_exhaustion(exh, LAPLACE, phi, cap, scheme="newton")

    def test_probe_from_nontrivial_run(self):
        run = self.confined_run()
        assert run.triviality_verdict == "nontrivial"
        cert, verdict = necessary_direction_probe(run)
        assert verdict.passed
        assert cert.margin > 0
        n_a = int(np.sum(cert.set_A))
        assert 0 < n_a < run.stages[-1][0].n_nodes

    def test_explicit_level(self):
        run = self.confined_run()
        cert, verdict = necessary_direction_probe(run, c0=0.5)
        assert verdict.passed
        v = run.limit_estimate
        np.testing.assert_array_equal(cert.set_A, v <= 0.5)

    def test_flat_solution_rejected(self):
        zero = Nonlinearity(lambda p, t: np.zeros(p.shape[0]), differentiable=True)
        exh = build_exhaustion(2.0, 3, spacing=0.25, halfplane=True, delta=0.25)
        run = run_exhaustion(exh, LAPLACE, zero, 1.0)
        assert run.triviality_verdict == "nontrivial"
        with pytest.raises(ValueError, match="no valid"):
            necessary_direction_probe(run)

    def test_requires_nontrivial_verdict(self):
        run = self.confined_run(stages=2)  # too short to classify
        assert run.triviality_verdict == "undecided"
        with pytest.raises(ValueError, match="nontrivial"):
            necessary_direction_probe(run)
