import gc
import weakref

import numpy as np
import pytest

from semigreen import exhaustion, multigrid
from semigreen.exhaustion import (
    _classify,
    correspondence_roundtrip,
    harmonic_majorant,
    run_exhaustion,
)
from semigreen.geometry import (
    Grid,
    build_box_grid,
    build_exhaustion,
    restrict,
)
from semigreen.operator import EllipticCoefficients, assemble, check_superharmonic
from semigreen.potential import GreenOperator, factorize
from semigreen.solver import NonConvergence, Nonlinearity, condition_factor, solve_U

LAPLACE = EllipticCoefficients(zero_order_mode="c_zero")
RAMP = Nonlinearity(lambda p, t: np.maximum(t, 0.0), differentiable=True)
SQRT = Nonlinearity(lambda p, t: np.sqrt(np.maximum(t, 0.0)))
# free-set tangent steps tolerate the dead-core kink
SQRT_N = Nonlinearity(lambda p, t: np.sqrt(np.maximum(t, 0.0)), differentiable=True)
ZERO = Nonlinearity(lambda p, t: np.zeros(p.shape[0]), differentiable=True)
# absorption confined to {y > 1}
STRIP_OFF = Nonlinearity(
    lambda p, t: (p[:, 1] > 1.0) * np.maximum(t, 0.0), differentiable=True
)


def halfplane_exh(r0=2.0, stages=3, h=0.25):
    return build_exhaustion(r0, stages, spacing=h, halfplane=True, delta=0.25)


def sqrt_cap(pts):
    return np.minimum(1.0, np.sqrt(pts[:, 1]))


class TestRunExhaustion:
    def test_zero_absorption_reproduces_harmonic_data(self):
        exh = halfplane_exh()
        run = run_exhaustion(exh, LAPLACE, ZERO, 1.0)
        np.testing.assert_allclose(run.anchor_values, 1.0, atol=1e-12)
        family = harmonic_majorant(exh, LAPLACE, run.limit_estimate)
        for (grid, u), h in zip(run.stages, family):
            np.testing.assert_allclose(u, 1.0, atol=1e-12)
            np.testing.assert_allclose(h, 1.0, atol=1e-12)
        assert run.triviality_verdict == "nontrivial"
        assert run.monotone_slack <= 1e-12

    def test_confined_absorption_run(self):
        exh = halfplane_exh()
        run = run_exhaustion(exh, LAPLACE, STRIP_OFF, sqrt_cap, tol=1e-10, scheme="newton")
        a = run.anchor_values
        assert np.all(np.diff(a) < 0)  # larger domain, more absorption seen
        assert run.sup_s == pytest.approx(1.0)
        final_grid = run.stages[-1][0]
        family = harmonic_majorant(exh, LAPLACE, run.limit_estimate)
        for (grid, u), h in zip(run.stages, family):
            assert np.min(u) >= -1e-12
            assert np.max(u) <= run.sup_s + 1e-12
            # each majorant dominates the limit field on its own stage
            assert np.all(h >= restrict(run.limit_estimate, final_grid, grid) - 1e-9)
        assert len(run.reports) == 3
        assert max(r.final_identity_residual for r in run.reports) <= 1e-10

    def test_interval_exhaustion(self):
        exh = build_exhaustion((-1.0, 1.0), 3, spacing=0.125, anchor=(0.0,))
        run = run_exhaustion(exh, LAPLACE, SQRT_N, 1.0, scheme="newton")
        assert np.all(np.diff(run.anchor_values) < 0)
        assert run.limit_estimate.shape == (run.stages[-1][0].n_nodes,)

    def test_rejects_non_superharmonic_witness(self):
        with pytest.raises(ValueError, match="superharmonic"):
            run_exhaustion(halfplane_exh(), LAPLACE, ZERO, lambda p: p[:, 1] ** 2)

    def test_constant_data_is_checked_on_every_stage(self, monkeypatch):
        # constants get no pass under c_zero: the check's rounding allowance covers them
        checked = []

        def spy_check(op, s, tol):
            rep = check_superharmonic(op, s, tol)
            checked.append(rep.passed)
            return rep

        monkeypatch.setattr(exhaustion, "check_superharmonic", spy_check)
        run_exhaustion(halfplane_exh(), LAPLACE, ZERO, 1.0)
        assert checked == [True, True, True]

    def test_nonconvergence_names_stage(self):
        with pytest.raises(NonConvergence, match="stage 0"):
            run_exhaustion(halfplane_exh(), LAPLACE, SQRT, 1.0, max_iter=1)

    def test_nonconvergence_names_residuals_and_dead_set(self):
        with pytest.raises(NonConvergence, match="stage 0") as exc:
            run_exhaustion(halfplane_exh(), LAPLACE, SQRT_N, 1.0, scheme="newton",
                           max_iter=2)
        rep = exc.value.report
        assert rep.status == "max_iter" and len(rep.residual_history) == 3
        last = ", ".join(f"{r:.3e}" for r in rep.residual_history)
        assert f"last identity residuals {last}" in str(exc.value)
        assert f"final dead set {rep.dead_set_history[-1]} nodes" in str(exc.value)

    def test_shared_node_decrease_is_tracked(self):
        run = run_exhaustion(halfplane_exh(), LAPLACE, STRIP_OFF, sqrt_cap,
                             scheme="newton")
        assert run.monotone_slack <= 1e-9
        # recompute the worst defect independently of the run bookkeeping
        worst = -np.inf
        for (g1, u1), (g2, u2) in zip(run.stages, run.stages[1:]):
            shared = g2.index_of(g1.nodes)
            worst = max(worst, float(np.max(u2[shared] - u1)))
        assert worst == pytest.approx(run.monotone_slack, abs=1e-14)


    def test_earlier_stage_operators_are_freed_before_a_stage_solves(self, monkeypatch):
        # only the previous stage's kappa, a number, outlives its operator
        refs, alive = [], []

        def spy_factorize(op):
            gop = factorize(op)
            refs.append(weakref.ref(gop))
            return gop

        def spy_solve(gop, *args, **kw):
            alive.append([r() is not None for r in refs[:-1]])
            return solve_U(gop, *args, **kw)

        monkeypatch.setattr(exhaustion, "factorize", spy_factorize)
        monkeypatch.setattr(exhaustion, "solve_U", spy_solve)
        gc.disable()
        try:
            run = run_exhaustion(halfplane_exh(), LAPLACE, SQRT_N, 1.0, scheme="newton")
        finally:
            gc.enable()
        assert len(run.stages) == len(refs) == 3
        assert alive == [[], [False], [False, False]]

    def test_stage_fields_are_freed_before_the_first_newton_solve(self, monkeypatch):
        # at each stage's first Newton solve the supersolution field, the warm
        # start handed to solve_U and that iteration's G phi(u) are gone
        sfs, starts, potentials, stages, alive = [], [], [], [], []
        field, solve = Grid.field, GreenOperator.solve
        solve_jacobian = GreenOperator.solve_jacobian

        def spy_field(self, value, on="nodes", name="field"):
            out = field(self, value, on=on, name=name)
            if name == "supersolution s":
                sfs.append(weakref.ref(out))
            elif name == "start":
                starts.append(weakref.ref(value))
            return out

        def spy_solve(self, rhs):
            out = solve(self, rhs)
            potentials.append(weakref.ref(out))
            return out

        def spy_jacobian(self, J, free, rhs, tol):
            if not stages or stages[-1]() is not self:
                stages.append(weakref.ref(self))
                alive.append((any(r() is not None for r in sfs),
                              any(r() is not None for r in starts),
                              potentials[-1]() is not None))
            return solve_jacobian(self, J, free, rhs, tol)

        monkeypatch.setattr(Grid, "field", spy_field)
        monkeypatch.setattr(GreenOperator, "solve", spy_solve)
        monkeypatch.setattr(GreenOperator, "solve_jacobian", spy_jacobian)
        gc.disable()
        try:
            run = run_exhaustion(halfplane_exh(), LAPLACE, SQRT_N, 1.0, scheme="newton")
        finally:
            gc.enable()
        assert len(run.stages) == len(alive) == 3
        assert len(starts) == 2 and len(sfs) == 3
        # the start too: from CPython 3.11 (pyproject's floor) a caller does not
        # hold its call's arguments, so solve_U's drop frees it
        assert alive == [(False, False, False)] * 3

    def test_coordinate_supersolution_leaves_the_stages_unchanged(self):
        # s = y is harmonic; its node field is a view on grid.nodes, into which
        # the warm start must not write the previous stage's solution
        exh = halfplane_exh()
        nodes = [grid.nodes.copy() for grid in exh.stages]
        run = run_exhaustion(exh, LAPLACE, SQRT_N, lambda p: p[:, 1], scheme="newton")
        ref = run_exhaustion(halfplane_exh(), LAPLACE, SQRT_N, lambda p: p[:, 1] + 0.0,
                             scheme="newton")
        assert len(run.stages) == len(ref.stages) == 3
        for (grid, u), (_, u_ref), x in zip(run.stages, ref.stages, nodes):
            assert np.array_equal(grid.nodes, x)
            assert np.array_equal(u, u_ref)


class TestWarmStart:
    def test_stages_start_from_the_previous_solution(self):
        # the base stage is wide enough to hold a dead core
        exh = build_exhaustion(8.0, 3, spacing=0.5, halfplane=True, delta=0.5)
        tol = 1e-10
        run = run_exhaustion(exh, LAPLACE, SQRT_N, 1.0, tol=tol, scheme="newton")
        assert all(rep.dead_set_history[0] > 0 for rep in run.reports[1:])
        for (grid, u), rep in zip(run.stages, run.reports):
            gop = factorize(assemble(grid, LAPLACE))
            cold, cold_rep = solve_U(gop, 1.0, SQRT_N, tol=tol, scheme="newton")
            assert rep.iterations == cold_rep.iterations
            assert np.max(np.abs(u - cold)) <= condition_factor(gop) * tol


class TestTrendClassifier:
    def test_short_history_undecided(self):
        assert _classify(np.array([1.0, 0.5]), 1.0) == "undecided"

    def test_decay_to_zero(self):
        a = np.array([1.0, 1e-2, 5e-4, 2e-4, 9e-5])
        assert _classify(a, 1.0) == "trivial_trend"

    def test_stalled_plateau(self):
        a = np.array([1.0, 0.9, 0.89, 0.888])
        assert _classify(a, 1.0) == "nontrivial"

    def test_steady_decrease_stays_open(self):
        a = np.array([1.0, 0.6, 0.4, 0.25])
        assert _classify(a, 1.0) == "undecided"


class TestHarmonicMajorant:
    def test_family_increases_and_dominates(self):
        exh = halfplane_exh()
        run = run_exhaustion(exh, LAPLACE, STRIP_OFF, sqrt_cap, scheme="newton")
        family = harmonic_majorant(exh, LAPLACE, run.limit_estimate)
        assert len(family) == len(exh.stages)
        assert np.all(family[-1] >= run.limit_estimate - 1e-9)
        for (g1, h1), (g2, h2) in zip(zip(exh.stages, family), zip(exh.stages[1:], family[1:])):
            shared = g2.index_of(g1.nodes)
            assert np.min(h2[shared] - h1) >= -1e-9

    def test_harmonic_input_is_its_own_majorant(self):
        exh = halfplane_exh()
        ones = np.ones(exh.stages[-1].n_nodes)
        family = harmonic_majorant(exh, LAPLACE, ones)
        np.testing.assert_allclose(family[-1], 1.0, atol=1e-12)

    def test_scalar_field_is_read_on_the_final_stage(self):
        # w takes any form Grid.field accepts, a scalar included
        exh = halfplane_exh()
        family = harmonic_majorant(exh, LAPLACE, 1.0)
        assert [h.shape for h in family] == [(g.n_nodes,) for g in exh.stages]
        for h in family:
            np.testing.assert_allclose(h, 1.0, atol=1e-12)

    def test_final_field_length_checked(self):
        exh = halfplane_exh()
        with pytest.raises(ValueError, match="w must be a scalar, a callable or a full node"):
            harmonic_majorant(exh, LAPLACE, np.ones(exh.stages[-2].n_nodes))

    def test_decreasing_family_rejected(self):
        # -y^2 is superharmonic, so each stage's extension lies below it, and below the
        # extension on the stage before
        exh = halfplane_exh()
        with pytest.raises(RuntimeError, match="stage 1: majorant family not increasing"):
            harmonic_majorant(exh, LAPLACE, lambda p: -p[:, 1] ** 2)


class TestCorrespondenceRoundtrip:
    def test_linear_data_1d(self):
        grid = build_box_grid((0.0, 1.0), 1 / 32)
        u, rep = correspondence_roundtrip(grid, LAPLACE, RAMP, lambda p: p[:, 0],
                                          tol=1e-12)
        assert rep.passed
        assert rep.reconstruction_residual <= rep.kappa * 1e-12
        assert rep.injective_gap > 0
        assert rep.harmonicity_residual <= 1e-10

    def test_linear_data_2d(self):
        grid = build_box_grid(((0.0, 1.0), (0.0, 1.0)), 1 / 8)
        u, rep = correspondence_roundtrip(grid, LAPLACE, SQRT, lambda p: p[:, 0], tol=1e-11)
        assert rep.passed

    def test_zero_data(self):
        grid = build_box_grid((0.0, 1.0), 1 / 16)
        u, rep = correspondence_roundtrip(grid, LAPLACE, RAMP, 0.0, tol=1e-12)
        assert rep.passed
        assert np.max(np.abs(u)) == 0.0

    def test_larger_data_gives_larger_solution(self):
        grid = build_box_grid((0.0, 1.0), 1 / 32)
        u1, r1 = correspondence_roundtrip(grid, LAPLACE, RAMP, 1.0, tol=1e-12)
        u2, r2 = correspondence_roundtrip(grid, LAPLACE, RAMP, 2.0, tol=1e-12)
        assert r1.passed and r2.passed
        assert np.min(u2 - u1) >= -1e-11
        mid = grid.index_of((0.5,))
        assert u2[mid] - u1[mid] >= 1e-4

    def test_non_harmonic_data_rejected(self):
        grid = build_box_grid((0.0, 1.0), 1 / 16)
        with pytest.raises(ValueError, match="harmonicity"):
            correspondence_roundtrip(grid, LAPLACE, RAMP, lambda p: p[:, 0] ** 2)

    @pytest.mark.parametrize("h", [5e-4, 2e-4, 1e-4])
    def test_harmonic_line_passes_the_harmonicity_check_on_fine_grids(self, h):
        # L(1 + x) = 0 exactly, but rounding reads 1.5e-8 at h = 2e-4, above HARMONICITY_TOL
        grid = build_box_grid((0.0, 1.0), h)
        u, rep = correspondence_roundtrip(grid, LAPLACE, RAMP, lambda p: 1.0 + p[:, 0])
        assert 0 < rep.harmonicity_residual < 1e-7

    @pytest.mark.parametrize("h", [2e-4, 1e-4])
    def test_harmonic_line_passes_the_reconstruction_check_on_fine_grids(self, h):
        # u + G phi(u) is compared with h, which differs from H f by G (L h): 8.4e-10 at
        # h = 2e-4, above kappa * tol = 1.1e-10, within (kappa - 1) * harmonicity_residual
        grid = build_box_grid((0.0, 1.0), h)
        u, rep = correspondence_roundtrip(grid, LAPLACE, RAMP, lambda p: 1.0 + p[:, 0],
                                          tol=1e-10)
        assert rep.passed
        assert rep.reconstruction_residual > rep.kappa * 1e-10
        assert rep.reconstruction_residual <= (rep.kappa * 1e-10
                                               + (rep.kappa - 1.0) * rep.harmonicity_residual)

    def test_negative_data_rejected(self):
        grid = build_box_grid((0.0, 1.0), 1 / 16)
        with pytest.raises(ValueError, match="nonnegative"):
            correspondence_roundtrip(grid, LAPLACE, RAMP, lambda p: -p[:, 0])

    def test_wrong_shape_rejected(self):
        grid = build_box_grid((0.0, 1.0), 1 / 16)
        with pytest.raises(ValueError, match="full node field"):
            correspondence_roundtrip(grid, LAPLACE, RAMP, np.ones(3))


class TestShippedNewtonRuns:
    def test_thin_support_takes_two_steps_per_stage(self, shipped_run):
        _, run, _ = shipped_run("thin_support")
        assert [rep.iterations for rep in run.reports] == [2, 2, 2, 2]

    def test_sqrt_decay_anchors_and_verdict(self, shipped_run):
        # anchors of the projected-Newton runs this scheme replaced
        before = np.array([0.74297152834799862, 0.74126296824161841,
                           0.74126032843477718, 0.74126032842973255])
        cfg, run, _ = shipped_run("sqrt_decay")
        kappa = np.array([condition_factor(factorize(assemble(grid, cfg.coeffs)))
                          for grid, _ in run.stages])
        assert np.all(np.abs(run.anchor_values - before) <= kappa * cfg.tol)
        assert run.triviality_verdict == "nontrivial"
        assert max(rep.iterations for rep in run.reports) <= 20


class TestWallProfile:
    """Both shipped exhaust runs read a 1D wall profile (ROADMAP item 1):
    far from the side walls the stage-3 solution does not depend on x, so
    its anchor equals the 1D solve of the same phi across [delta, delta +
    2 R_3] with data 1 at both ends, read one cell above the wall."""

    @pytest.mark.parametrize("name", ["thin_support", "sqrt_decay"])
    def test_stage_three_anchor_is_the_1d_profile(self, shipped_run, name):
        cfg, run, _ = shipped_run(name)
        grid, _ = run.stages[3]
        (lo, hi), wall_spacing = grid.bbox[1], grid.spacing[1]
        assert (lo, hi, wall_spacing) == (0.25, 64.25, 0.25)
        # the 1D coordinate plays y
        on_y = Nonlinearity(lambda p, t: cfg.phi(np.column_stack([0.0 * p[:, 0], p[:, 0]]), t),
                            differentiable=True)
        line = build_box_grid((lo, hi), wall_spacing)
        u, rep = solve_U(factorize(assemble(line, cfg.coeffs)), 1.0, on_y, tol=cfg.tol,
                         max_iter=cfg.max_iter, scheme=cfg.scheme)
        assert rep.status == "converged"
        assert cfg.anchor == (0.0, 0.5)
        assert abs(run.anchor_values[3] - u[line.index_of((0.5,))]) <= 1e-12

    # the bounded 1D solutions with data 1 on the wall y = delta = 0.25, read at y = 0.5:
    # u'' = sqrt(u) gives u = (1 - (y - delta) / sqrt(12))_+^4, from u = (l - y)^4 / 144;
    # u'' = 1{y>1} u gives u = 1 - (y - delta) / (2 - delta) below y = 1, matched at y = 1
    # to the decaying exponential above
    @pytest.mark.parametrize("phi, exact, coarsest, ratio", [
        (SQRT_N, (1.0 - 0.25 / 12**0.5) ** 4, 1.7e-4, (3.8, 4.2)),
        # first order: the indicator jumps at the node y = 1
        (Nonlinearity(lambda p, t: (p[:, 0] > 1.0) * np.maximum(t, 0.0), differentiable=True),
         1.0 - 0.25 / 1.75, 1.1e-2, (1.9, 2.1)),
    ], ids=["sqrt", "t*1{y>1}"])
    def test_line_converges_to_the_closed_form(self, phi, exact, coarsest, ratio):
        errors = []
        for h in (1 / 4, 1 / 8, 1 / 16):
            line = build_box_grid((0.25, 16.25), h)
            u, rep = solve_U(factorize(assemble(line, LAPLACE)), 1.0, phi, tol=1e-12,
                             scheme="newton")
            assert rep.status == "converged"
            errors.append(abs(u[line.index_of((0.5,))] - exact))
        assert errors[0] <= coarsest
        for coarse, fine in zip(errors, errors[1:]):
            assert ratio[0] <= coarse / fine <= ratio[1]


class TestRefinementLadder:
    """sqrt absorption, wall data 1, R = 4 and 8: Newton's steps and its
    multigrid V-cycles per step barely grow as the grid is refined."""

    @pytest.mark.parametrize("h, steps", [(1 / 4, [12, 15]), (1 / 8, [14, 15])])
    def test_newton_steps_and_vcycles(self, monkeypatch, h, steps):
        vcycle, top_level = multigrid._vcycle, []

        def counting(levels, lu, k, r):
            top_level.append(k == 0)
            return vcycle(levels, lu, k, r)

        monkeypatch.setattr(multigrid, "_vcycle", counting)
        exh = build_exhaustion(4.0, 2, spacing=h, halfplane=True, delta=0.25,
                               anchor=(0.0, 0.5))
        run = run_exhaustion(exh, LAPLACE, SQRT_N, 1.0, scheme="newton")
        assert [rep.status for rep in run.reports] == ["converged"] * 2
        assert [rep.iterations for rep in run.reports] == steps
        assert sum(top_level) <= 12 * sum(steps)
