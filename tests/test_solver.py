import gc
import math
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy import optimize

from semigreen import multigrid, potential, solver
from semigreen.geometry import build_box_grid, build_halfplane_truncation
from semigreen.operator import EllipticCoefficients, assemble, stencil_matrix
from semigreen.potential import factorize, green_potential, harmonic_extension
from semigreen.solver import (
    NonConvergence,
    Nonlinearity,
    apply_T,
    check_comparison,
    check_monotone_in_data,
    condition_factor,
    solve_U,
)
from semigreen.verification import run_suites

RAMP = Nonlinearity(lambda p, t: np.maximum(t, 0.0), differentiable=True)
SQRT = Nonlinearity(lambda p, t: np.sqrt(np.maximum(t, 0.0)))
SQRT_N = Nonlinearity(lambda p, t: np.sqrt(np.maximum(t, 0.0)), differentiable=True)


def laplace(bbox, h):
    grid = build_box_grid(bbox, h)
    op = assemble(grid, EllipticCoefficients(zero_order_mode="c_zero"))
    return grid, op, factorize(op)


class TestNonlinearityValidation:
    def test_negative_values_rejected(self):
        bad = Nonlinearity(lambda p, t: np.full(p.shape[0], -1.0) * (t > 0))
        with pytest.raises(ValueError, match="nonnegative"):
            bad.validate(np.zeros((4, 1)))

    def test_nonvanishing_left_tail_rejected(self):
        bad = Nonlinearity(lambda p, t: np.full(p.shape[0], abs(t)))
        with pytest.raises(ValueError, match="vanish"):
            bad.validate(np.zeros((4, 1)))

    def test_decreasing_rejected(self):
        bad = Nonlinearity(lambda p, t: np.full(p.shape[0], max(1.0 - t, 0.0) if t > 0 else 0.0))
        with pytest.raises(ValueError, match="increasing"):
            bad.validate(np.zeros((4, 1)))

    @pytest.mark.parametrize("phi, match", [
        # t = -1 does not vanish; the probes above t = 0.5 are negative
        (lambda p, t: np.full(p.shape[0], -1.0 if t > 0.5 else abs(t)),
         r"vanish for t <= 0; got 1\.000e\+00 at t=-1\.0$"),
        # a decrease at the first probe above t = 0.5; phi raises at t = 1
        (lambda p, t: np.full(p.shape[0], 1.0 / int(t < 1.0) * (0.1 if t > 0.5 else max(t, 0.0))),
         r"decrease detected at t=0\.533"),
    ])
    def test_earliest_failing_probe_is_reported(self, phi, match):
        with pytest.raises(ValueError, match=match):
            Nonlinearity(phi).validate(np.zeros((4, 1)))

    @staticmethod
    def validate_probe_by_probe(phi, points, t_max=1.0):
        """The reference: one checked call and one comparison per probe."""
        m = solver.MONOTONE_CHECK_SAMPLES
        pts = points[np.linspace(0, points.shape[0] - 1, min(m, points.shape[0])).astype(int)]
        prev = None
        for t in np.concatenate([[-1.0, -1e-9, 0.0], np.linspace(1e-9, max(t_max, 1e-9), m)]):
            vals = phi(pts, t)
            if t <= 0 and np.any(vals != 0):
                raise ValueError(f"phi(x, t) must vanish for t <= 0; got {vals.max():.3e} at t={t}")
            if prev is not None and np.any(vals < prev - 1e-12 * max(1.0, float(np.max(prev)))):
                raise ValueError(f"phi must be increasing in t; decrease detected at t={t}")
            prev = vals

    def test_matches_the_probe_by_probe_reference(self):
        def outcome(validate):
            try:
                validate()
            except (ValueError, ZeroDivisionError) as e:
                return f"{type(e).__name__}: {e}"
            return "ok"

        points = np.linspace(0.0, 1.0, 50)[:, None]
        for seed in range(40):
            # sqrt(t_+) with up to three faults switched on above random t thresholds
            rng = np.random.default_rng(seed)
            faults = list(zip(rng.integers(0, 6, size=3), rng.uniform(-1.5, 1.5, size=3)))

            def phi(p, t, faults=faults):
                out = np.sqrt(max(t, 0.0)) * (1.0 + p[:, 0])
                for kind, above in faults:
                    if t >= above:
                        if kind == 4:
                            raise ZeroDivisionError(f"at t={t}")
                        out = [out + 0.5, out - 2.0, 0.1 * out,
                               np.where(p[:, 0] > 0.5, np.nan, out), None, 0.25][kind]
                return out

            bad, t_max = Nonlinearity(phi), [0.5, 1.0, 3.0][seed % 3]
            assert (outcome(lambda: bad.validate(points, t_max))
                    == outcome(lambda: self.validate_probe_by_probe(bad, points, t_max))), seed

    def test_scalar_t_broadcasts(self):
        vals = RAMP(np.zeros((3, 1)), 2.0)
        np.testing.assert_allclose(vals, 2.0)

    def test_scalar_result_broadcasts(self):
        np.testing.assert_array_equal(Nonlinearity(lambda p, t: 0.5)(np.zeros((3, 1)), 1.0),
                                      [0.5, 0.5, 0.5])

    @pytest.mark.parametrize("phi", [SQRT.phi, lambda p, t: 0.5], ids=["array", "scalar"])
    def test_no_points_give_no_values(self, phi):
        # Newton's slope on an empty free set evaluates phi on no points
        vals = Nonlinearity(phi)(np.zeros((0, 2)), 0.5)
        assert vals.shape == (0,) and vals.dtype == float

    @pytest.mark.parametrize("value, match", [(np.nan, "finite"), (np.inf, "finite"),
                                              (-1.0, "nonnegative")])
    def test_every_call_rejects_bad_values(self, value, match):
        bad = Nonlinearity(lambda p, t: np.where(p[:, 0] > 0.5, value, 1.0))
        with pytest.raises(ValueError, match=match):
            bad(np.array([[0.25], [0.75]]), 1.0)
        with pytest.raises(ValueError, match=match):
            Nonlinearity(lambda p, t: value)(np.zeros((2, 1)), 1.0)


class TestSolveBasics:
    def test_zero_data_short_circuit(self):
        grid, op, gop = laplace((0.0, 1.0), 0.125)
        u, rep = solve_U(gop, 0.0, SQRT)
        assert np.max(np.abs(u)) == 0.0
        assert rep.iterations == 0 and rep.status == "converged"

    def test_negative_data_rejected(self):
        grid, op, gop = laplace((0.0, 1.0), 0.125)
        with pytest.raises(ValueError, match="nonnegative"):
            solve_U(gop, -1.0, RAMP)

    def test_unknown_scheme(self):
        grid, op, gop = laplace((0.0, 1.0), 0.125)
        with pytest.raises(ValueError, match="scheme"):
            solve_U(gop, 1.0, RAMP, scheme="secant")

    @pytest.mark.parametrize("omega", [0.0, 1.5])
    def test_omega_out_of_range_rejected(self, omega):
        grid, op, gop = laplace((0.0, 1.0), 0.125)
        with pytest.raises(ValueError, match=r"omega must be in \(0, 1\]"):
            solve_U(gop, 1.0, RAMP, scheme="damped_picard", omega=omega)

    def test_newton_needs_differentiable_flag(self):
        grid, op, gop = laplace((0.0, 1.0), 0.125)
        with pytest.raises(ValueError, match="differentiable"):
            solve_U(gop, 1.0, SQRT, scheme="newton")

    def test_boundary_values_kept(self):
        grid, op, gop = laplace((0.0, 1.0), 0.125)
        fb = np.linspace(1.0, 2.0, grid.n_nodes - grid.n_interior)
        u, _ = solve_U(gop, fb, RAMP)
        np.testing.assert_allclose(u[grid.boundary_nodes], fb)

    def test_stall_is_reported_not_raised(self):
        grid, op, gop = laplace((0.0, 1.0), 0.125)
        u, rep = solve_U(gop, 1.0, RAMP, tol=1e-14, max_iter=1)
        assert rep.status == "max_iter"
        assert np.all(np.isfinite(u))

    @pytest.mark.parametrize("start, match", [(np.ones(3), "start must be a scalar"),
                                              (np.nan, "start must be finite")])
    def test_bad_start_rejected(self, start, match):
        grid, op, gop = laplace((0.0, 1.0), 0.125)
        for scheme in ("sandwich", "newton"):
            with pytest.raises(ValueError, match=match):
                solve_U(gop, 1.0, RAMP, scheme=scheme, start=start)


class TestBenchmark:
    """u'' = u on (0,1), u(0) = u(1) = 1: solution cosh(x - 1/2)/cosh(1/2)."""

    def solve(self, h, scheme="sandwich", tol=1e-12):
        grid, op, gop = laplace((0.0, 1.0), h)
        u, rep = solve_U(gop, 1.0, RAMP, tol=tol, max_iter=400, scheme=scheme)
        assert rep.status == "converged"
        return grid, u, rep

    def test_midpoint_value(self):
        grid, u, _ = self.solve(1 / 64)
        mid = u[grid.index_of((0.5,))]
        assert abs(mid - math.cosh(0.0) / math.cosh(0.5)) <= 5e-6

    def test_second_order_convergence(self):
        errs = []
        for h in (1 / 16, 1 / 32):
            grid, u, _ = self.solve(h)
            exact = np.cosh(grid.nodes[:, 0] - 0.5) / math.cosh(0.5)
            errs.append(np.max(np.abs(u - exact)))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_schemes_agree(self):
        fields = [self.solve(1 / 32, scheme=s)[1] for s in ("sandwich", "damped_picard", "newton")]
        for other in fields[1:]:
            assert np.max(np.abs(fields[0] - other)) <= 1e-10

    def test_sandwich_is_damped_picard_at_omega_one(self):
        grid, op, gop = laplace((0.0, 1.0), 1 / 32)
        _, rs = solve_U(gop, 1.0, SQRT, tol=1e-12, max_iter=500, scheme="sandwich")
        _, rd = solve_U(gop, 1.0, SQRT, tol=1e-12, max_iter=500, scheme="damped_picard",
                        omega=1.0)
        assert rs.residual_history == rd.residual_history
        assert rs.final_identity_residual == rs.residual_history[-1]

    def test_report_residual_matches_recomputation(self):
        grid, op, gop = laplace((0.0, 1.0), 1 / 32)
        u, rep = solve_U(gop, 1.0, RAMP, tol=1e-12)
        tu = apply_T(gop, 1.0, u, RAMP)
        assert np.max(np.abs(u - tu)) == pytest.approx(rep.final_identity_residual, abs=1e-15)
        assert rep.final_identity_residual <= 1e-12

    @pytest.mark.parametrize("scheme", solver.SCHEMES)
    def test_report_residual_matches_recomputation_at_max_iter(self, scheme):
        # the Picard schemes stop at max_iter here; every scheme must return
        # the field its last recorded residual describes
        grid = build_box_grid(((0.0, 4.0), (0.0, 4.0)), 0.125)
        gop = factorize(assemble(grid, EllipticCoefficients(zero_order_mode="c_zero")))
        phi = Nonlinearity(lambda p, t: 5.0 * np.maximum(t, 0.0), differentiable=True)
        u, rep = solve_U(gop, 1.0, phi, tol=1e-10, max_iter=3, scheme=scheme)
        assert rep.status == ("converged" if scheme == "newton" else "max_iter")
        assert rep.iterations == len(rep.residual_history) - 1 <= 3
        tu = apply_T(gop, 1.0, u, phi)
        assert np.max(np.abs(u - tu)) == pytest.approx(rep.final_identity_residual, abs=1e-12)


class TestNonsmoothCrossValidation:
    def test_sqrt_problem_matches_root_finder(self):
        # same discrete system solved by an unrelated method: u'' = sqrt(u+)
        grid, op, gop = laplace((0.0, 1.0), 1 / 32)
        pts = grid.nodes[grid.interior_nodes]
        fb = np.ones(grid.n_nodes - grid.n_interior)
        rhs = op.B @ fb

        def system(ui):
            return op.K @ ui + SQRT(pts, ui) - rhs

        sol = optimize.root(system, 0.9 * np.ones(grid.n_interior), method="hybr", tol=1e-13)
        assert sol.success
        u, rep = solve_U(gop, 1.0, SQRT, tol=1e-12, max_iter=500)
        assert rep.status == "converged"
        assert np.max(np.abs(u[grid.interior_nodes] - sol.x)) <= 1e-7

    def test_newton_handles_sqrt_declared_differentiable(self):
        # the free-set tangent iteration absorbs the kink at the dead core
        grid, op, gop = laplace((0.0, 1.0), 1 / 32)
        phi = Nonlinearity(lambda p, t: np.sqrt(np.maximum(t, 0.0)), differentiable=True)
        un, rn = solve_U(gop, 1.0, phi, tol=1e-12, scheme="newton")
        us, rs = solve_U(gop, 1.0, phi, tol=1e-12, scheme="sandwich", max_iter=500)
        assert rn.status == rs.status == "converged"
        assert rn.iterations < rs.iterations
        assert np.max(np.abs(un - us)) <= 1e-10


class TestSandwichStructure:
    def test_iterates_interleave(self):
        grid, op, gop = laplace((0.0, 1.0), 1 / 16)
        v = harmonic_extension(gop, 1.0)
        iterates = [v]
        for _ in range(6):
            iterates.append(apply_T(gop, 1.0, iterates[-1], RAMP))
        evens = iterates[0::2]
        odds = iterates[1::2]
        for a, b in zip(evens, evens[1:]):
            assert np.all(b <= a + 1e-12)
        for a, b in zip(odds, odds[1:]):
            assert np.all(b >= a - 1e-12)
        assert np.all(np.max(np.stack(odds), axis=0) <= np.min(np.stack(evens), axis=0) + 1e-12)

    def test_solution_is_fixed_point(self):
        grid, op, gop = laplace((0.0, 1.0), 1 / 16)
        u, _ = solve_U(gop, 1.0, SQRT, tol=1e-12, max_iter=500)
        np.testing.assert_allclose(apply_T(gop, 1.0, u, SQRT), u, atol=1e-11)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_T_is_antitone(self, seed):
        grid, op, gop = laplace((0.0, 1.0), 1 / 8)
        rng = np.random.default_rng(seed)
        v1 = rng.uniform(0.0, 1.0, grid.n_nodes)
        v2 = v1 + rng.uniform(0.0, 1.0, grid.n_nodes)
        t1 = apply_T(gop, 1.0, v1, RAMP)
        t2 = apply_T(gop, 1.0, v2, RAMP)
        assert np.all(t2 <= t1 + 1e-12)

    @given(st.floats(0.1, 3.0), st.floats(0.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_solution_bracket(self, amp, slope):
        # 0 <= u <= H f whenever the data is nonnegative
        grid, op, gop = laplace((0.0, 1.0), 1 / 8)
        fb = amp + slope * grid.nodes[grid.boundary_nodes, 0]
        u, rep = solve_U(gop, fb, SQRT, tol=1e-10, max_iter=500)
        assert rep.status == "converged"
        hf = harmonic_extension(gop, fb)
        assert np.min(u) >= -1e-12
        assert np.all(u <= hf + 1e-12)


class TestDampedPicardFallback:
    """The case that keeps damped_picard: a steep phi not declared
    differentiable, where max(G_D 1) * Lip(phi) = 0.0734 * 50 = 3.67 > 1."""

    STEEP = Nonlinearity(lambda p, t: 50.0 * np.maximum(t, 0.0))

    def setup_method(self):
        self.grid, _, self.gop = laplace(((0.0, 1.0), (0.0, 1.0)), 1 / 16)

    def test_contraction_premise_fails(self):
        assert np.max(green_potential(self.gop, 1.0)) * 50.0 == pytest.approx(3.672, abs=1e-3)

    def test_sandwich_stalls(self):
        _, rep = solve_U(self.gop, 1.0, self.STEEP, scheme="sandwich")
        assert (rep.status, rep.iterations) == ("max_iter", 200)
        assert rep.final_identity_residual == pytest.approx(3.482, abs=1e-3)

    def test_damped_picard_converges(self):
        u, rep = solve_U(self.gop, 1.0, self.STEEP, scheme="damped_picard", omega=0.5)
        assert (rep.status, rep.iterations) == ("converged", 82)
        assert rep.final_identity_residual <= 1e-10
        np.testing.assert_allclose(apply_T(self.gop, 1.0, u, self.STEEP), u, atol=1e-9)

    def test_newton_needs_a_differentiable_phi(self):
        with pytest.raises(ValueError, match="declared differentiable"):
            solve_U(self.gop, 1.0, self.STEEP, scheme="newton")


class TestComparisonChecks:
    def setup_method(self):
        self.grid, self.op, self.gop = laplace((0.0, 1.0), 1 / 16)

    def test_ordered_solutions_pass(self):
        u1, _ = solve_U(self.gop, 1.0, RAMP, tol=1e-12)
        u2, _ = solve_U(self.gop, 1.5, RAMP, tol=1e-12)
        verdict = check_comparison(self.gop, u2, u1, RAMP)
        assert verdict.passed
        assert verdict.kappa >= 1.0

    def test_boundary_premise_failure(self):
        u1, _ = solve_U(self.gop, 1.0, RAMP, tol=1e-12)
        u2, _ = solve_U(self.gop, 1.5, RAMP, tol=1e-12)
        verdict = check_comparison(self.gop, u1, u2, RAMP)
        assert not verdict.passed
        assert "boundary" in verdict.reason

    def test_residual_premise_failure(self):
        u, _ = solve_U(self.gop, 1.0, RAMP, tol=1e-12)
        dented = u.copy()
        dented[self.grid.interior_nodes] -= 0.1 * np.sin(
            np.pi * self.grid.nodes[self.grid.interior_nodes, 0]
        )
        # a concave dent raises L(u) - phi(u) without moving the boundary
        verdict = check_comparison(self.gop, dented, u, RAMP)
        assert not verdict.passed
        assert "residual" in verdict.reason

    def verdict(self, case):
        u1, _ = solve_U(self.gop, 1.0, RAMP, tol=1e-12)
        u2, _ = solve_U(self.gop, 1.5, RAMP, tol=1e-12)
        inner = self.grid.interior_nodes
        dent = np.zeros(self.grid.n_nodes)
        dent[inner] = 0.1 * np.sin(np.pi * self.grid.nodes[inner, 0])
        # phi decreasing in t (check_comparison does not validate it): u = -dent has
        # L u - phi(u) = (lam - 20) dent <= 0 = L 0 - phi(0), lam < pi^2 the discrete
        # eigenvalue of sin(pi x), so both premises hold and yet u < 0 inside
        falling = Nonlinearity(lambda p, t: 20.0 * np.maximum(-t, 0.0))
        return {
            "pass": lambda: check_comparison(self.gop, u2, u1, RAMP),
            "residual": lambda: check_comparison(self.gop, u1 - dent, u1, RAMP),
            "boundary": lambda: check_comparison(self.gop, u1, u2, RAMP),
            "conclusion": lambda: check_comparison(self.gop, -dent, 0.0, falling),
            "monotone": lambda: check_monotone_in_data(self.gop, 1.0, 2.0, RAMP, tol=1e-9),
        }[case]()

    @pytest.mark.parametrize("case, reason", [
        ("pass", ""), ("residual", "residual premise violated"),
        ("boundary", "boundary premise violated"),
        ("conclusion", "interior conclusion violated"), ("monotone", ""),
    ], ids=["pass", "residual", "boundary", "conclusion", "monotone"])
    def test_margin_is_negative_exactly_on_failure(self, case, reason):
        # the margin is the slack of the deciding inequality in every verdict
        v = self.verdict(case)
        assert v.reason == reason and v.passed == (not reason)
        assert (v.margin < 0) == (not v.passed)

    def test_identical_fields_pass(self):
        u, _ = solve_U(self.gop, 1.0, RAMP, tol=1e-12)
        verdict = check_comparison(self.gop, u, u, RAMP)
        assert verdict.passed and verdict.reason == ""

    def test_needs_full_fields(self):
        u, _ = solve_U(self.gop, 1.0, RAMP, tol=1e-12)
        with pytest.raises(ValueError, match="full node field"):
            check_comparison(self.gop, u[self.grid.interior_nodes], u, RAMP)

    @pytest.mark.parametrize("arg", ["u", "v"])
    def test_non_finite_field_raises_naming_it(self, arg):
        u, _ = solve_U(self.gop, 1.0, RAMP, tol=1e-12)
        bad = u.copy()
        bad[self.grid.interior_nodes[3]] = np.nan
        fields = {"u": u, "v": u, arg: bad}
        with pytest.raises(ValueError, match=f"{arg} must be finite"):
            check_comparison(self.gop, fields["u"], fields["v"], RAMP)

    @pytest.mark.parametrize("value, match", [(np.nan, "finite"), (-1.0, "nonnegative")])
    def test_bad_phi_raises(self, value, match):
        # identical fields satisfy every inequality, so only the phi check can fail
        u, _ = solve_U(self.gop, 1.0, RAMP, tol=1e-12)
        bad = Nonlinearity(lambda p, t: np.full(p.shape[0], value))
        with pytest.raises(ValueError, match=match):
            check_comparison(self.gop, u, u, bad)

    def test_monotone_in_data(self):
        verdict = check_monotone_in_data(self.gop, 1.0, 2.0, RAMP, tol=1e-9)
        assert verdict.passed

    def test_monotone_precondition(self):
        with pytest.raises(ValueError, match="pre-condition"):
            check_monotone_in_data(self.gop, 2.0, 1.0, RAMP)

    def test_monotone_propagates_nonconvergence(self):
        match = r"solve for data f ended with status 'max_iter' \(last identity residuals "
        with pytest.raises(NonConvergence, match=match):
            check_monotone_in_data(self.gop, 1.0, 2.0, SQRT, max_iter=2)

    def test_condition_factor_interval(self):
        # 1 + max x(1-x)/2 on the unit interval
        assert condition_factor(self.gop) == pytest.approx(1.125, abs=1e-12)

    def test_condition_factor_solves_once_per_operator(self, monkeypatch):
        solves = []
        solve = potential.GreenOperator.solve
        monkeypatch.setattr(potential.GreenOperator, "solve",
                            lambda gop, rhs: solves.append(1) or solve(gop, rhs))
        gop = factorize(self.op)
        assert condition_factor(gop) == condition_factor(gop)
        assert len(solves) == 1


class TestFactorizationCount:
    def test_comparison_suite_factorizes_once_per_trial(self, splu_calls):
        # check_comparison reuses the caller's factorization
        (result,) = run_suites(["comparison"], trials=5)
        assert result.passed
        assert len(splu_calls) == 5

    def test_comparison_suite_computes_kappa_once_per_trial(self, monkeypatch):
        kappa_solves = []
        solve = potential.GreenOperator.solve

        def counting_solve(self, rhs):
            if np.all(np.asarray(rhs) == 1.0):
                kappa_solves.append(1)
            return solve(self, rhs)

        monkeypatch.setattr(potential.GreenOperator, "solve", counting_solve)
        (result,) = run_suites(["comparison"], trials=5)
        assert result.passed
        assert len(kappa_solves) == 5


def halfplane_sqrt(h, radius=8.0, b1=0.0):
    """One stage of the shipped sqrt_decay physics: Laplacian, data 1, sqrt
    absorption. A drift b1 makes K non-separable, so Newton's steps take the LU."""
    grid = build_halfplane_truncation(radius, 0.25, h)
    op = assemble(grid, EllipticCoefficients(b1=b1, zero_order_mode="c_zero"))
    assert (op.stencil is None) == (b1 != 0.0)
    return grid, factorize(op)


DRIFT = 0.5  # the LU-branch tests below run on a non-separable operator


class TestFreeSetNewton:
    def test_iterations_mesh_independent(self):
        iterations = []
        for h in (0.25, 0.125):
            _, gop = halfplane_sqrt(h)
            _, rep = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
            assert rep.status == "converged"
            iterations.append(rep.iterations)
        assert max(iterations) <= 25
        assert iterations[1] <= 1.2 * iterations[0]

    def test_linear_systems_fit_the_free_set(self, monkeypatch):
        sizes = []

        class RecordingLinalg:
            def spsolve(self, A, b, **kw):
                sizes.append(A.shape[0])
                return spla.spsolve(A, b, **kw)

        monkeypatch.setattr(solver, "spla", RecordingLinalg())
        grid, gop = halfplane_sqrt(0.25, radius=4.0, b1=DRIFT)
        _, rep = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
        assert rep.status == "converged"
        assert len(rep.dead_set_history) == rep.iterations
        assert max(rep.dead_set_history) > 0
        assert sizes == [grid.n_interior - a for a in rep.dead_set_history]

    def test_every_linear_solve_uses_the_symmetric_ordering(self, monkeypatch):
        orderings = []

        class RecordingLinalg:
            def spsolve(self, A, b, **kw):
                orderings.append(kw.get("permc_spec"))
                return spla.spsolve(A, b, **kw)

        monkeypatch.setattr(solver, "spla", RecordingLinalg())
        _, gop = halfplane_sqrt(0.25, radius=4.0, b1=DRIFT)
        _, rep = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
        # both the full-size step and the free-block step ran
        assert 0 in rep.dead_set_history and max(rep.dead_set_history) > 0
        assert orderings == [solver.ORDERING] * rep.iterations

    def test_jacobian_is_K_plus_the_slope_diagonal(self, monkeypatch):
        # reference: each step's system built as the sparse sum K_II + diag(d_I)
        # from the three phi evaluations the step makes (at u, then at u_I + s_abs
        # and u_I + s_rel: the slope is taken on the free nodes I only)
        evals, systems = [], []

        def recording(p, t):
            out = SQRT_N(p, t)
            if np.ndim(t):  # skip validate's scalar probes
                evals.append((np.array(t), out))
            return out

        class RecordingLinalg:
            def spsolve(self, A, b, **kw):
                systems.append(A.copy())
                return spla.spsolve(A, b, **kw)

        monkeypatch.setattr(solver, "spla", RecordingLinalg())
        grid, gop = halfplane_sqrt(0.25, radius=4.0, b1=DRIFT)
        phi = Nonlinearity(recording, differentiable=True)
        _, rep = solve_U(gop, 1.0, phi, tol=1e-10, scheme="newton")
        assert rep.status == "converged"
        assert 0 in rep.dead_set_history and max(rep.dead_set_history) > 0
        assert len(systems) == rep.iterations
        K = gop.op.K
        bf = gop.op.B @ np.ones(grid.n_nodes - grid.n_interior)
        for k, A in enumerate(systems):
            (u, p), (_, p_abs), (_, p_rel) = evals[3 * k:3 * k + 3]
            free = np.flatnonzero(u > (K @ u + p - bf) / K.diagonal())
            u, p = u[free], p[free]
            s_abs, s_rel = 1e-6 * (1.0 + np.abs(u)), 1e-6 * np.abs(u) + 1e-300
            d = np.maximum(np.maximum((p_abs - p) / s_abs, (p_rel - p) / s_rel), 0.0)
            expected = K[free][:, free] + sp.diags(d)
            assert A.shape == expected.shape
            assert np.array_equal(A.indptr, expected.indptr)
            assert np.array_equal(A.indices, expected.indices)
            assert np.array_equal(A.data, expected.data)

    def test_ordering_leaves_the_solution_unchanged(self, monkeypatch):
        _, gop = halfplane_sqrt(0.25, radius=4.0, b1=DRIFT)
        u, rep = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
        monkeypatch.setattr(solver, "ORDERING", "COLAMD")
        ref, ref_rep = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
        assert rep.dead_set_history == ref_rep.dead_set_history
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_picard_schemes_record_no_dead_set(self):
        _, gop = halfplane_sqrt(0.25, radius=2.0)
        for scheme in ("sandwich", "damped_picard"):
            _, rep = solve_U(gop, 1.0, SQRT, tol=1e-10, max_iter=500, scheme=scheme)
            assert rep.status == "converged"
            assert rep.dead_set_history == []


class TestAllDeadPrediction:
    """At spacing 4 (diag K = 1/4) the cold start u = H f = 1 makes the
    predictor mark every node dead: that step solves an empty system, every
    node shrinks to THETA u, and the solve goes on as usual."""

    @pytest.mark.parametrize("b1", [0.0, 0.01], ids=["cg", "lu"])
    def test_newton_converges(self, b1):
        grid = build_box_grid(((-8.0, 8.0), (0.25, 16.25)), 4.0)
        gop = factorize(assemble(grid, EllipticCoefficients(b1=b1, zero_order_mode="c_zero")))
        assert grid.n_interior == 9 and (gop.op.stencil is None) == (b1 != 0.0)
        u, rep = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
        assert rep.status == "converged"
        assert rep.dead_set_history[0] == grid.n_interior
        assert np.min(u) > 0.0


class TestSolveFree:
    """solve_free with d = 0 solves K on the free set alone: the same call
    serves Newton's step and a capacity solve on a masked set."""

    @pytest.mark.parametrize("b1, lus", [(0.0, 0), (DRIFT, 1)], ids=["cg", "lu"])
    def test_zero_slope_solves_K_on_the_free_set(self, monkeypatch, b1, lus):
        sizes = []

        class RecordingLinalg:
            def spsolve(self, A, b, **kw):
                sizes.append(A.shape[0])
                return spla.spsolve(A, b, **kw)

        grid, gop = halfplane_sqrt(0.25, radius=4.0, b1=b1)
        pts = grid.nodes[grid.interior_nodes]
        free = np.hypot(pts[:, 0], pts[:, 1] - 2.0) > 1.0  # a disk of the interior is masked
        n_free = int(np.count_nonzero(free))
        assert 0 < n_free < grid.n_interior
        rhs = np.linspace(1.0, 2.0, n_free)
        ref = spla.spsolve(gop.op.K[free][:, free], rhs)
        monkeypatch.setattr(solver, "spla", RecordingLinalg())
        x = solver.solve_free(gop, free, 0.0, rhs, 1e-10)
        # the separable K takes multigrid CG, the drift operator the LU
        assert sizes == [n_free] * lus
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("bbox, h, coeffs", [
        ((0.0, 4.0), 1 / 16, EllipticCoefficients()),
        (((0.0, 1.0), (0.0, 1.0)), 1 / 32, EllipticCoefficients(zero_order_mode="c_zero")),
        (((0.0, 1.0), (0.0, 2.0)), (1 / 8, 1 / 32), EllipticCoefficients(a22=7.0, c=-2.5)),
        (((0.0, 0.375), (0.0, 4.125)), 1 / 16, EllipticCoefficients(zero_order_mode="c_zero")),
    ], ids=["1d", "2d", "anisotropic_c<0", "skinny_5x65"])
    @pytest.mark.parametrize("mask", ["all", "empty", "disk", "random_0.3", "random_0.8"])
    def test_stencil_jacobian_is_the_sliced_K(self, bbox, h, coeffs, mask):
        # a separable operator's J is filled from its stencil record, no K: the
        # arrays of K[:, free][free] with d added to its diagonal, dtypes included
        grid = build_box_grid(bbox, h)
        op = assemble(grid, coeffs)
        n = grid.n_interior
        rng = np.random.default_rng(n)
        if mask == "disk":  # a dead core around the middle node
            pts = grid.nodes[grid.interior_nodes]
            free = np.linalg.norm(pts - pts[n // 2], axis=1) > 0.3 * np.ptp(pts[:, -1])
        elif mask.startswith("random"):
            free = rng.random(n) < float(mask.split("_")[1])
        else:
            free = np.full(n, mask == "all")
        n_free = int(np.count_nonzero(free))
        assert mask in ("all", "empty") or 0 < n_free < n
        for d in (0.0, rng.random(n_free) * 10.0 ** rng.integers(-20, 5, n_free)):
            J = stencil_matrix(op, free, d)
            ref = op.K[:, free][free]
            ref.setdiag(ref.diagonal() + d)
            assert J.format == "csc" and J.shape == ref.shape == (n_free, n_free)
            for a in ("data", "indices", "indptr"):
                assert getattr(J, a).dtype == getattr(ref, a).dtype
                assert np.array_equal(getattr(J, a).view(np.uint8), getattr(ref, a).view(np.uint8))


class TestPcgExits:
    """multigrid.pcg gives up, returning None, when J is not positive on a
    search direction, or after MAX_ITER iterations; solve_free then takes
    the LU."""

    def test_indefinite_jacobian_gives_up(self):
        # r is J's eigenvector for -1, on which the V-cycle is positive, so p^T J p < 0
        J = sp.csc_matrix([[1.0, 2.0], [2.0, 1.0]])
        assert multigrid.pcg(J, np.ones(2, bool), np.array([1.0, -1.0]), (2,), 1e-10) is None

    def test_max_iter_gives_up_and_solve_free_takes_the_lu(self, monkeypatch):
        grid, _, gop = laplace(((0.0, 1.0), (0.0, 1.0)), 1 / 18)
        assert grid.n_interior == 17 ** 2 and gop.op.stencil is not None
        free, rhs = np.ones(grid.n_interior, bool), np.linspace(1.0, 2.0, grid.n_interior)
        monkeypatch.setattr(multigrid, "MAX_ITER", 1)
        assert multigrid.pcg(gop.op.K.copy(), free, rhs, (17, 17), 1e-10) is None
        x = solver.solve_free(gop, free, 0.0, rhs, 1e-10)
        ref = spla.spsolve(gop.op.K, rhs)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))


def kron_prolongation(m):
    """(P, inj) for one coarsening of the interior shape m, the reference
    for multigrid.restriction: P, the whole-lattice prolongation, is the
    Kronecker product of 1D linear interpolation on each axis of more than
    3 points and the identity on the others; inj holds the fine index of
    each coarse node."""
    mc = tuple(k // 2 if k > 3 else k for k in m)
    P = sp.csr_matrix(np.ones((1, 1)))
    for k, kc in zip(m, mc):
        j = np.arange(kc)
        rows = np.concatenate([2 * j + 1, 2 * j, 2 * j + 2])
        vals = np.repeat([1.0, 0.5, 0.5], kc)
        inside = rows < k
        P1 = sp.csr_matrix((vals[inside], (rows[inside], np.tile(j, 3)[inside])),
                           shape=(k, kc)) if kc < k else sp.identity(k, format="csr")
        P = sp.kron(P, P1, format="csr")
    inj = np.arange(math.prod(m)).reshape(m)[
        tuple(slice(1, 2 * kc, 2) if kc < k else slice(None) for k, kc in zip(m, mc))]
    return P, inj.ravel()


class TestRestriction:
    """multigrid.restriction(m, free) builds R = P_f^T from index arithmetic:
    bit for bit the CSR transpose of the sliced Kronecker prolongation
    P[free][:, kept], level after level."""

    @pytest.mark.parametrize("shape", [(31, 31), (3, 4095), (15, 255), (63,), (1023,),
                                       (7, 5, 9)])
    @pytest.mark.parametrize("mask", ["dead", "all"])
    def test_equals_the_sliced_kronecker_prolongation(self, shape, mask):
        m, n = shape, math.prod(shape)
        if mask == "all":  # exhaustion's coarse start
            free = np.ones(n, dtype=bool)
        elif shape == (31, 31):  # a disk dead core
            i, j = np.unravel_index(np.arange(n), shape)
            free = np.hypot(i - 15, j - 12) > 6
        else:
            free = np.random.default_rng(n).random(n) < 0.8
        levels = 0
        while max(m) > 3:
            P, inj = kron_prolongation(m)
            R, kept = multigrid.restriction(m, free)
            assert np.array_equal(kept, free[inj])
            ref = P[np.flatnonzero(free)][:, np.flatnonzero(kept)].T.tocsr()
            assert R.format == "csr" and R.shape == ref.shape
            for a in ("data", "indices", "indptr"):
                assert getattr(R, a).dtype == getattr(ref, a).dtype
                assert np.array_equal(getattr(R, a), getattr(ref, a))
            if not kept.any():
                break
            m = tuple(len(np.unique(i)) for i in np.unravel_index(inj, m))
            free, levels = kept, levels + 1
        assert levels >= 2 and (mask == "dead" or max(m) <= 3)


class TestMultigridNewton:
    """On a separable K, solver.solve_free solves Newton's steps by
    multigrid CG (multigrid.pcg); the LU runs only for a step whose CG did
    not converge."""

    @staticmethod
    def record(monkeypatch):
        """(J, free, rhs, step) of every multigrid.pcg call, and the size of
        every spsolve system."""
        calls, lus = [], []
        pcg = multigrid.pcg

        def spy(J, free, rhs, m, tol):
            x = pcg(J, free, rhs, m, tol)
            calls.append((J.copy(), free.copy(), rhs.copy(), x))
            return x

        class RecordingLinalg:
            def spsolve(self, A, b, **kw):
                lus.append(A.shape[0])
                return spla.spsolve(A, b, **kw)

        monkeypatch.setattr(multigrid, "pcg", spy)
        monkeypatch.setattr(solver, "spla", RecordingLinalg())
        return calls, lus

    def test_systems_fit_the_free_set(self, monkeypatch):
        calls, lus = self.record(monkeypatch)
        grid, gop = halfplane_sqrt(0.25, radius=4.0)
        _, rep = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
        assert rep.status == "converged"
        assert 0 in rep.dead_set_history and max(rep.dead_set_history) > 0
        free_sizes = [grid.n_interior - a for a in rep.dead_set_history]
        assert [J.shape[0] for J, *_ in calls] == free_sizes
        assert [int(np.count_nonzero(free)) for _, free, *_ in calls] == free_sizes
        assert all(x is not None for *_, x in calls)
        assert lus == []

    def test_cg_agrees_with_the_lu_on_newton_jacobians(self, monkeypatch):
        calls, _ = self.record(monkeypatch)
        _, gop = halfplane_sqrt(0.125, radius=4.0)
        _, rep = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
        assert rep.status == "converged"
        assert max(rep.dead_set_history) > 0
        for J, _, rhs, x in calls:
            ref = spla.spsolve(J, rhs, permc_spec=solver.ORDERING)
            assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    def assert_every_step_takes_the_lu(self, monkeypatch, gop):
        monkeypatch.setattr(multigrid, "pcg", lambda *a: None)
        ref, _ = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
        monkeypatch.undo()
        calls, lus = self.record(monkeypatch)
        u, rep = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
        assert rep.status == "converged"
        assert len(calls) == len(lus) == rep.iterations > 0
        assert all(x is None for *_, x in calls)
        assert np.array_equal(u, ref)

    def test_anisotropic_box_falls_back_to_the_lu(self, monkeypatch):
        # cells 256 times wider than tall: point Jacobi does not smooth across
        # the weak axis, CG stalls and every step takes the LU
        grid = build_box_grid(((0.0, 1.0), (0.0, 1.0)), (1 / 16, 1 / 256))
        gop = factorize(assemble(grid, EllipticCoefficients(zero_order_mode="c_zero")))
        self.assert_every_step_takes_the_lu(monkeypatch, gop)

    def test_anisotropic_coefficient_falls_back_to_the_lu(self, monkeypatch):
        # square cells, a22 / a11 = 64: the same weak coupling from the coefficients
        grid = build_box_grid(((0.0, 1.0), (0.0, 1.0)), 1 / 32)
        gop = factorize(assemble(grid, EllipticCoefficients(a22=64.0, zero_order_mode="c_zero")))
        assert gop.op.stencil is not None
        self.assert_every_step_takes_the_lu(monkeypatch, gop)

    def test_anisotropic_box_gives_up_when_cg_stalls(self, monkeypatch):
        # there 5 iterations cut the residual by at most 5x: CG stops at the first
        # such window (5 and 8 V-cycles) instead of running all MAX_ITER = 50
        grid = build_box_grid(((0.0, 1.0), (0.0, 1.0)), (1 / 16, 1 / 256))
        gop = factorize(assemble(grid, EllipticCoefficients(zero_order_mode="c_zero")))
        per_step = []
        vcycle, pcg = multigrid._vcycle, multigrid.pcg

        def counting_vcycle(levels, k, r):
            per_step[-1] += k == 0
            return vcycle(levels, k, r)

        def counting_pcg(*args):
            per_step.append(0)
            return pcg(*args)

        monkeypatch.setattr(multigrid, "_vcycle", counting_vcycle)
        monkeypatch.setattr(multigrid, "pcg", counting_pcg)
        _, rep = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
        assert rep.status == "converged"
        assert len(per_step) == rep.iterations > 0
        assert all(multigrid.STALL_WINDOW <= n <= 2 * multigrid.STALL_WINDOW for n in per_step)

    def test_singular_coarsest_level_falls_back_to_the_lu(self, monkeypatch):
        # a coarsest level singular to working precision, so that its Jacobi weights
        # OMEGA / diag A are not finite, breaks every V-cycle there and sends the
        # step to the LU; no NaN reaches the caller
        hierarchy = multigrid._hierarchy

        def singular(A, free, m):
            levels = hierarchy(A, free, m)
            Ac, w, P, R = levels[-1]
            assert len(levels) > 1 and Ac.shape[0] <= 3 ** 2 and P is R is None
            return levels[:-1] + [(Ac, np.full_like(w, np.nan), P, R)]

        monkeypatch.setattr(multigrid, "_hierarchy", singular)
        calls, lus = self.record(monkeypatch)
        _, gop = halfplane_sqrt(0.25, radius=4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, rep = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
        assert rep.status == "converged"
        assert len(calls) == len(lus) == rep.iterations > 0
        assert all(x is None for *_, x in calls)

    @pytest.mark.parametrize("shape", [(3, 4095), (15, 255), (63,)])
    def test_prolongations_end_at_three_points_per_axis(self, shape):
        # an axis of 3 or fewer points is carried over while the others coarsen; on
        # these shapes every axis ends at exactly 3 points. Each coarse node's entry 1
        # in R sits at its injection node, which gives the coarse shape
        m, n = shape, math.prod(shape)
        levels = multigrid._hierarchy(sp.identity(n, format="csr"), np.ones(n, dtype=bool), m)
        assert len(levels) > 1
        for A, _, _, R in levels[:-1]:
            assert A.shape[0] == R.shape[1] == math.prod(m)
            inj = R.indices[R.data == 1.0]
            m = tuple(len(np.unique(i)) for i in np.unravel_index(inj, m))
            assert R.shape[0] == math.prod(m) == inj.size
        assert levels[-1][0].shape[0] == math.prod(m)
        assert m == (3,) * len(shape)

    @pytest.mark.parametrize("bbox, h", [(((0.0, 0.375), (0.0, 4.125)), 1 / 16),
                                         (((0.0, 8.125), (0.0, 0.375)), 1 / 16),
                                         ((0.0, 16.0), 1 / 64)],
                             ids=["5x65", "129x5", "1023"])
    def test_skinny_box_never_takes_the_lu(self, monkeypatch, bbox, h):
        # the thin axis is carried over while the long one coarsens to 3 points:
        # every step's CG converges, and solver.spla.spsolve is never called
        calls, lus = self.record(monkeypatch)
        grid = build_box_grid(bbox, h)
        gop = factorize(assemble(grid, EllipticCoefficients(zero_order_mode="c_zero")))
        _, rep = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
        assert rep.status == "converged"
        assert len(calls) == rep.iterations > 0 and lus == []
        assert all(x is not None for *_, x in calls)

    def test_v_cycle_not_positive_on_the_residual_gives_up_at_once(self, monkeypatch):
        vcycles = []

        def flipped(levels, k, r):
            vcycles.append(1)
            return -r

        monkeypatch.setattr(multigrid, "_vcycle", flipped)
        J = sp.diags([2.0, 3.0, 4.0, 5.0]).tocsr()
        free = np.ones(4, dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert multigrid.pcg(J, free, np.ones(4), (4,), 1e-10) is None
        assert vcycles == [1]

    def test_finest_level_shares_the_jacobian_arrays(self, monkeypatch):
        # pcg runs CG and the finest level on the Jacobian's own arrays, no copy
        received, finest = [], []
        pcg, hierarchy = multigrid.pcg, multigrid._hierarchy

        def spy_pcg(J, free, rhs, m, tol):
            received.append(J)
            return pcg(J, free, rhs, m, tol)

        def spy_hierarchy(A, free, m):
            levels = hierarchy(A, free, m)
            finest.append(levels[0][0])
            return levels

        monkeypatch.setattr(multigrid, "pcg", spy_pcg)
        monkeypatch.setattr(multigrid, "_hierarchy", spy_hierarchy)
        _, gop = halfplane_sqrt(0.125, radius=4.0)
        _, rep = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
        assert rep.status == "converged" and max(rep.dead_set_history) > 0
        assert len(finest) == len(received) == rep.iterations
        for J, A in zip(received, finest):
            assert all(np.shares_memory(getattr(A, a), getattr(J, a))
                       for a in ("data", "indices", "indptr"))

    def test_prolongation_shares_the_restriction_arrays(self, monkeypatch):
        # every level restricts with the CSR copy R of P_f^T and prolongs with R.T,
        # a view on R's arrays, not a second copy
        levels_seen = []
        hierarchy = multigrid._hierarchy

        def spy(A, free, m):
            levels = hierarchy(A, free, m)
            levels_seen.extend(level for level in levels if level[2] is not None)
            return levels

        monkeypatch.setattr(multigrid, "_hierarchy", spy)
        _, gop = halfplane_sqrt(0.125, radius=4.0)
        _, rep = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
        assert rep.status == "converged" and levels_seen
        for *_, P, R in levels_seen:
            assert all(np.shares_memory(getattr(P, a), getattr(R, a))
                       for a in ("data", "indices", "indptr"))

    def test_step_keeps_no_node_array_between_steps(self, monkeypatch):
        # the step is a plain function that forms B f per step; the free set is a mask
        frees, dead_sizes = [], []
        free_system, newton_step = solver._free_system, solver._newton_step

        def spy_free_system(K, bf, u, p):
            free, rhs = free_system(K, bf, u, p)
            frees.append((free, rhs))
            return free, rhs

        def spy_newton_step(*args):
            u, n_dead = newton_step(*args)
            dead_sizes.append(n_dead)
            return u, n_dead

        monkeypatch.setattr(solver, "_free_system", spy_free_system)
        monkeypatch.setattr(solver, "_newton_step", spy_newton_step)
        _, gop = halfplane_sqrt(0.125, radius=4.0)
        _, rep = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
        assert rep.status == "converged" and max(rep.dead_set_history) > 0
        assert dead_sizes == rep.dead_set_history
        assert len(frees) == rep.iterations
        for (free, _), n_dead in zip(frees, dead_sizes):
            assert free.dtype == bool and n_dead == free.size - np.count_nonzero(free)

    def test_hierarchy_is_freed_without_the_collector(self, monkeypatch):
        refs = []
        hierarchy = multigrid._hierarchy

        def spy(J, free, m):
            levels = hierarchy(J, free, m)
            refs.extend(weakref.ref(a) for level in levels for a in level if a is not None)
            return levels

        monkeypatch.setattr(multigrid, "_hierarchy", spy)
        _, gop = halfplane_sqrt(0.125, radius=4.0)
        gc.disable()
        try:
            _, rep = solve_U(gop, 1.0, SQRT_N, tol=1e-10, scheme="newton")
            assert rep.status == "converged" and refs
            assert [r for r in refs if r() is not None] == []
        finally:
            gc.enable()
