"""Numeric oracle properties: solver orders, shooting, the Burgers field."""

import math

import numpy as np
import pytest

from scipy.linalg import block_diag

from hiddenscale.numlab import (ErrorReport, LinearRHS, SolverError,
                                convergence_order, solve_bvp_shooting,
                                solve_burgers_mol, solve_ivp)


class TestIVP:
    def test_exponential_decay(self):
        sol = solve_ivp(lambda t, y: -y, [1.0], (0, 1), "rk4-fixed",
                        step=1e-3)
        assert abs(sol.states[-1, 0] - math.exp(-1)) < 1e-10

    def test_rk4_observed_order(self):
        errs = []
        for h in (0.1, 0.05, 0.025):
            sol = solve_ivp(lambda t, y: -2.3 * y, [1.0], (0, 1), "rk4-fixed",
                            step=h)
            errs.append((h, abs(sol.states[-1, 0] - math.exp(-2.3))))
        p = convergence_order(errs)
        assert 3.8 <= p <= 4.2

    def test_adaptive_meets_tolerance(self):
        sol = solve_ivp(lambda t, y: np.array([y[1], -y[0]]), [0.0, 1.0],
                        (0, 10), "rk45-adaptive", tol=1e-11)
        assert abs(sol.states[-1, 0] - math.sin(10)) < 1e-8

    def test_dense_output_matches_nodes(self):
        grid = np.linspace(0, 1, 11)
        sol = solve_ivp(lambda t, y: -y, [1.0], (0, 1), "rk4-fixed",
                        step=1e-2, t_eval=grid)
        assert np.allclose(sol(grid), sol.at_nodes(), atol=1e-14)

    def test_dense_output_between_nodes(self):
        sol = solve_ivp(lambda t, y: -y, [1.0], (0, 1), "rk4-fixed",
                        step=0.05)
        ts = np.linspace(0, 1, 97)
        assert np.max(np.abs(sol(ts) - np.exp(-ts))) < 1e-6

    def test_nan_rhs_raises(self):
        with pytest.raises(SolverError):
            solve_ivp(lambda t, y: y * float("nan"), [1.0], (0, 1),
                      "rk4-fixed", step=0.1)
        # One non-finite stage value inside a 100-step output interval; the
        # rhs is finite at both output nodes, whatever the state.
        with pytest.raises(SolverError):
            solve_ivp(lambda t, y: np.full_like(
                          y, math.inf if 0.42 < t < 0.43 else -1.0),
                      [1.0], (0, 1), "rk4-fixed", step=0.01, t_eval=[0, 1])


class TestLinearRHS:
    """The stability-polynomial path of "rk4-fixed" against the step loop."""

    @pytest.mark.parametrize("M, y0, t1, step, npts", [
        # overdamped oracle, y'' + y' + 0.2*y = 0
        ([[0.0, 1.0], [-0.2, -1.0]], [3.0, 1.0], 15.0, 1e-3, 301),
        # the same at h = 0.1, where every term of R(hM) shows above 1e-10
        ([[0.0, 1.0], [-0.2, -1.0]], [3.0, 1.0], 15.0, 0.1, 16),
        # stacked underdamped sweep, y'' + eps*y' + y = 0 per block
        (block_diag(*([[0.0, 1.0], [-1.0, -ev]] for ev in (0.05, 0.1, 0.2))),
         [0.39, 0.92] * 3, 20.0, 1e-4, 201),
    ], ids=["overdamped", "overdamped-coarse", "underdamped-stack"])
    def test_matches_step_loop(self, M, y0, t1, step, npts):
        M = np.asarray(M)
        grid = np.linspace(0.0, t1, npts)
        fast = solve_ivp(LinearRHS(M), y0, (0.0, t1), "rk4-fixed", step=step,
                         t_eval=grid)
        slow = solve_ivp(lambda t, y: M @ y, y0, (0.0, t1), "rk4-fixed",
                         step=step, t_eval=grid)
        assert np.max(np.abs(fast.states - slow.states)) < 1e-10
        assert np.max(np.abs(fast.derivs - slow.derivs)) < 1e-10

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflow_raises(self):
        # each step multiplies the state by R(0.8) = 2.2224, which passes
        # the float range at step 889
        with pytest.raises(SolverError, match=r"^NaN/Inf in rk4-fixed state "
                           r"at t=0\.889$"):
            solve_ivp(LinearRHS([[800.0]]), [1.0], (0, 1), "rk4-fixed",
                      step=1e-3)


class TestShooting:
    def test_boundary_conditions_met(self):
        # u'' = -u with u(0) = 0, u(pi/4) = sin(pi/4)
        sol = solve_bvp_shooting(lambda t, y: np.array([y[1], -y[0]]),
                                 0.0, 0.0, math.pi / 4, math.sin(math.pi / 4),
                                 slope_guess=0.5)
        assert abs(sol.states[0, 0] - 0.0) < 1e-12
        assert abs(sol.states[-1, 0] - math.sin(math.pi / 4)) < 1e-9

    def test_trivial_constant_solution(self):
        sol = solve_bvp_shooting(lambda t, y: np.array([y[1], -y[1]]),
                                 0.0, 1.0, 5.0, 1.0, slope_guess=0.3)
        assert np.max(np.abs(sol.states[:, 0] - 1.0)) < 1e-8

    def test_nonconvergence_raises(self):
        # target unreachable: u'' = 0 from u(0)=0 cannot reach both ends
        with pytest.raises(SolverError):
            solve_bvp_shooting(lambda t, y: np.array([0.0 * y[1], 0.0 * y[0]]),
                               0.0, 0.0, 1.0, 1.0, slope_guess=0.0,
                               max_iter=5)


class TestBurgersMOL:
    def test_frozen_dynamics_at_eps_zero(self):
        xs = np.linspace(0, 5, 101)
        out = solve_burgers_mol(lambda x: np.log1p(x), 0.0, [5.0], xs)
        assert np.max(np.abs(out["u"][0] - np.log1p(xs))) < 1e-12

    def test_constant_profile_is_stationary(self):
        xs = np.linspace(0, 5, 101)
        out = solve_burgers_mol(lambda x: 0 * x + 2.0, 0.3, [4.0], xs)
        assert np.max(np.abs(out["u"][0] - 2.0)) < 1e-9

    def test_richardson_gate(self):
        xs = np.linspace(0, 5, 21)    # deliberately coarse
        with pytest.raises(SolverError):
            solve_burgers_mol(lambda x: np.log1p(x), 0.1, [20.0], xs,
                              richardson_tol=1e-9)

    def test_matches_characteristic_solution(self):
        # Hamilton-Jacobi characteristics of u_t + eps*u*u_x^2 = 0 from
        # U = log(1+x) (H = eps*z*p^2): the foot x0 of the characteristic
        # through x solves x = x0 + 2*eps*t*U(x0)/(1+x0), and there
        # u = U(x0)*sqrt(1 + 2*eps*t/(1+x0)^2).  The map x0 -> x is
        # increasing with x(x0) >= x0, so the foot is bracketed by [0, x].
        epsv, times = 0.1, [1.0, 10.0, 20.0]
        xs = np.linspace(0.0, 5.0, 401)
        field = solve_burgers_mol(lambda x: np.log1p(x), epsv, times, xs)
        for i, t in enumerate(times):
            lo, hi = np.zeros_like(xs), xs.copy()
            for _ in range(60):
                mid = (lo + hi) / 2
                short = mid + 2 * epsv * t * np.log1p(mid) / (1 + mid) < xs
                lo, hi = np.where(short, mid, lo), np.where(short, hi, mid)
            x0 = (lo + hi) / 2
            exact = np.log1p(x0) * np.sqrt(1 + 2 * epsv * t / (1 + x0) ** 2)
            assert np.max(np.abs(field["u"][i] - exact)) <= 1e-4, t


class TestConvergenceOrder:
    def test_exact_quadratic(self):
        pts = [(e, e ** 2) for e in (0.05, 0.1, 0.2)]
        assert abs(convergence_order(pts) - 2.0) < 1e-12

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            convergence_order([(0.1, 0.01), (0.2, 0.04)])

    def test_requires_positive_errors(self):
        with pytest.raises(ValueError):
            convergence_order([(0.05, 0.0), (0.1, 0.01), (0.2, 0.04)])


class TestErrorReport:
    def test_sup_is_max_of_table(self):
        x = np.linspace(0, 1, 11)
        r = ErrorReport.from_samples(x, np.sin(x), np.sin(x) + 0.01 * x)
        assert r.sup_error == r.table[:, 3].max()
        assert r.l2_error <= r.sup_error
