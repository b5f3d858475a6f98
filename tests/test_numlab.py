"""Numeric oracle properties: solver orders, shooting, the Burgers field."""

import math
from pathlib import Path

import numpy as np
import pytest

from scipy.linalg import block_diag

from hiddenscale import cli, numlab
from hiddenscale.numlab import (LinearRHS, SolverError, convergence_order,
                                solve_bvp_shooting, solve_burgers_mol,
                                solve_ivp)
from hiddenscale.specfile import parse_spec

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


class TestIVP:
    def test_exponential_decay(self):
        sol = solve_ivp(lambda t, y: [-y[0]], [1.0], (0, 1), "rk4-fixed",
                        step=1e-3)
        assert abs(sol.states[-1, 0] - math.exp(-1)) < 1e-10

    def test_rk4_observed_order(self):
        errs = []
        for h in (0.1, 0.05, 0.025):
            sol = solve_ivp(lambda t, y: [-2.3 * y[0]], [1.0], (0, 1),
                            "rk4-fixed", step=h)
            errs.append((h, abs(sol.states[-1, 0] - math.exp(-2.3))))
        p = convergence_order(errs)
        assert 3.8 <= p <= 4.2

    def test_adaptive_meets_tolerance(self):
        sol = solve_ivp(lambda t, y: [y[1], -y[0]], [0.0, 1.0], (0, 10),
                        "rk45-adaptive", tol=1e-11)
        assert abs(sol.states[-1, 0] - math.sin(10)) < 1e-8

    def test_dense_output_matches_nodes(self):
        grid = np.linspace(0, 1, 11)
        sol = solve_ivp(lambda t, y: [-y[0]], [1.0], (0, 1), "rk4-fixed",
                        step=1e-2, t_eval=grid)
        assert np.allclose(sol(grid), sol.states[:, 0], atol=1e-14)

    def test_dense_output_between_nodes(self):
        sol = solve_ivp(lambda t, y: [-y[0]], [1.0], (0, 1), "rk4-fixed",
                        step=0.05)
        ts = np.linspace(0, 1, 97)
        assert np.max(np.abs(sol(ts) - np.exp(-ts))) < 1e-6

    def test_dense_output_on_a_backward_solve(self):
        # y = (sin t, cos t) from t = 3 back to 0: the grid decreases and
        # its last state is the end state
        sol = solve_ivp(lambda t, y: [y[1], -y[0]],
                        [math.sin(3.0), math.cos(3.0)], (3.0, 0.0),
                        "rk45-adaptive", tol=1e-11)
        assert sol.grid[0] == 3.0 and sol.grid[-1] == 0.0
        assert abs(sol.states[-1, 0]) < 1e-8
        assert abs(sol(1.5) - math.sin(1.5)) < 1e-8
        ts = np.linspace(0.0, 3.0, 61)
        assert np.max(np.abs(sol(ts, 1) - np.cos(ts))) < 1e-8

    def test_t_eval_after_t0(self):
        # both methods integrate from t0 to t_eval's first point, and both
        # refuse a t_eval out of order or outside the interval
        for method in ("rk4-fixed", "rk45-adaptive"):
            sol = solve_ivp(lambda t, y: [1.0], [0.0], (0.0, 1.0), method,
                            step=0.1, t_eval=[0.5, 1.0])
            assert sol.grid.tolist() == [0.5, 1.0]
            assert np.max(np.abs(sol.states[:, 0] - [0.5, 1.0])) < 1e-12
            for t_eval in ([0.0, 2.0], [0.0, 0.5, 0.4]):
                with pytest.raises(ValueError):
                    solve_ivp(lambda t, y: [1.0], [0.0], (0.0, 1.0), method,
                              step=0.1, t_eval=t_eval)

    def test_nan_rhs_raises(self):
        with pytest.raises(SolverError):
            solve_ivp(lambda t, y: [y[0] * math.nan], [1.0], (0, 1),
                      "rk4-fixed", step=0.1)
        # One non-finite stage value inside a 100-step output interval; the
        # rhs is finite at both output nodes, whatever the state.
        with pytest.raises(SolverError):
            solve_ivp(lambda t, y: [math.inf if 0.42 < t < 0.43 else -1.0],
                      [1.0], (0, 1), "rk4-fixed", step=0.01, t_eval=[0, 1])
        # RK45 rejects a step with a NaN stage and retries a shorter one, so
        # every accepted state stays finite: only the check on each rhs
        # value reports this one
        with pytest.raises(SolverError, match=r"^NaN/Inf in rhs at t=0\.42"):
            solve_ivp(lambda t, y: [y[0] * (math.nan if 0.42 < t < 0.43
                                            else math.cos(20 * t))],
                      [1.0], (0, 1), "rk45-adaptive", tol=1e-10)


class TestRHSContract:
    """An rhs gets the state as a list of Python floats and returns a
    sequence of real numbers."""

    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    @pytest.mark.parametrize("t_eval", [None, [0.0, 0.5, 1.0]],
                             ids=["steps", "t_eval"])
    def test_rhs_gets_a_list_of_floats(self, method, t_eval):
        seen = set()

        def rhs(t, y):
            seen.add((type(y),) + tuple(map(type, y)))
            return [y[1], -y[0]]
        solve_ivp(rhs, np.array([0.0, 1.0]), (0, 1), method, step=0.1,
                  t_eval=t_eval)
        assert seen == {(list, float, float)}

    @pytest.mark.parametrize("t_eval", [None, np.linspace(0.0, 5.0, 11)],
                             ids=["steps", "t_eval"])
    def test_rk45_values_need_not_be_floats(self, t_eval):
        def vdp(t, y):
            return [y[1], 2 * (1 - y[0] ** 2) * y[1] - y[0]]
        want = solve_ivp(vdp, [2.0, 0.0], (0, 5), t_eval=t_eval)
        for wrap in (np.array, lambda v: [np.float64(x) for x in v]):
            got = solve_ivp(lambda t, y: wrap(vdp(t, y)), [2.0, 0.0], (0, 5),
                            t_eval=t_eval)
            assert np.array_equal(got.grid, want.grid)
            assert np.array_equal(got.states, want.states)
            assert np.array_equal(got.derivs, want.derivs)

    # at criterion 2's step, and at one coarse enough that a stage
    # computed in another order shows in the states
    @pytest.mark.parametrize("step, t1", [(1e-4, 0.1), (0.1, 15.0)],
                             ids=["criterion-step", "coarse"])
    def test_rk4_list_loop_matches_the_ndarray_step(self, step, t1):
        # the stacked overdamped sweep of acceptance criterion 2,
        # y'' + y' + eps*y = 0 per block, against an RK4 step written on
        # ndarrays: the same floating-point operations, so the same states
        sweep = np.array([0.05, 0.1, 0.2])
        evs = sweep.tolist()

        def rhs(t, y):
            out = []
            for ev, u, v in zip(evs, y[0::2], y[1::2]):
                out += (v, -v - ev * u)
            return out

        def rhs_array(t, y):
            out = np.empty_like(y)
            out[0::2] = y[1::2]
            out[1::2] = -y[1::2] - sweep * y[0::2]
            return out
        grid = np.linspace(0.0, t1, 11)
        y = np.array([3.0, 1.0] * 3)
        want = [y]
        for a, b in zip(grid[:-1], grid[1:]):
            n_sub = max(1, int(round((b - a) / step)))
            h = (b - a) / n_sub
            t = a
            for _ in range(n_sub):
                k1 = rhs_array(t, y)
                k2 = rhs_array(t + h / 2, y + h / 2 * k1)
                k3 = rhs_array(t + h / 2, y + h / 2 * k2)
                k4 = rhs_array(t + h, y + h * k3)
                y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                t += h
            want.append(y)
        got = solve_ivp(rhs, [3.0, 1.0] * 3, (0.0, t1), "rk4-fixed",
                        step=step, t_eval=grid)
        assert np.array_equal(got.states, np.array(want))
        assert not np.array_equal(got.states[-1], got.states[0])


def _rk45_case(name):
    """(rhs, y0, interval, tol, t_eval) of an adaptive solve the oracles
    make."""
    if name in ("kdv", "mathieu"):
        spec = parse_spec(CORPUS / f"{name}.spec")
        rhs, nord = cli._ode_rhs(spec, dict(spec.params))
        grid = np.linspace(*cli._numbers(spec, "validate.grid", "", "ffi"))
        # mathieu's oracle starts from the uniform solution's jet
        y0 = cli._ic_floats(spec, nord) if spec.ics else [1.0, 0.3]
        return rhs, y0, (grid[0], grid[-1]), 1e-11, grid
    if name == "switchback":    # one shot of terrible's shooting oracle
        p = cli._switchback_problem(parse_spec(CORPUS / "terrible.spec"))
        return (p.rhs_log(), [1.0 - p.a, 0.1],
                (math.log(p.eps), math.log(50.0)), 1e-11, None)
    # van der Pol from t = 10 back to 0, as the numeric flows run back
    return (lambda t, y: [y[1], 2 * (1 - y[0] ** 2) * y[1] - y[0]],
            [2.0, 0.0], (10.0, 0.0), 1e-12, np.linspace(10.0, 0.0, 51))


def _scipy_rk45(rhs, y0, interval, tol, t_eval=None):
    # scipy hands the rhs an ndarray; the oracles' rhs take lists
    from scipy.integrate import solve_ivp as scipy_ivp
    sol = scipy_ivp(lambda t, y: rhs(t, y.tolist()), interval,
                    np.asarray(y0, dtype=float), method="RK45", rtol=tol,
                    atol=tol * 1e-2, t_eval=t_eval)
    assert sol.success, sol.message
    return sol


class TestRK45AgainstScipy:
    """The Dormand-Prince step loop against scipy's RK45, which it replaces:
    the same algorithm, so the same steps up to rounding."""

    @pytest.mark.parametrize("name", ["kdv", "mathieu", "switchback",
                                      "backward"])
    def test_same_steps_and_states(self, name):
        rhs, y0, interval, tol, t_eval = _rk45_case(name)
        ours = solve_ivp(rhs, y0, interval, "rk45-adaptive", tol=tol,
                         t_eval=t_eval)
        ref = _scipy_rk45(rhs, y0, interval, tol, t_eval)
        if t_eval is not None:
            assert np.array_equal(ours.grid, ref.t)
            got, want = ours.states, ref.y.T
        else:
            got, want = ours.states[-1], ref.y[:, -1]
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
        # t_eval only picks output points: without it, the grid is the
        # accepted steps
        steps = len(solve_ivp(rhs, y0, interval, "rk45-adaptive",
                              tol=tol).grid) - 1
        ref_steps = len(_scipy_rk45(rhs, y0, interval, tol).t) - 1
        assert abs(steps - ref_steps) <= 0.01 * ref_steps

    def test_step_size_underflow(self):
        # y' = y^2, y(0) = 1 blows up at t = 1
        with pytest.raises(SolverError, match=r"^adaptive integration failed: "
                           r"Required step size is less than spacing between "
                           r"numbers\.$"):
            solve_ivp(lambda t, y: [y[0] * y[0]], [1.0], (0, 2),
                      "rk45-adaptive")

    def test_t_eval_must_run_from_start_to_end(self):
        for t_eval in ([0.0, 0.5, 0.4], [0.5, 1.5]):
            with pytest.raises(ValueError):
                solve_ivp(lambda t, y: [-y[0]], [1.0], (0, 1),
                          "rk45-adaptive", t_eval=t_eval)


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
        # each distinct step's matrix is formed once: the states are those
        # of one R(hM)^n_sub formed per output interval
        y = np.asarray(y0, dtype=float)
        per_interval = [y]
        for a, b in zip(grid[:-1], grid[1:]):
            n_sub = max(1, int(round((b - a) / step)))
            y = numlab._rk4_power(M, (b - a) / n_sub, n_sub) @ y
            per_interval.append(y)
        assert np.array_equal(fast.states, np.array(per_interval))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflow_raises(self):
        # each step multiplies the state by R(0.8) = 2.2224, which passes
        # the float range at step 889
        with pytest.raises(SolverError, match=r"^NaN/Inf in rk4-fixed state "
                           r"at t=0\.889$"):
            solve_ivp(LinearRHS([[800.0]]), [1.0], (0, 1), "rk4-fixed",
                      step=1e-3)

    def test_sweep_block_diagonal_matches_scipy(self, monkeypatch):
        # validate's stacked underdamped sweep builds its matrix with numpy
        spec = parse_spec(CORPUS / "underdamped.spec")
        rhss = []
        solve = numlab.solve_ivp

        def captured(rhs, *args, **kwargs):
            rhss.append(rhs)
            return solve(rhs, *args, **kwargs)
        monkeypatch.setattr(numlab, "solve_ivp", captured)
        cli.run_validate(spec, None)
        blocks = [cli._ode_rhs(spec, {spec.parameter: float(ev)})[0].M
                  for ev in spec.validate["sweep"].split()]
        assert len(rhss) == 1
        assert np.array_equal(rhss[0].M, block_diag(*blocks))


class TestShooting:
    def test_boundary_conditions_met(self):
        # u'' = -u with u(0) = 0, u(pi/4) = sin(pi/4)
        sol = solve_bvp_shooting(lambda t, y: [y[1], -y[0]],
                                 0.0, 0.0, math.pi / 4, math.sin(math.pi / 4),
                                 slope_guess=0.5)
        assert abs(sol.states[0, 0] - 0.0) < 1e-12
        assert abs(sol.states[-1, 0] - math.sin(math.pi / 4)) < 1e-9

    def test_trivial_constant_solution(self):
        sol = solve_bvp_shooting(lambda t, y: [y[1], -y[1]],
                                 0.0, 1.0, 5.0, 1.0, slope_guess=0.3)
        assert np.max(np.abs(sol.states[:, 0] - 1.0)) < 1e-8

    def test_nonconvergence_raises(self):
        # target unreachable: u'' = 0 from u(0)=0 cannot reach both ends
        with pytest.raises(SolverError):
            solve_bvp_shooting(lambda t, y: [0.0 * y[1], 0.0 * y[0]],
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

    def test_field_equals_scipy_rk45(self, monkeypatch):
        # the coarse (401-point) and fine (801-point) runs of validate's
        # field are scipy's RK45 with the same rhs, bit for bit
        from scipy.integrate import solve_ivp as scipy_ivp
        runs = []
        dopri5 = numlab._dopri5

        def recording(f, t0, t1, y0, rtol, atol, t_eval):
            out = dopri5(f, t0, t1, y0, rtol, atol, t_eval)
            runs.append((f, (t0, t1), y0, rtol, atol, t_eval, out[1]))
            return out
        monkeypatch.setattr(numlab, "_dopri5", recording)
        solve_burgers_mol(lambda x: np.log1p(x), 0.1, [1.0, 10.0, 20.0],
                          np.linspace(0.0, 5.0, 401))
        assert [len(run[2]) for run in runs] == [401, 801]
        for f, span, y0, rtol, atol, t_eval, field in runs:
            assert rtol == atol == 1e-9
            ref = scipy_ivp(f, span, y0, method="RK45", rtol=1e-9, atol=1e-9,
                            t_eval=t_eval)
            assert np.array_equal(np.array(field), ref.y.T)


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
