"""Numeric oracle properties: solver orders, shooting, the Burgers field."""

import math
import re
import sys
from bisect import bisect_right
from functools import partial, reduce
from itertools import count
from operator import add
from pathlib import Path

import numpy as np
import pytest

from scipy.linalg import block_diag

from hiddenscale import cli, exprcore, numlab
from hiddenscale.exprcore import Expr, evaluator_rhs, explicit_ode_rhs
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

    def test_numpy_inf_rhs_raises(self):
        # numpy scalars in a stage: the step's finiteness check does numpy's
        # inf - inf, which must not warn (an error under this suite's
        # filterwarnings) before the SolverError
        with pytest.raises(SolverError, match=r"^NaN/Inf in rhs at t=0\.5"):
            solve_ivp(lambda t, y: np.array([np.inf if t > 0.5 else -y[0]]),
                      [1.0], (0, 1))

    @pytest.mark.parametrize("n", [1, 4])
    def test_nan_at_each_stage_names_its_time(self, n):
        # A solve calls the rhs at t0, at the first-step guess, then at
        # stages 2..7 of its first attempt.  One non-finite entry in stage
        # s's values stops it with that stage's t (stages 6 and 7 share it).
        def rhs(t, y):
            return [-(i + 1) * v for i, v in enumerate(y)]
        times = []
        solve_ivp(lambda t, y: times.append(t) or rhs(t, y), [1.0] * n,
                  (0.0, 1.0))
        for s in range(2, 8):
            calls = []

            def broken(t, y):
                calls.append(t)
                out = rhs(t, y)
                if len(calls) == s + 1:
                    out[s % n] = math.nan if s % 2 else -math.inf
                return out
            with pytest.raises(SolverError, match="^" + re.escape(
                    f"NaN/Inf in rhs at t={times[s]}") + "$"):
                solve_ivp(broken, [1.0] * n, (0.0, 1.0))

    def test_huge_rhs_values_are_finite(self):
        # four entries of 1e308 add up to inf: the check must not add them
        sol = solve_ivp(lambda t, y: [1e308] * 4, [-1e308] * 4, (0.0, 1.0))
        assert np.all(np.isfinite(sol.states)) and np.all(sol.derivs == 1e308)

    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    def test_zero_length_interval(self, method):
        sol = solve_ivp(lambda t, y: [-y[0]], [1.0], (0.0, 0.0), method)
        assert sol.grid.tolist() == [0.0] and sol.states.tolist() == [[1.0]]
        assert sol(0.0) == 1.0
        assert sol(np.zeros((2, 3))).tolist() == [[1.0] * 3] * 2


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


def _comprehension_attempt(f, rtol, atol):
    """The step attempt as one list comprehension per stage, which the
    generated loop replaces: the reference it equals bit for bit."""
    c2, c3, c4, c5, c6 = numlab._C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = numlab._A
    b1, b3, b4, b5, b6 = numlab._B
    e1, e3, e4, e5, e6, e7 = numlab._E

    def attempt(t, y, k1, h):
        k2 = f(t + c2 * h, [yi + a21 * p * h for yi, p in zip(y, k1)])
        k3 = f(t + c3 * h, [yi + (a31 * p + a32 * q) * h
                            for yi, p, q in zip(y, k1, k2)])
        k4 = f(t + c4 * h, [yi + (a41 * p + a42 * q + a43 * r) * h
                            for yi, p, q, r in zip(y, k1, k2, k3)])
        k5 = f(t + c5 * h,
               [yi + (a51 * p + a52 * q + a53 * r + a54 * s) * h
                for yi, p, q, r, s in zip(y, k1, k2, k3, k4)])
        k6 = f(t + c6 * h,
               [yi + (a61 * p + a62 * q + a63 * r + a64 * s + a65 * u) * h
                for yi, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)])
        y_new = [yi + h * (b1 * p + b3 * r + b4 * s + b5 * u + b6 * v)
                 for yi, p, r, s, u, v in zip(y, k1, k3, k4, k5, k6)]
        k7 = f(t + h, y_new)
        err = numlab._rms(
            [(e1 * p + e3 * r + e4 * s + e5 * u + e6 * v + e7 * w) * h
             / (atol + max(abs(yi), abs(yn)) * rtol)
             for yi, yn, p, r, s, u, v, w
             in zip(y, y_new, k1, k3, k4, k5, k6, k7)])
        return y_new, k7, err, (k1, k3, k4, k5, k6, k7)
    return attempt


def _comprehension_dense(t, y, h, ks, tes):
    """The quartic dense output at ``tes``, its coefficients as ``reduce``
    left folds over the stages."""
    Q = [[reduce(add, [k[c] * p[m] for k, p in zip(ks, numlab._P)], 0)
          for m in range(4)] for c in range(len(y))]
    out = []
    for te in tes:
        x = (te - t) / h
        x2 = x * x
        x3 = x2 * x
        out.append([yi + h * (q1 * x + q2 * x2 + q3 * x3 + q4 * (x3 * x))
                    for yi, (q1, q2, q3, q4) in zip(y, Q)])
    return out


def _python_dopri5(f, t0, t1, y0, rtol, atol, t_eval):
    """``numlab._dopri5`` as a Python step loop, which the generated loop
    replaces: on a list state the comprehensions above, with every rhs
    value checked by ``_finite``; on an ndarray state the same
    ``_array_attempt`` and ``_array_dense`` calls."""
    if isinstance(y0, np.ndarray):
        attempt = partial(numlab._array_attempt, f, rtol, atol)
        dense = numlab._array_dense
    else:
        rhs = f
        f = lambda t, y: numlab._finite(t, rhs(t, y))
        attempt = _comprehension_attempt(f, rtol, atol)
        dense = _comprehension_dense
    d = 1.0 if t1 >= t0 else -1.0
    if t_eval is None:
        ts, ys = [t0], [y0]
    else:
        ts, keys = numlab._eval_points(t0, t1, t_eval)
        i = bisect_right(keys, d * t0)
        ys = [y0] * i
    t, y, k1 = t0, y0, f(t0, y0)
    fs = [k1]
    h_abs = numlab._initial_step(f, t0, y0, k1, abs(t1 - t0), d, rtol, atol)
    while d * (t - t1) < 0:
        min_step = 10 * abs(math.nextafter(t, d * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:     # shrink the step until its error is accepted
            if h_abs < min_step:
                raise SolverError("adaptive integration failed: Required "
                                  "step size is less than spacing between "
                                  "numbers.")
            t_new = t + h_abs * d
            if d * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            y_new, k7, err, stages = attempt(t, y, k1, h)
            if err < 1:
                factor = (numlab._MAX_FACTOR if err == 0 else
                          min(numlab._MAX_FACTOR,
                              numlab._SAFETY * err ** numlab._EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(numlab._MIN_FACTOR,
                         numlab._SAFETY * err ** numlab._EXPONENT)
            rejected = True
        if t_eval is None:
            ts.append(t_new)
            ys.append(y_new)
            fs.append(k7)
        else:
            j = bisect_right(keys, d * t_new)
            if j > i:
                ys += dense(t, y, h, stages, ts[i:j])
                i = j
        t, y, k1 = t_new, y_new, k7
    return ts, ys, fs if t_eval is None else None


def _hex(rows):
    """``float.hex`` of every value in a list of states or rhs values."""
    return [[float.hex(float(v)) for v in row] for row in rows]


def _both_loops(make_rhs, y0, interval, tol, t_eval):
    """The generated and the Python loop on one solve, each with a fresh
    ``make_rhs()``: its times, states and rhs values as hex and the times of
    its rhs calls, or its SolverError text."""
    out = []
    for loop in (numlab._dopri5, _python_dopri5):
        calls, rhs = [], make_rhs()

        def f(t, y):
            calls.append(float.hex(t))
            return rhs(t, y)
        try:
            ts, ys, fs = loop(f, float(interval[0]), float(interval[1]),
                              [float(v) for v in y0], tol, tol * 1e-2,
                              t_eval)
        except SolverError as e:
            out.append(str(e))
        else:
            out.append((list(map(float.hex, ts)), _hex(ys),
                        fs and _hex(fs), calls))
    return out


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
    the same algorithm, so the same steps and rhs calls, and the same
    states up to rounding."""

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
        # accepted steps, and the rhs calls are scipy's nfev
        calls = []
        steps = len(solve_ivp(lambda t, y: calls.append(t) or rhs(t, y), y0,
                              interval, "rk45-adaptive", tol=tol).grid) - 1
        ref = _scipy_rk45(rhs, y0, interval, tol)
        assert (steps, len(calls)) == (len(ref.t) - 1, ref.nfev)

    @pytest.mark.parametrize("name", ["kdv", "mathieu", "switchback",
                                      "backward", "vanderpol-mu5",
                                      "zero-length"])
    def test_generated_loop_equals_the_python_loop(self, name):
        # with and without t_eval; van der Pol at mu = 5 and tol 1e-6
        # rejects many steps
        if name == "vanderpol-mu5":
            case = (lambda t, y: [y[1], 5 * (1 - y[0] ** 2) * y[1] - y[0]],
                    [2.0, 0.0], (0.0, 20.0), 1e-6, np.linspace(0, 20, 41))
        elif name == "zero-length":
            case = (lambda t, y: [-y[0]], [1.0], (0.5, 0.5), 1e-10, [0.5])
        else:
            case = _rk45_case(name)
        rhs, y0, interval, tol, t_eval = case
        runs = [_both_loops(lambda: rhs, y0, interval, tol, points)
                for points in (None, t_eval)]
        assert all(got == want for got, want in runs)
        if name == "vanderpol-mu5":
            # two rhs calls before the first attempt and six per attempt:
            # more than 30 attempts were rejected
            ts, _ys, _fs, calls = runs[0][0]
            assert (len(calls) - 2) // 6 - (len(ts) - 1) > 30

    def test_generated_loop_errors_equal_the_python_loop(self):
        # a step-size underflow (y' = y^2 blows up at t = 1), and a NaN or
        # inf at each stage of the first attempt, in states of 1 and 4
        got, want = _both_loops(lambda: lambda t, y: [y[0] * y[0]], [1.0],
                                (0.0, 2.0), 1e-10, None)
        assert got == want and got.startswith("adaptive integration failed")

        def broken(s, n, calls, t, y):
            # call 0 is at t0, call 1 at the first-step guess
            out = [-(i + 1) * v for i, v in enumerate(y)]
            if next(calls) == s:
                out[s % n] = math.nan if s % 2 else -math.inf
            return out
        for n in (1, 4):
            for s in range(2, 8):
                got, want = _both_loops(
                    lambda: partial(broken, s, n, count()), [1.0] * n,
                    (0.0, 1.0), 1e-10, None)
                assert got == want and got.startswith("NaN/Inf in rhs at t=")

    def test_ndarray_loop_equals_the_python_loop(self, monkeypatch):
        # both runs of validate's Burgers field, in the generated loop's
        # ndarray flavour and in the Python loop
        runs = []
        dopri5 = numlab._dopri5

        def both(f, t0, t1, y0, rtol, atol, t_eval):
            got = dopri5(f, t0, t1, y0, rtol, atol, t_eval)
            want = _python_dopri5(f, t0, t1, y0, rtol, atol, t_eval)
            runs.append((got[0] == want[0] and got[2] is want[2] is None,
                         np.array(got[1]).tobytes(),
                         np.array(want[1]).tobytes()))
            return got
        monkeypatch.setattr(numlab, "_dopri5", both)
        solve_burgers_mol(lambda x: np.log1p(x), 0.1, [1.0, 10.0, 20.0],
                          np.linspace(0.0, 5.0, 401))
        assert len(runs) == 2
        assert all(same and got == want for same, got, want in runs)

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


def _solved(rhs, y0, interval, tol, t_eval):
    """An rk45 solve's grid, states and rhs values as hex, or its
    SolverError text."""
    try:
        sol = solve_ivp(rhs, y0, interval, "rk45-adaptive", tol=tol,
                        t_eval=t_eval)
    except SolverError as e:
        return str(e)
    return (list(map(float.hex, sol.grid.tolist())), _hex(sol.states),
            _hex(sol.derivs))


def _called(rhs):
    """``rhs`` behind a plain function, which the loop calls."""
    return lambda t, y: rhs(t, y)


def _mathieu_flows():
    """The Mathieu validate's numeric flows: their system, start state and
    parameters."""
    spec = parse_spec(CORPUS / "mathieu.spec")
    _p, _s, _ps, ft, flows, _u = cli.hidden_scale_pipeline(spec)
    env = cli._uniform_env(spec, dict(spec.params))
    return ft, [flows.flows[n].start.eval(env).real
                for n in ft.unknown_names()], env


def _stage_rhs(n, s):
    """y_i' = -(i + 1) * y_i as straight-line lines whose call s (from 0)
    makes entry s % n NaN (s odd) or inf (s even)."""
    code, calls = exprcore._Code(), count()

    def scale(t):
        if next(calls) == s:
            return math.nan if s % 2 else -math.inf
        return 1.0
    entries = [f"{code.bind(-(i + 1.0))} * a{i + 1}" for i in range(n)]
    entries[s % n] = f"{code.bind(scale)}(a0) * {entries[s % n]}"
    return code.list_rhs(n, [f"return [{', '.join(entries)}]"], "stage_rhs")


class TestInlinedRHS:
    """A straight-line rhs runs inside the generated loop: the same times,
    states, rhs values and errors as when the loop calls it."""

    @pytest.mark.parametrize("name", ["kdv", "mathieu"])
    def test_oracles(self, name):
        rhs, y0, (t0, t1), tol, t_eval = _rk45_case(name)
        assert numlab._dopri_loop(len(y0), rhs.straight_line[0]).__code__ \
            .co_filename == "<dopri_loop n=%d explicit_ode_rhs>" % len(y0)
        for interval, points in (((t0, t1), None), ((t0, t1), t_eval),
                                 ((t1, t0), None), ((t1, t0), t_eval[::-1])):
            got = _solved(rhs, y0, interval, tol, points)
            assert got == _solved(_called(rhs), y0, interval, tol, points)
            assert len(got[0]) > 100

    def test_mathieu_numeric_flows(self):
        # forwards, negated, as the autonomous fallback runs them, and
        # backwards from a point to 0, as a non-autonomous one would
        ft, y0, env = _mathieu_flows()
        names = ft.unknown_names()
        eqs = [ft.equations[n] for n in names]
        negated = [-e for e in eqs]
        for exprs, interval in ((negated, (0.0, 46.0)), (eqs, (30.0, 0.0))):
            rhs = evaluator_rhs(exprs, ft.mu, names, env)
            for points in (None, np.linspace(*interval, 61)):
                got = _solved(rhs, y0, interval, 1e-12, points)
                assert got == _solved(_called(rhs), y0, interval, 1e-12,
                                      points)
                assert len(got[0]) > 60
        plus, minus = (evaluator_rhs(exprs, ft.mu, names, env)(0.5, y0)
                       for exprs in (eqs, negated))
        assert minus == [-v for v in plus] and plus != minus

    @pytest.mark.parametrize("name", ["terrible", "bad"])
    def test_switchback_shooting(self, name):
        p = cli._switchback_problem(parse_spec(CORPUS / f"{name}.spec"))
        rhs = p.rhs_log()
        args = (math.log(p.eps), 1.0 - p.a, math.log(50.0), 1.0, 0.1)
        got, want = (solve_bvp_shooting(f, *args) for f in (rhs, _called(rhs)))
        for a, b in ((got.grid, want.grid), (got.states, want.states),
                     (got.derivs, want.derivs)):
            assert a.tobytes() == b.tobytes()
        for interval in ((args[0], args[2]), (args[2], args[0])):
            for points in (None, np.linspace(*interval, 41)):
                assert _solved(rhs, [0.0, 0.1], interval, 1e-11, points) \
                    == _solved(_called(rhs), [0.0, 0.1], interval, 1e-11,
                               points)

    def test_power_overflow(self):
        # y' = y**5 from y = 10: a stage of the first attempt overflows
        rhs = explicit_ode_rhs([0.0, 1.0], [(None, -1.0, ((0, 5),))], "t", {})
        calls = []
        got = _solved(rhs, [10.0], (0.0, 1.0), 1e-10, None)
        assert got == _solved(lambda t, y: calls.append(t) or rhs(t, y),
                              [10.0], (0.0, 1.0), 1e-10, None)
        assert got == f"NaN/Inf in rhs at t={calls[-1]}" and len(calls) > 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_evaluator_fallback(self):
        # cmath.exp(100*mu) raises past mu = 7.0978, and the rhs falls back
        # to Expr.eval, whose np.exp gives inf: the first stage past it stops
        # the solve.  A numeric flow's rhs, and an oracle's with the timed
        # coefficient in y' = -eps*exp(100*mu)*y, whose fallback gives
        # -inf*y where its overflow branch would give inf
        coeff, fixed = Expr.sym("eps") * Expr.exp("mu", 100), {"eps": 1e-300}
        flow = evaluator_rhs([coeff], "mu", ["A"], fixed)
        oracle = explicit_ode_rhs([0.0, 1.0], [(coeff, 1.0, ((0, 1),))], "mu",
                                  fixed)
        for rhs, last in ((flow, math.inf), (oracle, -math.inf)):
            calls = []
            got = _solved(rhs, [1.0], (0.0, 10.0), 1e-10, None)
            assert got == _solved(lambda t, y: calls.append(t) or rhs(t, y),
                                  [1.0], (0.0, 10.0), 1e-10, None)
            assert got == f"NaN/Inf in rhs at t={calls[-1]}"
            assert max(calls[:-1]) < math.log(sys.float_info.max) / 100 \
                < calls[-1]
            with np.errstate(invalid="ignore"):
                assert rhs(calls[-1], [1.0]) == [last]

    @pytest.mark.parametrize("n", [1, 4])
    def test_nan_at_each_stage_names_its_time(self, n):
        # calls 0 and 1 are at t0 and the first-step guess; a NaN or inf in
        # stage s = 2..7 of the first attempt stops the solve at its time
        times = []
        solve_ivp(lambda t, y: times.append(t) or
                  [-(i + 1) * v for i, v in enumerate(y)], [1.0] * n,
                  (0.0, 1.0))
        for s in range(2, 8):
            for rhs in (_stage_rhs(n, s), _called(_stage_rhs(n, s))):
                with pytest.raises(SolverError, match="^" + re.escape(
                        f"NaN/Inf in rhs at t={times[s]}") + "$"):
                    solve_ivp(rhs, [1.0] * n, (0.0, 1.0))

    def test_one_loop_per_source(self):
        # two oracles of one form: one compiled loop, each its own values
        a, b = (explicit_ode_rhs([c, 0.1, 1.0], [(None, f, ((0, 3),))], "t",
                                 {}) for c, f in ((1.0, 0.1), (2.0, -0.3)))
        assert a.straight_line[0] == b.straight_line[0]
        before = numlab._dopri_loop.cache_info()
        runs = [_solved(f, [1.0, 0.0], (0.0, 20.0), 1e-10, None)
                for f in (a, b)]
        after = numlab._dopri_loop.cache_info()
        assert after.misses - before.misses <= 1
        assert after.hits - before.hits >= 1
        assert runs == [_solved(_called(f), [1.0, 0.0], (0.0, 20.0), 1e-10,
                                None) for f in (a, b)]
        assert runs[0][1] != runs[1][1]

    def test_corpus_oracles_stay_inlined(self, monkeypatch):
        # the rhs source each corpus validate's list-state loops inline, or
        # "called" for a loop that calls its rhs: a wrapper that sent an
        # oracle down the called path would show here.  filament's
        # amplitude fit integrates a plain function.
        loops, roles = numlab._dopri_loop, {}

        def recorded(n, inline=None):
            if n is not None:
                roles[name].add(inline[0] if inline else "called")
            return loops(n, inline)
        monkeypatch.setattr(numlab, "_dopri_loop", recorded)
        for name in sorted(p.stem for p in CORPUS.glob("*.spec")):
            roles[name] = set()
            cli.run_validate(parse_spec(CORPUS / f"{name}.spec"), None)
        assert roles == {
            "bad": {"rhs_log"}, "burgers": set(), "filament": {"called"},
            "kdv": {"explicit_ode_rhs"},
            "mathieu": {"explicit_ode_rhs", "evaluator_rhs"},
            "overdamped": set(), "terrible": {"rhs_log"},
            "underdamped": set()}

    def test_negative_zero_state(self):
        # backwards, y0' = 0 keeps y0 at -0.0 (h * 0.0 is -0.0), whose |y|
        # is 0.0 as the loop carries it
        code = exprcore._Code()
        rhs = code.list_rhs(2, [f"return [{code.bind(0.0)}, -a2]"],
                            "zero_rhs")
        for points in (None, np.linspace(1.0, 0.0, 11)):
            got = _solved(rhs, [-0.0, 1.0], (1.0, 0.0), 1e-10, points)
            assert got == _solved(_called(rhs), [-0.0, 1.0], (1.0, 0.0),
                                  1e-10, points)
            assert {y0 for y0, _y1 in got[1]} == {"-0x0.0p+0"}
            got, want = _both_loops(lambda: _called(rhs), [-0.0, 1.0],
                                    (1.0, 0.0), 1e-10, points)
            assert got == want


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
                               0.0, 0.0, 1.0, 1.0, slope_guess=0.0)


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
            solve_burgers_mol(lambda x: np.log1p(x), 0.1, [20.0], xs)

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
