"""Independent numeric oracles: IVP/BVP solvers, a Burgers field solver
and convergence-order fits.

Nothing in here touches the symbolic kernel; these routines provide the
reference values the symbolic pipeline is judged against, so they must stay
independent of it.

Both IVP oracles (``solve_ivp``) are step loops on Python floats, and an
rhs gets and returns its state as a list of floats: the oracles' states have
2-4 entries, where numpy's per-call cost outweighs its arithmetic.  The
Burgers method-of-lines solver, whose states have hundreds of entries, runs
the same Dormand-Prince loop on an ndarray state, in scipy's RK45
arithmetic.  numpy is the only dependency.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


class SolverError(RuntimeError):
    pass


@dataclass
class IVPSolution:
    """Grid states plus cubic Hermite dense output from stored derivatives."""

    grid: np.ndarray           # strictly monotone abscissae, from t0 on
    states: np.ndarray         # shape (len(grid), dim)
    derivs: np.ndarray         # rhs evaluated at the grid nodes

    def __call__(self, t, component: int = 0):
        t = np.asarray(t, dtype=float)
        x, y, f = self.grid, self.states[:, component], self.derivs[:, component]
        if x[0] > x[-1]:    # a backward solve: interpolate on x reversed
            x, y, f = x[::-1], y[::-1], f[::-1]
        idx = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
        h = x[idx + 1] - x[idx]
        s = (t - x[idx]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s ** 2 * (3 - 2 * s)
        h11 = s ** 2 * (s - 1)
        return h00 * y[idx] + h10 * h * f[idx] + h01 * y[idx + 1] + h11 * h * f[idx + 1]


class LinearRHS:
    """The constant-coefficient linear system y' = M @ y, as an rhs callable.

    Passing one to ``solve_ivp`` lets "rk4-fixed" advance it in closed form;
    any other caller sees an ordinary ``rhs(t, y)``.
    """

    def __init__(self, M):
        self.M = np.atleast_2d(np.asarray(M, dtype=float))

    def __call__(self, t, y):
        return self.M @ y


def _rk4_power(M, h: float, n: int) -> np.ndarray:
    """R(hM)^n with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 (Horner form)."""
    Z = h * M
    eye = np.eye(len(M))
    R = eye + Z @ (eye + Z @ (eye / 2 + Z @ (eye / 6 + Z / 24)))
    return np.linalg.matrix_power(R, n)


def _check_rhs(rhs):
    """``rhs`` with its values turned into Python floats, each checked for
    NaN/Inf."""
    def wrapped(t, y):
        out = list(map(float, rhs(t, y)))
        if not all(map(math.isfinite, out)):
            raise SolverError(f"NaN/Inf in rhs at t={t}")
        return out
    return wrapped


# The Dormand-Prince 5(4) pair (Dormand & Prince 1980; Hairer, Norsett &
# Wanner, Solving ODEs I, table II.5.2) with Shampine's quartic dense output,
# as in scipy.integrate.RK45.  Zero coefficients are left out: _A[s] holds
# stage s+1's coefficients of stages 0..s, _B those of the 5th-order
# solution over stages 0, 2, 3, 4, 5, _E the error estimate's over stages
# 0, 2, ..., 6 and _P, per stage 0, 2, ..., 6, the dense output's
# coefficients of x, x^2, x^3, x^4.
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
      1 / 40)
_P = ((1, -8048581381 / 2820520608, 8663915743 / 2820520608,
       -12715105075 / 11282082432),
      (0, 131558114200 / 32700410799, -68118460800 / 10900136933,
       87487479700 / 32700410799),
      (0, -1754552775 / 470086768, 14199869525 / 1410260304,
       -10690763975 / 1880347072),
      (0, 127303824393 / 49829197408, -318862633887 / 49829197408,
       701980252875 / 199316789632),
      (0, -282668133 / 205662961, 2019193451 / 616988883,
       -1453857185 / 822651844),
      (0, 40617522 / 29380423, -110615467 / 29380423,
       69997945 / 29380423))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1 / 5
_BS, _ES = np.insert(_B, 1, 0.0), np.insert(_E, 1, 0.0)
_PS = np.insert(np.array(_P, dtype=float), 1, 0.0, axis=0)


def _rms(xs) -> float:
    return math.sqrt(sum([x * x for x in xs])) / len(xs) ** 0.5


def _norm(x) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(f, t0, y0, f0, length, d, rtol, atol) -> float:
    """First step size (Hairer, Norsett & Wanner, Solving ODEs I, II.4), in
    numpy's elementwise float operations, with ``_rms`` for a list state
    and ``_norm`` for an ndarray state."""
    if length == 0.0:
        return 0.0
    array = isinstance(y0, np.ndarray)
    norm = _norm if array else _rms
    y0v, f0v = np.asarray(y0), np.asarray(f0)
    scale = atol + np.abs(y0v) * rtol
    d0, d1 = norm(y0v / scale), norm(f0v / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    y1 = y0v + h0 * d * f0v
    f1 = f(t0 + h0 * d, y1 if array else y1.tolist())
    d2 = norm((np.asarray(f1) - f0v) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, length)


def _list_steps(f, rtol, atol):
    """One step attempt (the new state, its rhs, the scaled RMS error and the
    stages) and the dense output at given times, on a list of floats."""
    c2, c3, c4, c5, c6 = _C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _A
    b1, b3, b4, b5, b6 = _B
    e1, e3, e4, e5, e6, e7 = _E

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
        err = _rms([(e1 * p + e3 * r + e4 * s + e5 * u + e6 * v + e7 * w) * h
                    / (atol + max(abs(yi), abs(yn)) * rtol)
                    for yi, yn, p, r, s, u, v, w
                    in zip(y, y_new, k1, k3, k4, k5, k6, k7)])
        return y_new, k7, err, (k1, k3, k4, k5, k6, k7)

    def dense(t, y, h, ks, tes):
        Q = [[sum([k[c] * p[m] for k, p in zip(ks, _P)]) for m in range(4)]
             for c in range(len(y))]
        out = []
        for te in tes:
            x = (te - t) / h
            x2 = x * x
            x3 = x2 * x
            out.append([yi + h * (q1 * x + q2 * x2 + q3 * x3 + q4 * (x3 * x))
                        for yi, (q1, q2, q3, q4) in zip(y, Q)])
        return out
    return attempt, dense


def _array_steps(f, rtol, atol):
    """The same two on an ndarray state, in scipy RK45's operations on its
    zero-padded tableau (``_BS``, ``_ES``, ``_PS``): BLAS calls per stage."""
    def attempt(t, y, k1, h):
        K = np.empty((7, len(y)))
        K[0] = k1
        for s, (a, c) in enumerate(zip(_A, _C), start=1):
            K[s] = f(t + c * h, y + np.dot(K[:s].T, a) * h)
        y_new = y + h * np.dot(K[:-1].T, _BS)
        K[6] = k7 = f(t + h, y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        return y_new, k7, _norm(np.dot(K.T, _ES) * h / scale), K

    def dense(t, y, h, K, tes):
        p = np.cumprod(np.tile((np.array(tes) - t) / h, (4, 1)), axis=0)
        out = h * np.dot(K.T.dot(_PS), p)
        out += y[:, None]
        return list(out.T)
    return attempt, dense


def _eval_points(t0: float, t1: float, t_eval):
    """``t_eval`` as floats and as keys increasing from t0 towards t1; a
    ValueError unless they run from t0 to t1 inside the interval."""
    d = 1.0 if t1 >= t0 else -1.0
    ts = [float(te) for te in t_eval]
    keys = [d * te for te in ts]
    if (any(b <= a for a, b in zip(keys, keys[1:]))
            or keys and (keys[0] < d * t0 or keys[-1] > d * t1)):
        raise ValueError("t_eval must be ordered from t0 to t1 and lie in "
                         "the interval")
    return ts, keys


def _dopri5(f, t0: float, t1: float, y0, rtol: float, atol: float, t_eval):
    """Adaptive Dormand-Prince 5(4) from t0 to t1 (either direction).

    ``f(t, y)`` takes and returns the state's type, a list of floats or an
    ndarray, which picks the arithmetic (``_list_steps``, ``_array_steps``).
    Returns the abscissae, states and rhs values: every accepted step from
    t0 on with its last stage, or the quartic dense output at ``t_eval``
    and None.  Raises SolverError when the step falls below ten times the
    float spacing at t.
    """
    attempt, dense = (_array_steps if isinstance(y0, np.ndarray)
                      else _list_steps)(f, rtol, atol)
    d = 1.0 if t1 >= t0 else -1.0
    if t_eval is None:
        ts, ys = [t0], [y0]
    else:
        ts, keys = _eval_points(t0, t1, t_eval)
        i = bisect_right(keys, d * t0)
        ys = [y0] * i
    t, y, k1 = t0, y0, f(t0, y0)
    fs = [k1]
    h_abs = _initial_step(f, t0, y0, k1, abs(t1 - t0), d, rtol, atol)
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
                factor = (_MAX_FACTOR if err == 0 else
                          min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
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


def solve_ivp(rhs, y0, interval, method: str = "rk45-adaptive",
              tol: float = 1e-10, step: float = 1e-3,
              t_eval=None) -> IVPSolution:
    """Integrate y' = rhs(t, y) over ``interval``.

    ``rhs`` gets the state as a list of Python floats, which it must not
    change, and returns a sequence of real numbers.  Both step loops run on
    Python floats, so a list of floats is the fast return.

    Both methods start at t0 and take ``t_eval`` ordered from t0 to t1 inside
    the interval, else raise ValueError.  ``rk4-fixed`` uses the requested
    step, snapped so that each output point is hit exactly.
    ``rk45-adaptive`` is the Dormand-Prince 5(4) pair with local
    extrapolation (Dormand & Prince 1980; Hairer, Norsett & Wanner, Solving
    ODEs I, II.4-II.5), step for step scipy's RK45 at rtol ``tol`` and atol
    ``tol * 1e-2``: the same tableau, first-step guess and RMS error norm
    with scale atol + max(|y|, |y_new|)*rtol; a new step of 0.9*err^(-1/5)
    times the old, bounded to [0.2, 10] and not grown right after a
    rejection; a minimum step of 10 float spacings at t; the last stage's
    rhs reused as the next step's first; quartic dense output at
    ``t_eval``.

    Either method raises SolverError on a NaN/Inf: ``rk45-adaptive`` checks
    every rhs value, ``rk4-fixed`` checks the state once per output
    interval, which a non-finite stage value always leaves non-finite.  The
    rk45 check runs once per rhs call, not once per accepted step: a step
    with a non-finite stage would be rejected and retried shorter, so the
    accepted states stay finite and the integrator would stop on a
    step-size underflow instead.

    For a ``LinearRHS`` M, ``rk4-fixed`` advances each output interval of
    ``n_sub`` steps of size ``h`` by y <- R(hM)^n_sub @ y, where
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 is the RK4 stability function
    (Hairer-Wanner, Solving ODEs II, IV.2).  Expanding the four stages of
    one step of y' = My gives exactly y <- R(hM) @ y, so this is the same
    integrator at the same step; the states differ from the step loop only
    by rounding.  Each distinct (h, n_sub) forms its matrix once.
    """
    t0, t1 = float(interval[0]), float(interval[1])
    y0 = np.atleast_1d(np.asarray(y0, dtype=float)).tolist()
    f = _check_rhs(rhs)
    if method == "rk45-adaptive":
        ts, ys, fs = _dopri5(f, t0, t1, y0, tol, tol * 1e-2, t_eval)
    elif method == "rk4-fixed":
        if t_eval is not None:
            ts = _eval_points(t0, t1, t_eval)[0]
        else:
            n = max(1, int(round((t1 - t0) / step)))
            ts = np.linspace(t0, t1, n + 1).tolist()
        grid = ts if ts[:1] == [t0] else [t0] + ts     # from t0 on
        y, ys, fs = y0, [y0] if grid is ts else [], None
        powers = {}     # (h, n_sub) -> R(hM)^n_sub, for a LinearRHS
        for a, b in zip(grid, grid[1:]):
            n_sub = max(1, int(round((b - a) / step)))
            h = (b - a) / n_sub
            if h <= 0 or not math.isfinite(h):
                raise SolverError("step underflow in rk4-fixed")
            if isinstance(rhs, LinearRHS):
                if (h, n_sub) not in powers:
                    powers[h, n_sub] = _rk4_power(rhs.M, h, n_sub)
                y = (powers[h, n_sub] @ y).tolist()
            else:
                t, h2, h6 = a, h / 2, h / 6
                for _ in range(n_sub):
                    k1 = rhs(t, y)
                    k2 = rhs(t + h2, [yi + h2 * p for yi, p in zip(y, k1)])
                    k3 = rhs(t + h2, [yi + h2 * q for yi, q in zip(y, k2)])
                    k4 = rhs(t + h, [yi + h * r for yi, r in zip(y, k3)])
                    y = [yi + h6 * (p + 2 * q + 2 * r + s)
                         for yi, p, q, r, s in zip(y, k1, k2, k3, k4)]
                    t += h
            if not all(map(math.isfinite, y)):
                raise SolverError(f"NaN/Inf in rk4-fixed state at t={b}")
            ys.append(y)
    else:
        raise ValueError(f"unknown method {method!r}")
    if fs is None:      # the rhs at each output point
        fs = [f(t, y) for t, y in zip(ts, ys)]
    return IVPSolution(np.array(ts), np.array(ys), np.array(fs))


def solve_bvp_shooting(rhs, x_left: float, u_left: float, x_right: float,
                       u_right: float, slope_guess: float,
                       max_iter: int = 100):
    """Secant shooting on the missing left slope for a scalar 2nd-order BVP.

    ``rhs`` is the first-order system rhs(t, [u, u']).  Each shot is an RK45
    solve at tolerance 1e-11; a miss below 1e-10 at the right end converges,
    and so does a secant step below 1e-13 in the slope if its miss is below
    1e-10 too.  Returns the converged IVPSolution; raises SolverError after
    ``max_iter`` iterations.
    """
    tol, tol_slope = 1e-10, 1e-13

    def boundary_miss(s):
        sol = solve_ivp(rhs, [u_left, s], (x_left, x_right), "rk45-adaptive",
                        tol=1e-11)
        return sol.states[-1, 0] - u_right, sol

    s0, s1 = slope_guess, slope_guess * 1.01 + 1e-8
    f0, sol = boundary_miss(s0)
    for _ in range(max_iter):
        if abs(f0) < tol:
            return sol
        f1, sol1 = boundary_miss(s1)
        if f1 == f0 or abs(s1 - s0) < tol_slope:
            s0, f0, sol = s1, f1, sol1
            if abs(f0) < tol:
                return sol
            break
        s2 = s1 - f1 * (s1 - s0) / (f1 - f0)
        s0, f0 = s1, f1
        s1 = s2
        sol = sol1
    f0, sol = boundary_miss(s1)
    if abs(f0) < tol:
        return sol
    raise SolverError(f"shooting did not converge: residual {f0:.3e}")


def solve_burgers_mol(u0, eps: float, t_eval, x_grid,
                      richardson_tol: float = 1e-4):
    """Method-of-lines field for u_t = -eps*u*u_x**2 with initial profile u0.

    Central differences in x (one-sided at the edges), Dormand-Prince 5(4)
    in t at rtol = atol = 1e-9 (``_dopri5`` on an ndarray state); the run
    is accepted only if a grid-halving Richardson check agrees to
    ``richardson_tol`` in sup norm at the final time.
    """
    x = np.asarray(x_grid, dtype=float)
    t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))

    def run(xs):
        dx = xs[1] - xs[0]
        def rhs(_t, u):
            ux = np.empty_like(u)
            ux[1:-1] = (u[2:] - u[:-2]) / (2 * dx)
            ux[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * dx)
            ux[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * dx)
            if np.max(np.abs(ux)) > 1e6:
                raise SolverError("gradient blow-up in Burgers run")
            return -eps * u * ux ** 2
        _, us, _ = _dopri5(rhs, 0.0, float(t_eval[-1]),
                           np.asarray(u0(xs), dtype=float), 1e-9, 1e-9, t_eval)
        return np.array(us)  # (len(t_eval), len(xs))

    coarse = run(x)
    fine_x = np.linspace(x[0], x[-1], 2 * (len(x) - 1) + 1)
    fine = run(fine_x)[:, ::2]
    drift = float(np.max(np.abs(fine - coarse)))
    if drift > richardson_tol:
        raise SolverError(
            f"Richardson check failed: grids differ by {drift:.3e} "
            f"(> {richardson_tol:g})")
    return {"x": x, "t": t_eval, "u": fine, "richardson_drift": drift}


def convergence_order(errors) -> float:
    """Least-squares slope of log(err) against log(eps); needs >= 3 points."""
    pts = [(float(e), float(err)) for e, err in errors]
    if len(pts) < 3:
        raise ValueError("need at least 3 (eps, error) points")
    if any(err <= 0 for _, err in pts):
        raise ValueError("errors must be positive")
    xs = np.log([e for e, _ in pts])
    ys = np.log([err for _, err in pts])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)
