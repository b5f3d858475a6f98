"""Independent numeric oracles: IVP/BVP solvers, a Burgers field solver
and convergence-order fits.

Nothing in here touches the symbolic kernel; these routines provide the
reference values the symbolic pipeline is judged against, so they must stay
independent of it; only ``exprcore``'s code runner (``_Code``) is used.

Both IVP oracles (``solve_ivp``) are step loops on Python floats, and an
rhs gets and returns its state as a list of floats: the oracles' states have
2-4 entries, where numpy's per-call cost outweighs its arithmetic, and the
adaptive loop, with its stages, step control and dense output, is
straight-line code generated once per state size.  An rhs that is itself
straight-line code (``exprcore._Code.list_rhs``: the ODE oracles'
``explicit_ode_rhs``, its time-dependent coefficients folded in, the numeric
flows' ``evaluator_rhs`` and the switchback shooting ``rhs_log``) is inlined
into the stages of a loop generated once per state size and rhs source; any
other rhs (a plain function, a wrapper) is called.  The Burgers
method-of-lines solver, whose states have hundreds of entries, runs the same
generated Dormand-Prince loop on an ndarray state, in scipy's RK45
arithmetic.  numpy is the only dependency.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, reduce
from itertools import count
from operator import add
from re import findall, sub

import numpy as np

from .exprcore import _Code


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
        if len(x) == 1:     # a solve over a zero-length interval
            return np.full(t.shape, y[0])
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


def _finite(t, values) -> list:
    """``values``, an rhs value at t, as a list of Python floats, each
    checked for NaN/Inf."""
    out = list(map(float, values))
    if not all(map(math.isfinite, out)):
        raise SolverError(f"NaN/Inf in rhs at t={t}")
    return out


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
    return math.sqrt(reduce(add, [x * x for x in xs], 0)) / len(xs) ** 0.5


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


def _array_attempt(f, rtol, atol, t, y, k1, h):
    """One attempt on an ndarray state (the rhs unchecked), in scipy
    RK45's operations on its zero-padded tableau, BLAS calls per stage: the
    new state, its rhs, the scaled RMS error and the stages."""
    K = np.empty((7, len(y)))
    K[0] = k1
    for s, (a, c) in enumerate(zip(_A, _C), start=1):
        K[s] = f(t + c * h, y + np.dot(K[:s].T, a) * h)
    y_new = y + h * np.dot(K[:-1].T, _BS)
    K[6] = k7 = f(t + h, y_new)
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    return y_new, k7, _norm(np.dot(K.T, _ES) * h / scale), K


def _array_dense(t, y, h, K, tes):
    """The dense output of that step at the times ``tes``, as states."""
    p = np.cumprod(np.tile((np.array(tes) - t) / h, (4, 1)), axis=0)
    out = h * np.dot(K.T.dot(_PS), p)
    out += y[:, None]
    return list(out.T)


@cache
def _dopri_loop(n, inline=None):
    """``loop(f, rtol, atol, t, y, k1, h_abs, t1, d, ts, ys, fs, keys, i)``:
    ``_dopri5``'s accept/reject loop from (t, y, k1) to t1, generated once
    per list state size n (None for an ndarray state) and inlined rhs.
    Each accepted step adds its node, state and last stage to ``ts``,
    ``ys`` and ``fs`` if ``fs`` is a list, and the dense output at each
    point ``ts[i]`` whose key it passes to ``ys``.  Returns 1 when the step
    falls below ten float spacings at t.

    On a list state the stages, the error norm and the dense output are
    local scalars, with the float operations of one list comprehension per
    stage in their order (``yi + (a31 * p + a32 * q) * h``, ``yi + h * (b1
    * p + ...)``, ``sqrt(0 + x0 * x0 + ...) / n ** 0.5``, ``0 + k1 * p1 + k3
    * p3 + ...`` per dense coefficient); |y| is carried from the step that
    accepted y, and ``<`` picks max(|y|, |y_new|) as ``max`` does.  A stage
    runs the rhs's lines in place, renamed into the loop, each ``return``
    made an assignment of the stage's values: when ``inline`` is the
    ``(role, lines)`` of a ``_Code.list_rhs``, its lines, with ``f`` its
    bound values, which the loop reads into locals, so one loop serves every
    rhs of that source; else the one line that calls ``f`` on the stage's
    state as a list.  Each stage's values p0, p1, ... are checked as they
    come: ``p0 - p0 + p1 - p1 + ...`` is 0.0 when all are finite, and
    cannot overflow; else it is NaN, and ``_finite`` raises.  An ndarray
    state calls ``_array_attempt`` and ``_array_dense`` instead.
    """
    code, new = _Code(), (f"b{i}" for i in count()).__next__
    vabs, vmax, vmin, safety, exponent, max_factor = map(
        code.bind, (abs, max, min, _SAFETY, _EXPONENT, _MAX_FACTOR))
    t, h_abs, rejected, min_step, t_new, h, err, factor, grow, i, j, d_inf = (
        new() for _ in range(12))
    setup, carry, carried = [], [], []  # before the loop; kept across steps
    if n is None:
        y, k1, y_new, k7, stages = [new()], [new()], [new()], [new()], new()
        attempt = [f"{y_new[0]}, {k7[0]}, {err}, {stages} = "
                   f"{code.bind(_array_attempt)}(a0, a1, a2, {t}, {y[0]}, "
                   f"{k1[0]}, {h})"]
        y_row, k7_row = y_new[0], k7[0]
        dense = [f"a10 += {code.bind(_array_dense)}({t}, {y[0]}, {h}, "
                 f"{stages}, a9[{i}:{j}])", f"{i} = {j}"]
    else:
        check, sqrt = code.bind(_finite), code.bind(math.sqrt)
        A = [[code.bind(a) for a in row] for row in _A]
        B, E = [code.bind(b) for b in _B], [code.bind(e) for e in _E]
        P = [[code.bind(p) for p in row] for row in _P]
        y, k1 = [new() for _ in range(n)], [new() for _ in range(n)]
        state = [new() for _ in range(n)]
        ks, attempt = [k1], []
        if inline:
            # the rhs's locals and bound values become loop locals shared
            # by the stages; bound value m is read from a0[m] once
            lines = inline[1]
            shared = {v: new() for v in sorted(set(findall(
                r"\b[bk]\d+\b", "\n".join(lines))))}
            setup += [f"{b} = a0[{v[1:]}]" for v, b in shared.items()
                      if v[0] == "k"]
        else:   # f, the loop's a0, called in the rhs's one line
            args = ", ".join(f"a{c + 1}" for c in range(n))
            lines, shared = [f"return k0(a0, [{args}])"], {"k0": "a0"}

        def combo(coeffs, stages, c):
            return " + ".join(f"{a} * {ks[s][c]}"
                              for a, s in zip(coeffs, stages))

        def stage(at, state):
            """The stage's time te, its values k from the rhs lines renamed
            into the loop, each ``return`` made an assignment to k, and
            their check."""
            te, k = new(), [new() for _ in range(n)]
            names = {**shared, "a0": te,
                     **{f"a{c + 1}": v for c, v in enumerate(state)}}
            attempt.append(f"{te} = {at}")
            for line in lines:
                lead, ret, value = sub(r"\b[abk]\d+\b",
                                       lambda m: names[m[0]],
                                       line).partition("return ")
                if ret:     # a list display's entries, or a call's list
                    lead += (f"{', '.join(k)} = {value[1:-1]}"
                             if value[0] == "[" else
                             f"{''.join(v + ', ' for v in k)}= {value}")
                attempt.append(lead)
            attempt.extend([f"if {' + '.join(f'{v} - {v}' for v in k)}:",
                            f"    {check}({te}, [{', '.join(k)}])"])
            ks.append(k)
        for s, (c, a) in enumerate(zip(_C, A), start=1):
            attempt += [f"{state[c]} = {y[c]} + ({combo(a, range(s), c)}) "
                        f"* {h}" for c in range(n)]
            stage(f"{t} + {code.bind(c)} * {h}", state)
        y_new, xs = [new() for _ in range(n)], [new() for _ in range(n)]
        abs_y, abs_new, big = ([new() for _ in range(n)] for _ in range(3))
        attempt += [f"{y_new[c]} = {y[c]} + {h} * "
                    f"({combo(B, (0, 2, 3, 4, 5), c)})" for c in range(n)]
        stage(f"{t} + {h}", y_new)
        k7 = ks[6]
        for c in range(n):
            # |y_new| by a comparison keeps -0.0, which scales the error as
            # 0.0 does
            attempt += [f"{abs_new[c]} = {y_new[c]}",
                        f"if {y_new[c]} < 0:",
                        f"    {abs_new[c]} = -{y_new[c]}",
                        f"{big[c]} = {abs_y[c]}",
                        f"if {abs_y[c]} < {abs_new[c]}:",
                        f"    {big[c]} = {abs_new[c]}",
                        f"{xs[c]} = ({combo(E, (0, 2, 3, 4, 5, 6), c)}) * "
                        f"{h} / (a2 + {big[c]} * a1)"]
        attempt.append(f"{err} = {sqrt}(0 + "
                       f"{' + '.join(x + ' * ' + x for x in xs)}) / "
                       f"{code.bind(n ** 0.5)}")
        y_row, k7_row = f"[{', '.join(y_new)}]", f"[{', '.join(k7)}]"
        setup += [f"{a} = {vabs}({v})" for a, v in zip(abs_y, y)]
        carry, carried = abs_y, abs_new     # |y| <- |y_new|
        Q = [[new() for _ in range(4)] for _ in range(n)]
        x, x2, x3 = new(), new(), new()
        dense = [f"{Q[c][m]} = 0 + " + " + ".join(
            f"{ks[s][c]} * {p[m]}" for s, p in zip((0, 2, 3, 4, 5, 6), P))
            for c in range(n) for m in range(4)]
        dense += [f"while {i} < {j}:", f"    {x} = (a9[{i}] - {t}) / {h}",
                  f"    {x2} = {x} * {x}", f"    {x3} = {x2} * {x}",
                  "    a10 += [[" + ", ".join(
                      f"{y[c]} + {h} * ({Q[c][0]} * {x} + {Q[c][1]} * {x2} "
                      f"+ {Q[c][2]} * {x3} + {Q[c][3]} * ({x3} * {x}))"
                      for c in range(n)) + "]]", f"    {i} += 1"]
    tail = "," if n else ""     # a list state is unpacked into scalars
    body = [
        f"{t}, {h_abs}, {i} = a3, a6, a13", f"{', '.join(y)}{tail} = a4",
        f"{', '.join(k1)}{tail} = a5", *setup,
        f"{d_inf} = a8 * {code.bind(math.inf)}", f"while a8 * ({t} - a7) < 0:",
        # the spacing has the sign of d, the step h too: times d is |.|
        f"    {min_step} = 10 * (({code.bind(math.nextafter)}({t}, {d_inf}) "
        f"- {t}) * a8)",
        f"    if {h_abs} < {min_step}:", f"        {h_abs} = {min_step}",
        f"    {rejected} = 0", "    while 1:",
        f"        if {h_abs} < {min_step}:", "            return 1",
        f"        {t_new} = {t} + {h_abs} * a8",
        f"        if 0 < a8 * ({t_new} - a7):", f"            {t_new} = a7",
        f"        {h} = {t_new} - {t}", f"        {h_abs} = {h} * a8",
        *("        " + line for line in attempt),
        f"        if {err} < 1:",
        f"            {factor} = {max_factor}",
        f"            if 0 < {err}:",
        f"                {grow} = {safety} * {err} ** {exponent}",
        f"                if {grow} < {max_factor}:",
        f"                    {factor} = {grow}",
        f"            if {rejected}:",
        f"                {factor} = {vmin}(1, {factor})",
        f"            {h_abs} *= {factor}", "            break",
        f"        {h_abs} *= {vmax}({code.bind(_MIN_FACTOR)}, "
        f"{safety} * {err} ** {exponent})", f"        {rejected} = 1",
        "    if a11:", f"        a9 += [{t_new}]", f"        a10 += [{y_row}]",
        f"        a11 += [{k7_row}]", "    if a12:",
        f"        {j} = {code.bind(bisect_right)}(a12, a8 * {t_new})",
        f"        if {i} < {j}:", *("            " + line for line in dense),
        f"    {', '.join([t, *y, *k1, *carry])} = "
        f"{', '.join([t_new, *y_new, *k7, *carried])}"]
    role = ("dopri_loop ndarray" if n is None else f"dopri_loop n={n}"
            + (f" {inline[0]}" if inline else ""))
    return code.function(14, body, role)


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
    ndarray, which picks the loop (``_dopri_loop``); on a list state, the
    ``straight_line`` of a ``_Code.list_rhs`` picks the loop that inlines
    it, and the loop gets its bound values in place of f.  This sets it up:
    the output points, the first rhs value and the first step, whose rhs
    calls ``_finite`` checks on a list state.  Returns the abscissae, states
    and rhs values: every accepted step from t0 on with its last stage, or
    the quartic dense output at ``t_eval`` and None.  Raises SolverError
    when the step falls below ten times the float spacing at t.
    """
    array = isinstance(y0, np.ndarray)
    checked = f if array else lambda t, y: _finite(t, f(t, y))
    d = 1.0 if t1 >= t0 else -1.0
    ts, keys = ([t0], []) if t_eval is None else _eval_points(t0, t1, t_eval)
    k1 = checked(t0, y0)
    i = bisect_right(keys, d * t0)
    ys, fs = ([y0], [k1]) if t_eval is None else ([y0] * i, None)
    h_abs = _initial_step(checked, t0, y0, k1, abs(t1 - t0), d, rtol, atol)
    inline, arg = (None, f) if array else getattr(f, "straight_line",
                                                  (None, f))
    if _dopri_loop(None if array else len(y0), inline)(
            arg, rtol, atol, t0, y0, k1, h_abs, t1, d, ts, ys, fs, keys, i):
        raise SolverError("adaptive integration failed: Required step size "
                          "is less than spacing between numbers.")
    return ts, ys, fs


def solve_ivp(rhs, y0, interval, method: str = "rk45-adaptive",
              tol: float = 1e-10, step: float = 1e-3,
              t_eval=None) -> IVPSolution:
    """Integrate y' = rhs(t, y) over ``interval``.

    ``rhs`` gets the state as a list, which it must not change, and returns
    a sequence of real numbers.  Both step loops do their arithmetic on the
    returned values as they are, so an rhs that returns Python floats gets
    Python floats, and a list of floats is the fast return.

    Both methods start at t0 and take ``t_eval`` ordered from t0 to t1 inside
    the interval, else raise ValueError.  ``rk4-fixed`` uses the requested
    step, snapped so that each output point is hit exactly.
    ``rk45-adaptive`` is the Dormand-Prince 5(4) pair with local
    extrapolation (Dormand & Prince 1980; Hairer, Norsett & Wanner, Solving
    ODEs I, II.4-II.5), step for step and rhs call for rhs call scipy's
    RK45 at rtol ``tol`` and atol ``tol * 1e-2``: the same tableau,
    first-step guess and RMS error norm with scale atol + max(|y|,
    |y_new|)*rtol; a new step of 0.9*err^(-1/5) times the old, bounded to
    [0.2, 10] and not grown right after a rejection; a minimum step of 10
    float spacings at t; the last stage's rhs reused as the next step's
    first; quartic dense output at ``t_eval``.

    Either method raises SolverError on a NaN/Inf: ``rk45-adaptive`` checks
    every rhs value, ``rk4-fixed`` checks the state once per output
    interval, which a non-finite stage value always leaves non-finite.  The
    rk45 check runs on each stage inside the generated loop
    (``_dopri_loop``), not once per accepted step: a step with a non-finite
    stage would be rejected and retried shorter, so the accepted states
    stay finite and the integrator would stop on a step-size underflow
    instead.  On a zero-length interval both return the one node t0, whose
    dense output is y0 at every t.

    ``rk45-adaptive`` runs an rhs built by ``exprcore._Code.list_rhs``
    (``explicit_ode_rhs``, ``evaluator_rhs``, ``SwitchbackProblem.rhs_log``)
    inside its loop, in its float operations and exception branches, and
    calls any other rhs (a plain function, a wrapper around one of those):
    the times, states, rhs values and errors are the same either way.  The
    loop is compiled once per state size and rhs source, and the rhs's
    bound values are passed to it per solve.

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
    if method == "rk45-adaptive":
        # an rhs may return numpy scalars: the step's stage check then does
        # numpy's inf - inf, which warns before _finite raises SolverError
        with np.errstate(invalid="ignore"):
            ts, ys, fs = _dopri5(rhs, t0, t1, y0, tol, tol * 1e-2, t_eval)
    elif method == "rk4-fixed":
        if t_eval is not None:
            ts = _eval_points(t0, t1, t_eval)[0]
        else:
            n = max(1, int(round((t1 - t0) / step)))
            ts = np.linspace(t0, t1, n + 1).tolist() if t1 != t0 else [t0]
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
        fs = [_finite(t, rhs(t, y)) for t, y in zip(ts, ys)]
    return IVPSolution(np.array(ts), np.array(ys), np.array(fs))


def solve_bvp_shooting(rhs, x_left: float, u_left: float, x_right: float,
                       u_right: float, slope_guess: float):
    """Secant shooting on the missing left slope for a scalar 2nd-order BVP.

    ``rhs`` is the first-order system rhs(t, [u, u']).  Each shot is an RK45
    solve at tolerance 1e-11; a miss below 1e-10 at the right end converges,
    and so does a secant step below 1e-13 in the slope if its miss is below
    1e-10 too.  Returns the converged IVPSolution; raises SolverError when
    the secant stalls short of that, or after 100 iterations.
    """
    tol, tol_slope = 1e-10, 1e-13

    def boundary_miss(s):
        sol = solve_ivp(rhs, [u_left, s], (x_left, x_right), "rk45-adaptive",
                        tol=1e-11)
        return sol.states[-1, 0] - u_right, sol

    s0, s1 = slope_guess, slope_guess * 1.01 + 1e-8
    f0, sol = boundary_miss(s0)
    for _ in range(100):
        if abs(f0) < tol:
            return sol
        f1, sol1 = boundary_miss(s1)
        if f1 == f0 or abs(s1 - s0) < tol_slope:
            f0, sol = f1, sol1
            break
        s0, s1 = s1, s1 - f1 * (s1 - s0) / (f1 - f0)
        f0, sol = f1, sol1
    else:
        f0, sol = boundary_miss(s1)
    if abs(f0) < tol:
        return sol
    raise SolverError(f"shooting did not converge: residual {f0:.3e}")


def solve_burgers_mol(u0, eps: float, t_eval, x_grid):
    """Method-of-lines field for u_t = -eps*u*u_x**2 with initial profile u0.

    Central differences in x (one-sided at the edges), Dormand-Prince 5(4)
    in t at rtol = atol = 1e-9 (``_dopri5`` on an ndarray state); the run
    is accepted only if a grid-halving Richardson check agrees to 1e-4 in
    sup norm at the final time.
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
    if drift > 1e-4:
        raise SolverError(
            f"Richardson check failed: grids differ by {drift:.3e} (> 0.0001)")
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
