"""Independent numeric oracles: IVP/BVP solvers, a Burgers field solver,
error reports and convergence-order fits.

Nothing in here touches the symbolic kernel; these routines provide the
reference values the symbolic pipeline is judged against, so they must stay
independent of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp as _scipy_ivp


class SolverError(RuntimeError):
    pass


@dataclass
class IVPSolution:
    """Grid states plus cubic Hermite dense output from stored derivatives."""

    grid: np.ndarray           # strictly increasing abscissae
    states: np.ndarray         # shape (len(grid), dim)
    derivs: np.ndarray         # rhs evaluated at the grid nodes

    def __call__(self, t, component: int = 0):
        t = np.asarray(t, dtype=float)
        x, y, f = self.grid, self.states[:, component], self.derivs[:, component]
        idx = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
        h = x[idx + 1] - x[idx]
        s = (t - x[idx]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s ** 2 * (3 - 2 * s)
        h11 = s ** 2 * (s - 1)
        return h00 * y[idx] + h10 * h * f[idx] + h01 * y[idx + 1] + h11 * h * f[idx + 1]

    def at_nodes(self, component: int = 0) -> np.ndarray:
        return self.states[:, component]


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
    def wrapped(t, y):
        out = np.asarray(rhs(t, np.asarray(y, dtype=float)), dtype=float)
        if not np.all(np.isfinite(out)):
            raise SolverError(f"NaN/Inf in rhs at t={t}")
        return out
    return wrapped


def solve_ivp(rhs, y0, interval, method: str = "rk45-adaptive",
              tol: float = 1e-10, step: float = 1e-3,
              t_eval=None) -> IVPSolution:
    """Integrate y' = rhs(t, y) over ``interval``.

    ``rk4-fixed`` uses the requested step (snapped so the endpoint is hit
    exactly); ``rk45-adaptive`` delegates step control to a Dormand-Prince
    integrator at local tolerance ``tol``.  Either raises SolverError on a
    NaN/Inf: ``rk45-adaptive`` checks every rhs value, ``rk4-fixed`` checks
    the state once per output interval, which a non-finite stage value
    always leaves non-finite.

    For a ``LinearRHS`` M, ``rk4-fixed`` advances each output interval of
    ``n_sub`` steps of size ``h`` by y <- R(hM)^n_sub @ y, where
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 is the RK4 stability function
    (Hairer-Wanner, Solving ODEs II, IV.2).  Expanding the four stages of
    one step of y' = My gives exactly y <- R(hM) @ y, so this is the same
    integrator at the same step; the states differ from the step loop only
    by rounding.
    """
    t0, t1 = float(interval[0]), float(interval[1])
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    f = _check_rhs(rhs)
    if method == "rk4-fixed":
        def g(t, y):    # y is already a float array here
            return np.asarray(rhs(t, y), dtype=float)
        if t_eval is not None:
            grid = np.asarray(t_eval, dtype=float)
        else:
            n = max(1, int(round((t1 - t0) / step)))
            grid = np.linspace(t0, t1, n + 1)
        states = np.empty((len(grid), len(y0)))
        states[0] = y0
        y = y0.copy()
        for i in range(len(grid) - 1):
            a, b = grid[i], grid[i + 1]
            n_sub = max(1, int(round((b - a) / step)))
            h = (b - a) / n_sub
            if h <= 0 or not np.isfinite(h):
                raise SolverError("step underflow in rk4-fixed")
            if isinstance(rhs, LinearRHS):
                y = _rk4_power(rhs.M, h, n_sub) @ y
            else:
                t = a
                for _ in range(n_sub):
                    k1 = g(t, y)
                    k2 = g(t + h / 2, y + h / 2 * k1)
                    k3 = g(t + h / 2, y + h / 2 * k2)
                    k4 = g(t + h, y + h * k3)
                    y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                    t += h
            if not np.all(np.isfinite(y)):
                raise SolverError(f"NaN/Inf in rk4-fixed state at t={b}")
            states[i + 1] = y
        derivs = np.array([f(t, s) for t, s in zip(grid, states)])
        return IVPSolution(grid, states, derivs)
    if method == "rk45-adaptive":
        sol = _scipy_ivp(f, (t0, t1), y0, method="RK45", rtol=tol,
                         atol=tol * 1e-2, t_eval=t_eval, dense_output=False)
        if not sol.success:
            raise SolverError(f"adaptive integration failed: {sol.message}")
        grid = sol.t
        states = sol.y.T
        derivs = np.array([f(t, s) for t, s in zip(grid, states)])
        return IVPSolution(grid, states, derivs)
    raise ValueError(f"unknown method {method!r}")


def solve_bvp_shooting(rhs, x_left: float, u_left: float, x_right: float,
                       u_right: float, slope_guess: float,
                       tol: float = 1e-10, tol_slope: float = 1e-13,
                       max_iter: int = 100, ivp_tol: float = 1e-11,
                       t_eval=None):
    """Secant shooting on the missing left slope for a scalar 2nd-order BVP.

    ``rhs`` is the first-order system rhs(t, [u, u']).  Returns the converged
    IVPSolution; raises SolverError after ``max_iter`` iterations.
    """
    def boundary_miss(s):
        sol = solve_ivp(rhs, [u_left, s], (x_left, x_right), "rk45-adaptive",
                        tol=ivp_tol, t_eval=t_eval)
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
                      richardson_tol: float = 1e-4, ivp_tol: float = 1e-9):
    """Method-of-lines field for u_t = -eps*u*u_x**2 with initial profile u0.

    Central differences in x (one-sided at the edges); the run is accepted
    only if a grid-halving Richardson check agrees to ``richardson_tol`` in
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
        sol = _scipy_ivp(rhs, (0.0, float(t_eval[-1])), u0(xs), method="RK45",
                         rtol=ivp_tol, atol=ivp_tol, t_eval=t_eval)
        if not sol.success:
            raise SolverError(f"Burgers integration failed: {sol.message}")
        return sol.y.T  # (len(t_eval), len(xs))

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


@dataclass
class ErrorReport:
    """Comparison of an approximation against an oracle on a grid."""

    sup_error: float
    l2_error: float
    table: np.ndarray          # columns: x, oracle, approx, abs error

    @staticmethod
    def from_samples(x, oracle, approx):
        x = np.asarray(x, dtype=float)
        oracle = np.asarray(oracle, dtype=float)
        approx = np.asarray(approx, dtype=float)
        err = np.abs(oracle - approx)
        table = np.column_stack([x, oracle, approx, err])
        return ErrorReport(float(err.max()),
                           float(np.sqrt(np.mean(err ** 2))), table)
