"""Approximate perturbation symmetries acting on the switch parameter.

Replacing the perturbation parameter by eps*s turns the switch s into a
coordinate; generators with a unit s-component are solved for order by order
from the determining equation on the series, matching coefficients of every
independent basis function and of the arbitrary integration constants.  The
finite transformations of these symmetries carry the unperturbed solution to
globally valid approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exprcore import (Expr, LinEq, Q_ZERO, _qadd, product_upto,
                       solve_linear_system)
from .pertseries import PerturbationSeries


class DeterminingError(RuntimeError):
    pass


def with_switch(series: PerturbationSeries, s: str = "s") -> Expr:
    """The series with the parameter replaced by parameter*switch."""
    out = Expr.zero()
    p = Expr.sym(series.parameter)
    sw = Expr.var(s)
    for j, e in enumerate(series.orders):
        out = out + (p ** j) * (sw ** j) * e
    return out


@dataclass
class GeneratorAnsatz:
    """Shape functions with unknown rational weights, per direction and order.

    ``directions`` maps a tangent direction (an independent variable name,
    the dependent symbol, or the switch) to {order: [shape Expr]}.  The
    switch component is exactly 1, so the switch takes no shapes.
    ``chain`` maps a direction to the symbols that are opaque functions of
    it, each with the symbol of its derivative (the chain rule of
    ``Expr.diff``).
    """

    directions: dict
    dependent: str = "y"
    switch: str = "s"
    chain: dict = field(default_factory=dict)

    @staticmethod
    def oscillator(k: int, var: str = "t", dependent: str = "y",
                   switch: str = "s") -> "GeneratorAnsatz":
        """The default polynomial span {1, t, st, t^2, y, ty, t^2y}.

        The switch direction carries no shape functions: its tangent
        component is exactly 1, which fixes the group parametrization.
        """
        t = Expr.var(var)
        sv = Expr.var(switch)
        y = Expr.sym(dependent)
        span = [Expr.num(1), t, sv * t, t * t, y, t * y, t * t * y]
        dirs = {var: {j: list(span) for j in range(k + 1)},
                dependent: {j: list(span) for j in range(k + 1)},
                switch: {}}
        return GeneratorAnsatz(dirs, dependent, switch)


@dataclass
class Generator:
    """Solved tangent components per direction and order."""

    components: dict              # (direction, order) -> Expr
    parameter: str
    free_weights: list = field(default_factory=list)

    def component(self, direction: str, order: int) -> Expr:
        return self.components.get((direction, order), Expr.zero())


def _collect_rows(e: Expr, weights):
    """Linear equations: basis function x parameter monomial x re/im part."""
    rows: dict = {}
    for t in e.terms:
        shape = t.shape()
        for pows, q in t.coeff.monos:
            wsyms = [(s, k) for s, k in pows if s in weights]
            rest = tuple((s, k) for s, k in pows if s not in weights)
            if not wsyms:
                w = None
            elif len(wsyms) == 1 and wsyms[0][1] == 1:
                w = wsyms[0][0]
            else:
                raise DeterminingError(
                    "ansatz weights must enter the determining equation "
                    "linearly")
            row = rows.setdefault((shape, rest), {})
            row[w] = _qadd(row.get(w, Q_ZERO), q)
    return [LinEq({w: _part(q, i) for w, q in row.items() if w is not None},
                  _part(row.get(None, Q_ZERO), i))
            for row in rows.values() for i in (0, 1)]


def _part(q, i: int) -> Expr:
    """The real (i = 0) or imaginary (i = 1) part of a triple, as an Expr."""
    return Expr.num(Fraction(q[i], q[2]))


def _number(e: Expr) -> Fraction:
    """The rational value of an expression that is a real number."""
    t = e.single_term()
    if t is None:
        return Fraction(0)
    re, _, den = t.coeff.is_number()
    return Fraction(re, den)


def solve_determining(series_with_s: Expr, ansatz: GeneratorAnsatz, k: int,
                      parameter: str = "eps") -> Generator:
    """Solve the determining equation for the generator, order by order.

    The equation X(y - series)|_{y=series} = 0 is expanded to order ``k`` in
    the parameter; coefficients of every independent basis function and of
    every monomial in the arbitrary constants must vanish, which yields a
    rational linear system for the ansatz weights.
    """
    dep = ansatz.dependent
    sw = ansatz.switch
    if any(ansatz.directions.get(sw, {}).values()):
        raise DeterminingError(f"the {sw}-component is exactly 1: the ansatz "
                               "takes no shape functions for it")
    weights = {}

    def weighted(direction: str, order: int) -> Expr:
        shapes = ansatz.directions.get(direction, {}).get(order, [])
        out = Expr.zero()
        for i, shape in enumerate(shapes):
            w = f"w_{direction}_{order}_{i}"
            weights[w] = (direction, order, i, shape)
            out = out + Expr.sym(w) * shape
        return out

    # E is read to order k only, here and by _verify_generator, so its
    # products drop every order above k
    eps = Expr.sym(parameter)
    E = Expr.zero()
    dseries = {v: series_with_s.diff(v, ansatz.chain.get(v, {}))
               for v in list(ansatz.directions) if v != dep}
    for j in range(k + 1):
        eta = weighted(dep, j)
        if not eta.is_zero():
            eta = eta.subs_param(dep, series_with_s)
        E = E + (eps ** j) * eta
        for v, dv in dseries.items():
            if v == sw:
                continue
            xi = weighted(v, j)
            if not xi.is_zero():
                xi = xi.subs_param(dep, series_with_s)
                E = E - product_upto([eps ** j, xi, dv], parameter, k)
    # switch direction: its component is exactly 1
    if sw in dseries:
        E = E - dseries[sw]

    eqs = []
    for part in E.orders(parameter, k):
        eqs.extend(_collect_rows(part, weights))
    solution, _, leftovers = solve_linear_system(eqs)
    if leftovers:
        raise DeterminingError(
            "no symmetry in the ansatz span: inconsistent determining "
            f"equation (residual {_number(leftovers[0].const)})")
    # weights the system leaves undetermined, free or absent, are zero
    sol = {w: _number(solution[w]) if w in solution else Fraction(0)
           for w in weights}

    comps: dict = {}
    for w, (direction, order, i, shape) in weights.items():
        c = sol[w]
        if c:
            key = (direction, order)
            comps[key] = comps.get(key, Expr.zero()) + shape.scale(c)
    gen = Generator(comps, parameter, sorted(set(weights) - set(solution)))
    _verify_generator(E, sol, parameter, k)
    return gen


def _verify_generator(E: Expr, sol: dict, parameter, k):
    res = E.subs_num(sol)
    for j, part in enumerate(res.orders(parameter, k)):
        if not part.is_zero():
            raise DeterminingError(
                f"generator verification failed at order {j}")


def burgers_series_with_switch() -> Expr:
    """u = U - eps*s*t*U*Ux^2 with U an opaque monotone initial profile."""
    return (Expr.sym("U") - Expr.sym("eps") * Expr.var("s") * Expr.var("t")
            * Expr.sym("U") * Expr.sym("Ux") ** 2)


def burgers_generator() -> Generator:
    """Perturbation symmetry of the modified Burgers series on (x, s).

    The x-direction span contains profile-dependent shapes; the solved
    generator is xi_x = eps*t*u*Ux with a unit s-component.
    """
    series = burgers_series_with_switch()
    t = Expr.var("t")
    y = Expr.sym("y")
    ux = Expr.sym("Ux")
    dirs = {"x": {0: [Expr.num(1), t, y, ux],
                  1: [t * y * ux, t * y, y * ux, t * ux]},
            "s": {}}
    # U is a function of x: d/dx U = Ux, d/dx Ux = Uxx
    ansatz = GeneratorAnsatz(dirs, dependent="y", switch="s",
                             chain={"x": {"U": "Ux", "Ux": "Uxx"}})
    return solve_determining(series, ansatz, 1)


# ---------------------------------------------------------------------------
# Underdamped oscillator closed form.

@dataclass
class ExpStrainedForm:
    """y = A * exp(-eps*t/2) * sin(t*exp(-eps^2/8) + theta)."""

    eps: float
    amplitude: float
    offset: float

    @staticmethod
    def text() -> str:
        return "A*exp(-eps*t/2)*sin(t*exp(-eps^2/8) + theta)"

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        out = (self.amplitude * np.exp(-self.eps * t / 2)
               * np.sin(t * math.exp(-self.eps ** 2 / 8) + self.offset))
        return float(out) if out.ndim == 0 else out


def underdamped_uniform(eps: float, amplitude: float,
                        offset: float) -> ExpStrainedForm:
    """Integrate the switch-parameter flow and transport the s=0 solution.

    The flows dt/ds = eps^2*s*t/4 and dy/ds = -eps*y*t/2 integrate to
    t = t0*exp(eps^2*s^2/8) and, to the working order, y = y0*exp(-eps*s*t0/2);
    at s = 1 the unperturbed solution A*sin(t0 + theta) becomes the strained
    exponential form (errors of third order in eps).
    """
    return ExpStrainedForm(eps, amplitude, offset)


# ---------------------------------------------------------------------------
# Lambert W (principal branch) and the Burgers finite transformation.

def lambert_w(z: float) -> float:
    """Principal-branch W(z) for z >= -1/e by Halley iteration.

    Satisfies W*exp(W) = z to ~1e-14 relative.
    """
    if z < -math.exp(-1.0):
        raise ValueError("lambert_w requires z >= -1/e on the principal branch")
    if z == 0.0:
        return 0.0
    if z > math.e:
        w = math.log(z)
        w -= math.log(w)
    elif z > 0:
        w = z / (1.0 + z)
    else:
        # near the branch point use the square-root expansion
        p = math.sqrt(2.0 * (math.e * z + 1.0))
        w = -1.0 + p - p * p / 3.0
    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - z
        if w != -1.0:
            denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        else:
            denom = ew * (w + 1.0)
        if denom == 0:
            break
        dw = f / denom
        w -= dw
        if abs(dw) < 1e-16 * max(1.0, abs(w)):
            break
    return w


def lambert_w_exp_arg(log_z: float) -> float:
    """W(exp(log_z)) without forming exp(log_z); needed for huge arguments."""
    if log_z < 700.0:
        return lambert_w(math.exp(log_z))
    # solve w + log(w) = log_z, w > 0, by Newton (monotone, well-conditioned)
    w = log_z - math.log(log_z)
    for _ in range(60):
        g = w + math.log(w) - log_z
        dw = g / (1.0 + 1.0 / w)
        w -= dw
        if abs(dw) < 1e-16 * max(1.0, abs(w)):
            break
    return w


@dataclass
class Log1pProfile:
    """Initial profile U(x) = log(1 + x) with its inverse and quadratures."""

    def U(self, x):
        return np.log1p(x)

    def H(self, u):
        return np.expm1(u)

    def G(self, x):
        """Antiderivative of 1/U'(x) = 1 + x."""
        return 0.5 * x * x + x

    def u_range(self, x: float):
        return (-0.5, float(self.U(x)) + 1.0)


def burgers_ft_solve(profile, t: float, x: float, eps: float) -> float:
    """Solve the implicit finite-transformation relation for u.

    The relation integral_{H(u)}^{x} dz/U'(z) = eps*t*u is solved by
    safeguarded Newton/bisection to a relative step of 1e-13; the profile
    must be strictly monotone with a known inverse H.
    """
    if t == 0.0:
        return float(profile.U(x))

    def F(u):
        return float(profile.G(x) - profile.G(profile.H(u)) - eps * t * u)

    lo, hi = profile.u_range(x)
    flo, fhi = F(lo), F(hi)
    guard = 0
    while flo * fhi > 0 and guard < 60:
        lo -= 0.5
        hi += 0.5
        flo, fhi = F(lo), F(hi)
        guard += 1
    if flo * fhi > 0:
        raise RuntimeError("could not bracket the Burgers transformation root")
    u = 0.5 * (lo + hi)
    for _ in range(200):
        fu = F(u)
        if flo * fu <= 0:
            hi = u
        else:
            lo, flo = u, fu
        h = 1e-7 * max(1.0, abs(u))
        dfu = (F(u + h) - F(u - h)) / (2 * h)
        step = fu / dfu if dfu else 0.0
        u_new = u - step
        if not (lo < u_new < hi):
            u_new = 0.5 * (lo + hi)
        if abs(u_new - u) < 1e-13 * max(1.0, abs(u)):
            return u_new
        u = u_new
    raise RuntimeError("Burgers root finding did not converge")


def burgers_closed_form(t: float, x: float, eps: float) -> float:
    """u = (x+1)^2/(2*eps*t) - W[(1/(eps*t))*exp((x+1)^2/(eps*t))]/2.

    The Lambert argument is passed in log form to survive large exponents.
    """
    if t == 0.0:
        return math.log1p(x)
    q = (x + 1.0) ** 2 / (eps * t)
    w = lambert_w_exp_arg(q - math.log(eps * t))
    return 0.5 * q - 0.5 * w


def burgers_bare_series(t: float, x, eps: float):
    """First-order series u = U - eps*t*U*Ux^2 for U = log(1+x)."""
    x = np.asarray(x, dtype=float)
    U = np.log1p(x)
    Ux = 1.0 / (1.0 + x)
    out = U - eps * t * U * Ux ** 2
    return float(out) if out.ndim == 0 else out
