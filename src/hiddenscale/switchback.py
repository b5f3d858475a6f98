"""Boundary-condition perturbations of the switchback family.

The model problem is u'' + (n-1)/x u' + u u' + delta*(u')**2 = 0 with
u(eps) = 1 - a, u(inf) = 1, expanded in the switching parameter a.  The
series lives in the basis x^p * exp(r*x) * prod e_1(j*x)^m, written as an
exprcore Poly; the second-order remainder is built by explicit
integrating-factor quadratures and verified symbolically against the
order-two equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .exprcore import Expr, Poly
from .pertseries import ConstantInfo, PerturbationSeries
from .textform import atom_text, join_signed
from . import ftflow


def exp_integral(n: int, x):
    """e_n(x) = integral_x^inf rho**(-n) exp(-rho) drho = x^(1-n) E_n(x),
    x > 0, elementwise over an array.

    E_n is a port of cephes ``expn`` (Moshier 1989), the code behind
    ``scipy.special.expn``: for n = 1, 2, 3 it gives scipy's value bit for
    bit; for larger n it may differ in the last bits.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):    # NaN included
        raise ValueError("exp_integral requires x > 0")
    en = np.array([_expn(n, v) for v in x.ravel().tolist()]).reshape(x.shape)
    out = x ** (1 - n) * en
    return float(out) if out.ndim == 0 else out


_EULER, _MACHEP, _BIG = 0.5772156649015329, 2.0 ** -53, 1.44115188075855872e17


def _expn(n: int, x: float) -> float:
    """E_n(x) for n >= 1, x > 0: 0 past exp's underflow, the power series
    for x <= 1 (DLMF 8.19.8) and the continued fraction above (DLMF
    8.19.17), each until a term moves the value by at most 2^-53 relative."""
    if x > 709.782712893384:
        return 0.0
    if x <= 1.0:
        psi = -_EULER - math.log(x)
        for i in range(1, n):
            psi += 1.0 / i
        z, xk, yk, pk = -x, 0.0, 1.0, 1.0 - n
        ans = 0.0 if n == 1 else 1.0 / pk
        t = 1.0
        while t > _MACHEP:
            xk += 1.0
            yk *= z / xk
            pk += 1.0
            if pk != 0.0:
                ans += yk / pk
            t = abs(yk / ans) if ans != 0.0 else 1.0
        return math.pow(z, n - 1) * psi / math.gamma(n) - ans
    # convergents p1/q1, two terms a turn: k = 2j, then k = 2j + 1
    p0, q0, p1, q1 = 1.0, x, 1.0, x + n
    ans, j = p1 / q1, 0
    while True:
        j += 1
        p0, p1, q0, q1 = p1, p1 * x + p0 * j, q1, q1 * x + q0 * j
        r = p1 / q1
        t, ans = abs((ans - r) / r), r
        if abs(p1) > _BIG:
            p0, p1, q0, q1 = p0 / _BIG, p1 / _BIG, q0 / _BIG, q1 / _BIG
        if t <= _MACHEP:
            break
        p0, p1, q0, q1 = p1, p1 + p0 * (n + j), q1, q1 + q0 * (n + j)
        r = p1 / q1
        t, ans = abs((ans - r) / r), r
        if abs(p1) > _BIG:
            p0, p1, q0, q1 = p0 / _BIG, p1 / _BIG, q0 / _BIG, q1 / _BIG
        if t <= _MACHEP:
            break
    return ans * math.exp(-x)


# ---------------------------------------------------------------------------
# Small closed basis: coeff * x^p * exp(r*x) * prod e_1(j*x)^m, stored as a
# Laurent Poly in the coefficient symbols and the basis symbols "x" (x),
# "ex" (exp(x)) and "e1_<j>" (e_1(j*x)).

def sw_atom(coeff, xpow=0, erate=0, e1pows=()) -> Poly:
    """coeff * x^xpow * exp(erate*x) * prod e1(j*x)^m for (j, m) in e1pows.

    A Poly coeff is shifted monomial by monomial, not multiplied out.
    """
    c = coeff if isinstance(coeff, Poly) else Poly.num(Fraction(coeff))
    shift = [("x", xpow), ("ex", erate)] + [(f"e1_{j}", m) for j, m in e1pows]
    out = []
    for cp, q in c.monos:
        d = dict(cp)
        for s, k in shift:
            d[s] = d.get(s, 0) + k
        out.append((tuple(sorted((s, k) for s, k in d.items() if k)), q))
    return Poly(out)


def _groups(e: Poly):
    """[((xpow, erate, e1pows), coeff Poly)] in print order."""
    acc = {}
    for pows, q in e.monos:
        xpow = erate = 0
        e1, cp = [], []
        for s, k in pows:
            if s == "x":
                xpow = k
            elif s == "ex":
                erate = k
            elif s.startswith("e1_"):
                e1.append((int(s[3:]), k))
            else:
                cp.append((s, k))
        acc.setdefault((xpow, erate, tuple(sorted(e1))), []).append(
            (tuple(cp), q))
    return [(k, Poly(ms)) for k, ms in sorted(acc.items())]


def sw_diff(e: Poly) -> Poly:
    """d/dx, with d/dx e1(j*x) = -exp(-j*x)/x."""
    out = e.diff("x") + sw_atom(e.diff("ex"), 0, 1)
    for s in sorted(e.symbols()):
        if s.startswith("e1_"):
            out = out - sw_atom(e.diff(s), -1, -int(s[3:]))
    return out


def sw_basis(e: Poly, x) -> dict:
    """Values of the basis symbols of ``e`` at ``x`` (a number or an array),
    to pass to ``Poly.eval`` beside the coefficient values."""
    env = {"x": x, "ex": np.exp(x)}
    env.update((s, exp_integral(1, int(s[3:]) * x)) for s in e.symbols()
               if s.startswith("e1_"))
    return env


def sw_text(e: Poly) -> str:
    """Text with terms ordered by (xpow, erate, e1 powers)."""
    parts = []
    for (p, r, e1), c in _groups(e):
        fs = []
        if p:
            fs.append("x" if p == 1 else f"x^{p}")
        if r:
            fs.append(f"exp({r}*x)" if r != -1 else "exp(-x)")
        for j, m in e1:
            base = f"e1({j}*x)" if j != 1 else "e1(x)"
            fs.append(base if m == 1 else base + f"^{m}")
        parts.append(atom_text(c, fs))
    return join_signed(parts)


def sw_antiderivative(e: Poly) -> Poly:
    """Antiderivative via a closed rule table; raises on unknown shapes."""
    out = []
    for (p, r, e1pows), c in _groups(e):
        e1 = dict(e1pows)
        if not e1:
            if r == 0 and p >= 0:
                out.append(sw_atom(c.scale(Fraction(1, p + 1)), p + 1))
                continue
            if r != 0 and p == 0:
                out.append(sw_atom(c.scale(Fraction(1, r)), 0, r))
                continue
            if r != 0 and p == -1:
                # int exp(r*x)/x dx = -e1(-r*x) for r < 0
                if r < 0:
                    out.append(sw_atom(-c, 0, 0, ((-r, 1),)))
                    continue
        elif e1 == {1: 1}:
            if r == 0 and p == 0:
                # int e1 = x*e1(x) - exp(-x)
                out += [sw_atom(c, 1, 0, ((1, 1),)), sw_atom(-c, 0, -1)]
                continue
            if r == -1 and p == 0:
                # int e1*exp(-x) = -e1(x)*exp(-x) + e1(2x)
                out += [sw_atom(-c, 0, -1, ((1, 1),)),
                        sw_atom(c, 0, 0, ((2, 1),))]
                continue
            if r == -1 and p == -1:
                # int e1*exp(-x)/x = -e1(x)^2/2
                out.append(sw_atom(c.scale(Fraction(-1, 2)), 0, 0, ((1, 2),)))
                continue
        raise ValueError("no antiderivative rule for term "
                         + sw_text(sw_atom(c, p, r, e1pows)))
    return Poly(m for q in out for m in q.monos)


# ---------------------------------------------------------------------------
# The switchback series.

FAMILY = "n = 2 or 3, delta = 0 or 1, order 1, or order 2 at n = 2, delta = 1"


def outside_family(n: int, delta: int, order: int) -> Optional[str]:
    """The first of "n", "delta" and "order" outside the implemented
    FAMILY, or None when the problem is inside it."""
    if n not in (2, 3):
        return "n"
    if delta not in (0, 1):
        return "delta"
    return "order" if order > (2 if (n, delta) == (2, 1) else 1) else None


@dataclass
class SwitchbackProblem:
    n: int                  # space dimension, 2 or 3
    delta: int              # 0 or 1
    eps: float              # inner radius
    a: float = 1.0          # boundary-condition switching parameter
    order: int = 2

    def __post_init__(self):
        field = outside_family(self.n, self.delta, self.order)
        if field:
            raise ValueError(f"{field} = {getattr(self, field)} is outside "
                             f"the implemented family: {FAMILY}")
        if self.eps <= 0:
            raise ValueError("inner radius must be positive")

    def rhs_log(self):
        """First-order system in the log coordinate xi = ln(x).

        u_xixi + x*u*u_xi + delta*u_xi**2 + (n-2)*u_xi = 0, removing the 1/x
        singularity for the shooting oracle.
        """
        n, delta = self.n, self.delta
        def rhs(xi, y):
            x = math.exp(xi)
            u, up = y
            return [up, -(x * u * up + delta * up * up + (n - 2) * up)]
        return rhs


@dataclass
class SwitchbackSeries:
    """Orders in a; order 0 is the constant 1."""

    problem: SwitchbackProblem
    orders: list                  # basis Polys; n=3's order 1 is a callable
    constants: dict               # fixed constant values per order

    def evaluate(self, x, a: Optional[float] = None):
        a = self.problem.a if a is None else a
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for j, term in enumerate(self.orders):
            vals = term(x) if callable(term) else term.eval(
                {**self.constants, **sw_basis(term, x)}).real
            total = total + a ** j * vals
        return float(total) if total.ndim == 0 else total


def second_order_remainder():
    """Symbolic order-two solution for n=2, delta=1 with constants A, B, C2, C3.

    Built by two integrating-factor quadratures from the substituted
    first-order solution u1 = A + B*e1(x); verified against the order-two
    equation exactly.
    """
    u1 = Poly.sym("A") + sw_atom(Poly.sym("B"), e1pows=((1, 1),))
    du1 = sw_diff(u1)
    rhs2 = -(u1 * du1) - du1 * du1
    # v' + (1 + 1/x) v = rhs2; integrating factor x*exp(x)
    g = sw_antiderivative(sw_atom(rhs2, 1, 1))
    v = sw_atom(g + Poly.sym("C2"), -1, -1)
    u2 = sw_antiderivative(v) + Poly.sym("C3")
    # exact verification of the order-2 equation
    du2 = sw_diff(u2)
    residual = (sw_diff(du2) + sw_atom(du2, -1) + du2) - rhs2
    if not residual.is_zero():
        raise AssertionError("second-order quadrature failed verification")
    return u2


def _fix_second_order_constants(u2: Poly, eps: float):
    """Boundary conditions u2(eps) = 0, u2(inf) = 0 pin C2, C3."""
    e1e = exp_integral(1, eps)
    env = {"A": 0.0, "B": -1.0 / e1e, "C3": 0.0, "C2": 0.0}
    at_eps = sw_basis(u2, eps)
    # all non-constant basis functions vanish at infinity, so C3 = 0
    base = u2.eval({**env, **at_eps}).real
    env["C2"] = base / e1e          # u2 contains -C2*e1(x)
    if abs(u2.eval({**env, **at_eps}).real) > 1e-10 * max(1.0, abs(base)):
        raise AssertionError("second-order boundary fit failed")
    return env


def switchback_series(p: SwitchbackProblem) -> SwitchbackSeries:
    """Regular series in a: order 0 is 1, order 1 is -e_{n-1}(x)/e_{n-1}(eps)."""
    orders = [Poly.num(1)]
    constants = {}
    if p.order >= 1:
        m = p.n - 1
        scale = -1.0 / exp_integral(m, p.eps)
        if p.n == 2:
            orders.append(sw_atom(Poly.sym("B"), e1pows=((1, 1),))
                          + Poly.sym("A"))
            constants.update({"A": 0.0, "B": scale})
        else:
            orders.append(lambda x, s=scale: s * exp_integral(2, x))
    if p.order >= 2:
        u2 = second_order_remainder()
        constants.update(_fix_second_order_constants(u2, p.eps))
        orders.append(u2)
    return SwitchbackSeries(p, orders, constants)


# ---------------------------------------------------------------------------
# Most-divergent summation and the closed asymptotic form.

@dataclass
class LogClosedForm:
    """u(x) = 1 + log(1 + s*e1(x)); the exact sum of the most divergent terms."""

    eps: float
    a: float
    s: float                      # coefficient of e1(x) inside the logarithm

    def text(self) -> str:
        return "1 + log(1 + s*e1(x)) with s = (exp(-a) - 1)/e1(eps)"

    def evaluate(self, x):
        return 1.0 + np.log(1.0 + self.s * exp_integral(1, x))

    def radius_of_convergence(self, x: float) -> float:
        """Radius in a of the most-divergent series with the first-order B."""
        return exp_integral(1, self.eps) / exp_integral(1, x)


def most_divergent_sum(p: SwitchbackProblem) -> LogClosedForm:
    """Sum the most divergent terms of every order in closed form.

    The coefficients c_n = 1/n make the sum a logarithm; the boundary
    condition at x = eps then fixes the log argument.  The partial sums and
    the convergence radius are exposed for verification.
    """
    if not (p.n == 2 and p.delta == 1):
        raise ValueError("the most-divergent sum targets the n=2, delta=1 problem")
    # u = 1 + log(1 + a*B*e1(x)); u(eps) = 1 - a  =>  a*B = (exp(-a)-1)/e1(eps)
    s = math.expm1(-p.a) / exp_integral(1, p.eps)
    return LogClosedForm(p.eps, p.a, s)


def most_divergent_partial_sum(z: float, nterms: int) -> float:
    """sum_{n=1..N} (-1)**(n+1) z**n / n, the series behind the closed form."""
    total = 0.0
    for n in range(1, nterms + 1):
        total += (-1) ** (n + 1) * z ** n / n
    return total


def terrible_hidden_scale(eps: float, a: float):
    """Derive the closed form by the hidden-scale route in tau = e1(x).

    Builds the most-divergent series u = 1 + a*(A + B*tau) - a^2/2*B^2*tau^2,
    paints, derives the flow equations, integrates them in closed form and
    imposes the boundary conditions on the transported special solution.
    Returns (LogClosedForm, flow system).
    """
    if not (0 < a <= 1):
        raise ValueError("switching parameter must lie in (0, 1]")
    tau = Expr.var("tauv")
    A, B = Expr.sym("A"), Expr.sym("B")
    orders = [Expr.num(1), A + B * tau,
              (B ** 2 * tau ** 2).scale(Fraction(-1, 2))]
    series = PerturbationSeries(orders, [ConstantInfo("A", 1, "param"),
                                         ConstantInfo("B", 1, "param")],
                                "a", "tauv")
    ps = ftflow.paint(series, n_derivs=1)
    ft = ftflow.derive_ft_system(ps, 2)
    flows = ftflow.integrate_orbits(ft, "tauv")
    fB, fA = flows.flows["B"], flows.flows["A"]
    if fB.kind != "powerlaw" or fA.kind != "quad":
        raise AssertionError("unexpected flow structure for the tau series")
    special = ps.special_solution()
    if special != Expr.num(1) + Expr.sym("a") * Expr.sym("A"):
        raise AssertionError("unexpected special solution for the tau series")
    # u = 1 + a*(A~ + scale*log(1 + inner*tau)); a*scale must reduce to 1
    prefactor = Expr.sym("a") * fA.scale
    if prefactor != Expr.num(1):
        raise AssertionError("log prefactor does not reduce to unity")
    # boundary conditions: tau(x=inf) = 0 gives A~ = 0; at x = eps,
    # 1 + log(1 + a*B~*e1(eps)) = 1 - a pins a*B~ (independent Newton solve)
    e1e = exp_integral(1, eps)
    s = _solve_log_bc(e1e, a)
    return LogClosedForm(eps, a, s), ft


def _solve_log_bc(e1e: float, a: float) -> float:
    """Solve log(1 + s*e1(eps)) = -a for s by safeguarded Newton."""
    s = -a / (2.0 * e1e)
    for _ in range(80):
        g = math.log1p(s * e1e) + a
        dg = e1e / (1.0 + s * e1e)
        step = g / dg
        s_new = s - step
        while 1.0 + s_new * e1e <= 0:
            step *= 0.5
            s_new = s - step
        if abs(s_new - s) < 1e-16 * max(1.0, abs(s)):
            s = s_new
            break
        s = s_new
    if abs(math.log1p(s * e1e) + a) > 1e-12:
        raise RuntimeError("boundary solve for the log coefficient failed")
    return s

