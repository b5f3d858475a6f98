"""Finite-transformation machinery for hidden scale symmetries.

The pipeline: paint the divergent instances of the independent variable in a
bare series (and in its derivatives), promote the integration constants to
functions of the painted variable, demand that the total derivative with
respect to it vanish identically in the original variable, and solve the
resulting triangular linear systems for the constant flows.  Integrating the
flows from the evaluation point back to zero and substituting into the
special solution yields a uniformly valid approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .exprcore import (Expr, LinEq, OutOfClassError, Poly, Term,
                       classify_divergent, div_exact, paint_term,
                       solve_linear_system)
from .pertseries import (ConstantInfo, PerturbationSeries, LinearOperator,
                         SolveError, particular_integral)


class FTError(RuntimeError):
    pass


class FTInconsistent(FTError):
    pass


class FTUnderdetermined(FTError):
    pass


# ---------------------------------------------------------------------------
# Painting.

@dataclass
class PaintedSeries:
    """Series and derivatives with divergent variable instances moved to mu."""

    series: PerturbationSeries
    painted: Expr
    painted_derivs: list
    mu: str

    @property
    def variable(self) -> str:
        return self.series.variable

    @property
    def parameter(self) -> str:
        return self.series.parameter

    def exprs(self):
        return [self.painted] + list(self.painted_derivs)

    def restored(self) -> Expr:
        return self.painted.rename(self.mu, self.variable)

    def special_solution(self) -> Expr:
        """The painted series at mu = 0: every divergent term is gone."""
        return self.painted.subs_param(self.mu, 0)


def paint(series: PerturbationSeries, n_derivs: int,
          mu: str = "mu") -> PaintedSeries:
    """Paint the series and its first ``n_derivs`` derivatives.

    Derivatives are taken before painting; painting does not commute with
    d/dx and is applied to each expression separately.
    """
    v = series.variable
    if mu in series.full().symbols():
        raise ValueError(f"painting variable {mu!r} already occurs in series")
    exprs = [series.full()]
    for _ in range(n_derivs):
        exprs.append(exprs[-1].diff(v))
    painted = []
    for e in exprs:
        div, conv = classify_divergent(e, v)
        newt = [paint_term(t, v, mu) for t in div.terms]
        painted.append(Expr(list(conv.terms) + newt))
    ps = PaintedSeries(series, painted[0], painted[1:], mu)
    if ps.restored() != exprs[0]:
        raise FTError("painting round trip failed")
    return ps


def most_divergent_filter(series: PerturbationSeries) -> PerturbationSeries:
    """Keep only the fastest-growing terms at each order.

    The result is asymptotic-only: the derived symmetry retains full
    validity only in the region where the dropped terms are negligible.
    """
    v = series.variable
    orders = []
    for e in series.orders:
        rank = max((t.vpow(v) for t in e.terms), default=0)
        orders.append(Expr([t for t in e.terms if t.vpow(v) == rank]))
    return PerturbationSeries(orders, list(series.constants),
                              series.parameter, series.variable)


# ---------------------------------------------------------------------------
# FT system derivation.

PRIME_SUFFIX = "'"
TILDE_SUFFIX = "~"


@dataclass
class FTSystem:
    """Explicit flow equations dA_i/dmu = rhs(mu, constants, parameter)."""

    mu: str
    variable: str
    parameter: str
    order: int
    unknowns: list                 # [ConstantInfo]
    equations: dict                # name -> Expr rhs
    determined_orders: dict        # name -> highest parameter order solved
    raw_equations: list = field(default_factory=list)

    def unknown_names(self):
        return [c.name for c in self.unknowns]

    def rhs_callable(self, param_values: dict):
        names = self.unknown_names()
        base = dict(param_values)
        exprs = [self.equations[n] for n in names]
        def f(mu_val, y):
            env = dict(base)
            env[self.mu] = float(mu_val)
            env.update({n: float(v) for n, v in zip(names, y)})
            return np.array([e.eval(env).real for e in exprs])
        return f

    def is_autonomous(self) -> bool:
        return all(self.mu not in e.symbols() for e in self.equations.values())


def _scalar_equations(ps: PaintedSeries, unknowns):
    """Basis-split, phase-normalized real scalar equations, linear in primes."""
    x = ps.variable
    from . import textform
    eqs = []
    for r, e in enumerate(ps.exprs()):
        de = e.diff(ps.mu, {c.name: c.name + PRIME_SUFFIX for c in unknowns})
        for basis, coeff in de.split_basis([x]):
            norm = coeff.factor_out_unit_phase()
            label = (f"expr {r}, basis "
                     f"{textform.expr_text(Expr([basis]))}")
            for part, tag in ((norm.real(), "re"), (norm.imag(), "im")):
                if not part.is_zero():
                    eqs.append((part, f"{label} [{tag}]"))
    return eqs


def _split_linear_in_primes(eq: Expr, primes):
    coeffs = {}
    rest = eq
    for p in primes:
        c, rest = rest.coeff_linear(p)
        if not c.is_zero():
            coeffs[p] = c
    return coeffs, rest


def derive_ft_system(ps: PaintedSeries, k: int) -> FTSystem:
    """Derive the flow equations for the integration constants.

    Writes each dA_i/dmu as a series in the perturbation parameter up to
    order ``k``, determined by requiring every independent basis function of
    the original variable to vanish order-by-order.  Raises FTInconsistent
    when no flow satisfies an equation and FTUnderdetermined when the stored
    derivatives do not close the system.
    """
    unknowns = ps.series.min_order_constants()
    if not unknowns:
        raise FTError("no integration constants to flow")
    eps = ps.parameter
    primes = {c.name: c.name + PRIME_SUFFIX for c in unknowns}
    scalar = _scalar_equations(ps, unknowns)

    lineqs = []
    for eq, label in scalar:
        coeffs, rest = _split_linear_in_primes(eq, list(primes.values()))
        for m in range(k + 1):
            slot_coeffs = {}
            for cname, pname in primes.items():
                c = coeffs.get(pname)
                if c is None:
                    continue
                for j in range(m + 1):
                    cm = c.collect_order(eps, m - j)
                    if not cm.is_zero():
                        slot_coeffs[(cname, j)] = cm
            const = rest.collect_order(eps, m)
            if slot_coeffs or not const.is_zero():
                lineqs.append(LinEq(slot_coeffs, const, f"{label} @order {m}"))
    solution, free, leftovers = solve_linear_system(lineqs)
    if free:
        raise FTUnderdetermined(
            f"unknowns {free} enter a pivot row but were never determined; "
            "add painted derivatives to close the system")
    if leftovers:
        raise FTInconsistent(
            f"no hidden-scale symmetry for this painting: residual "
            f"equation {leftovers[0].label} does not vanish")

    determined = {}
    equations = {}
    for c in unknowns:
        js = sorted(j for (n, j) in solution if n == c.name)
        d = -1
        while d + 1 in js:
            d += 1
        gap = [j for j in js if j > d + 1]
        if gap:
            raise FTUnderdetermined(
                f"flow for {c.name} determined at orders {js} with gaps; "
                "add painted derivatives")
        rhs = Expr.zero()
        ep = Expr.sym(eps)
        for j in range(d + 1):
            rhs = rhs + (ep ** j) * solution[(c.name, j)]
        equations[c.name] = rhs
        determined[c.name] = d
    ft = FTSystem(ps.mu, ps.variable, eps, k, list(unknowns), equations,
                  determined, [eq for eq, _ in scalar])
    _verify_ft(ps, ft)
    return ft


def _verify_ft(ps: PaintedSeries, ft: FTSystem):
    """Substituting the flows back must kill every determined order."""
    kmax = min(ft.determined_orders.values()) if ft.determined_orders else -1
    for eq in ft.raw_equations:
        res = eq
        for c in ft.unknowns:
            res = res.subs_param(c.name + PRIME_SUFFIX, ft.equations[c.name])
        for m in range(min(ft.order, kmax + 1) + 1):
            r = res.collect_order(ft.parameter, m)
            if not r.is_zero():
                from . import textform
                raise FTInconsistent(
                    "flow verification failed at order "
                    f"{m}: {textform.expr_text(r)}")


def derive_ft_exact(ps: PaintedSeries,
                    unknowns: Optional[Sequence[ConstantInfo]] = None,
                    grades: Optional[dict] = None,
                    max_grade=None):
    """Solve the raw basis equations for the primes without order expansion.

    Used for derivations with user-declared fractional order assumptions:
    ``grades`` assigns each constant or prime its declared order in the
    parameter (e.g. 1/2), and every equation is truncated at total grade
    ``max_grade`` before the linear solve, mirroring hand derivations that
    drop subleading forcing against graded unknowns.  Returns a dict
    name -> Expr for dA_i/dmu.
    """
    series = ps.series
    if unknowns is None:
        unknowns = series.min_order_constants()
    primes = {c.name: c.name + PRIME_SUFFIX for c in unknowns}
    grades = dict(grades or {})
    eqs = []
    for eq, label in _scalar_equations(ps, unknowns):
        coeffs, rest = _split_linear_in_primes(eq, list(primes.values()))
        if max_grade is not None:
            rest = grade_truncate(rest, grades, ps.parameter, max_grade)
            coeffs = {p: grade_truncate(
                c, grades, ps.parameter,
                Fraction(max_grade) - Fraction(grades.get(p, 0)))
                for p, c in coeffs.items()}
        eqs.append(LinEq({(p,): c for p, c in coeffs.items()}, rest, label))
    solution, free, leftovers = solve_linear_system(eqs)
    if free:
        raise FTUnderdetermined(f"primes {free} never determined")
    if leftovers:
        raise FTInconsistent(
            f"residual equation {leftovers[0].label} does not vanish")
    out = {}
    for c in unknowns:
        key = (primes[c.name],)
        if key not in solution:
            raise FTUnderdetermined(f"prime {primes[c.name]} undetermined")
        out[c.name] = solution[key]
    return out


def grade_truncate(e: Expr, grades: dict, param: str, max_grade) -> Expr:
    """Drop terms whose total grade exceeds ``max_grade``.

    The grade of a monomial is its power of ``param`` plus the declared
    grades of its other symbols (undeclared symbols grade 0).  This applies
    user order assumptions such as assigning a constant the order
    param**(1/2).
    """
    max_grade = Fraction(max_grade)
    out = []
    for t in e.terms:
        for m in t.coeff.monos:
            pows = m[0]
            g = Fraction(0)
            for s, kpow in pows:
                if s == param:
                    g += kpow
                else:
                    g += Fraction(grades.get(s, 0)) * kpow
            if g <= max_grade:
                out.append(t.with_coeff(Poly([m])))
    return Expr(out)


# ---------------------------------------------------------------------------
# Orbit integration.

@dataclass
class Flow:
    """Value of one constant at mu = 0 as a function of the start point x."""

    name: str
    tilde: str
    kind: str          # const | exp | powerlaw | quad | quad-expr | frozen | numeric
    value0: Optional[Expr] = None      # in-class closed form when available
    rate: Optional[Poly] = None        # exp: A(0) = tilde * exp(-rate*x)
    cexpr: Optional[Expr] = None       # powerlaw: A(0) = tilde/(1 + c*tilde*x)
    scale: Optional[Expr] = None       # quad: A(0) = tilde + scale*log(1+inner*x)
    inner: Optional[Expr] = None
    drift_poly: Optional[Poly] = None  # frozen offset: theta(0) = tilde + q*x
    fixed: Optional[dict] = None       # applied start-point values, by tilde

    def text(self, xvar: str) -> str:
        from . import textform
        if self.value0 is not None:
            return textform.expr_text(self.value0)
        if self.kind == "powerlaw":
            return (f"{self.tilde}/(1 + ({textform.expr_text(self.cexpr)})"
                    f"*{self.tilde}*{xvar})")
        if self.kind == "quad":
            return (f"{self.tilde} + ({textform.expr_text(self.scale)})"
                    f"*log(1 + ({textform.expr_text(self.inner)})*{xvar})")
        if self.kind == "frozen" and self.drift_poly is not None:
            from .textform import poly_text
            return f"{self.tilde} + ({poly_text(self.drift_poly)})*{xvar}"
        return f"<numeric tabulation of {self.name}>"


@dataclass
class ConstantFlows:
    """Finite transformation from (x, tildes) to the constants at mu = 0.

    At x = 0 the transformation is the identity: every flow value equals its
    tilde constant.
    """

    ft: FTSystem
    flows: dict                  # name -> Flow
    x_symbol: str
    numeric_names: list = field(default_factory=list)
    _cache: dict = field(default_factory=dict)

    def values(self, x, env: dict) -> dict:
        """Constant values at mu = 0 for start point ``x``: floats for a
        scalar ``x``, arrays of its shape for an array.

        ``env`` holds parameter values plus the tilde values keyed by the
        tilde symbol names (e.g. "A~").
        """
        out = {}
        if self.numeric_names:
            out.update(self._numeric_values(x, env))
        for n, f in self.flows.items():
            if f.kind == "numeric":
                continue
            if f.value0 is not None:
                out[n] = f.value0.eval({**env, self.x_symbol: x})
            elif f.kind == "powerlaw":
                til = env[f.tilde]
                c = f.cexpr.eval(env).real
                out[n] = til / (1 + c * til * x)
            elif f.kind == "quad":
                til = env[f.tilde]
                s = f.scale.eval(env).real
                inner = f.inner.eval(env).real
                out[n] = til + s * np.log(1 + inner * x)
            elif f.kind == "frozen" and f.drift_poly is not None:
                out[n] = env[f.tilde] + f.drift_poly.eval(env).real * x
            else:
                raise FTError(f"flow for {n} not evaluable")
        return {n: _real_at(v, x) for n, v in out.items()}

    def _numeric_values(self, x, env: dict) -> dict:
        from .numlab import solve_ivp
        names = self.ft.unknown_names()
        tilde = [env[n + TILDE_SUFFIX] for n in names]
        if self.ft.is_autonomous():
            # the mu=0 value as a function of the start point satisfies the
            # time-inverted autonomous system; one trajectory covers all x
            key = tuple(sorted((kk, round(float(v), 14))
                               for kk, v in env.items()))
            traj = self._cache.get(key)
            if traj is None or traj.grid[-1] < np.max(x):
                xmax = float(np.max(np.abs(x))) * 1.5 + 1.0
                f = self.ft.rhs_callable(env)
                traj = solve_ivp(lambda t, y: -f(t, y), tilde, (0.0, xmax),
                                 "rk45-adaptive", tol=1e-12)
                self._cache[key] = traj
            return {n: traj(x, i) for i, n in enumerate(names)}
        f = self.ft.rhs_callable(env)
        ends = np.array([solve_ivp(f, tilde, (xv, 0.0), "rk45-adaptive",
                                   tol=1e-12).states[-1] if xv != 0 else tilde
                         for xv in np.ravel(x).tolist()])
        return {n: ends[:, i].reshape(np.shape(x))
                for i, n in enumerate(names)}


def _real_at(val, x):
    """The real part of ``val`` broadcast to the shape of ``x``: a float for
    a scalar ``x``, an array for an array."""
    out = np.broadcast_to(np.real(val), np.shape(x))
    return float(out) if out.ndim == 0 else out


def _as_poly(e: Expr) -> Optional[Poly]:
    out = Poly()
    for t in e.terms:
        if t.vpows or t.rates or t.freqs or t.offs:
            return None
        out = out + t.coeff
    return out


def integrate_orbits(ft: FTSystem, x_symbol: str,
                     tilde_values: Optional[dict] = None) -> ConstantFlows:
    """Integrate the flow equations from mu = x down to mu = 0.

    Analytic patterns are tried per constant, in order: (i) linear constant
    coefficient (exponential flow), (ii) separable quadratic power law,
    (iii) quadrature against already-solved flows, including the logarithm
    against a power-law flow, (iv) frozen quadrature when the right side is
    of high enough order that the constants' own variation is beyond the
    truncation.  If any constant fits no pattern the whole system falls back
    to numeric tabulation.
    """
    names = ft.unknown_names()
    name_set = set(names)
    tildes = {n: n + TILDE_SUFFIX for n in names}
    offsets = {c.name for c in ft.unknowns if c.kind == "offset"}
    tvals = {tildes[n]: v for n, v in (tilde_values or {}).items()}
    flows: dict = {}
    solved: dict = {}     # name -> Expr for A(mu) along the orbit, or None
    pending = list(names)
    guard = len(pending) ** 2 + 2
    while pending and guard:
        guard -= 1
        progressed = False
        for n in list(pending):
            rhs = ft.equations[n]
            refs = rhs.symbols() & name_set
            if (refs - {n}) - set(solved):
                continue
            flow = _match_flow(ft, n, rhs, solved, flows, tildes, offsets,
                               x_symbol, tvals)
            if flow is None:
                return _numeric_flows(ft, x_symbol)
            flows[n] = flow
            solved[n] = _flow_mu_expr(flow, n, tildes, ft.mu, x_symbol)
            pending.remove(n)
            progressed = True
        if not progressed:
            return _numeric_flows(ft, x_symbol)
    return ConstantFlows(ft, flows, x_symbol)


def _flow_mu_expr(flow: Flow, name: str, tildes, mu: str, x: str):
    """A(mu) along the orbit, for substitution into later quadratures."""
    if flow.kind == "const":
        return Expr.sym(tildes[name])
    if flow.kind == "exp":
        # A(mu) = tilde * exp(rate*(mu - x))
        return (Expr.sym(tildes[name]) * Expr.exp(mu, flow.rate)
                * Expr.exp(x, -flow.rate))
    return None   # powerlaw/frozen orbits are consumed by dedicated patterns


def _tilde_freeze(e: Expr, names, tildes, offsets) -> Expr:
    for m in names:
        if m in offsets:
            if m in e.symbols():
                e = e.shift_phase(m, offs={tildes[m]: 1})
        else:
            e = e.subs_param(m, Expr.sym(tildes[m]))
    return e


def _subst_tilde_values(e: Optional[Expr], tvals: dict) -> Optional[Expr]:
    """Replace tilde symbols by known start-point values (number or symbol)."""
    if e is None or not tvals:
        return e
    for til, v in tvals.items():
        if til not in e.symbols():
            continue
        if isinstance(v, str):
            e = e.rename(til, v)
        else:
            if any(s == til for t in e.terms for s, _ in t.offs):
                if Fraction(v) != 0:
                    raise OutOfClassError(
                        f"phase start value {til}={v}: only 0 stays in class")
            e = e.subs_param(til, Fraction(v))
    return e


def _finish_flow(flow: Flow, tvals: dict) -> Flow:
    flow.value0 = _subst_tilde_values(flow.value0, tvals)
    flow.cexpr = _subst_tilde_values(flow.cexpr, tvals)
    flow.scale = _subst_tilde_values(flow.scale, tvals)
    flow.inner = _subst_tilde_values(flow.inner, tvals)
    if flow.tilde in tvals:
        flow.fixed = {flow.tilde: tvals[flow.tilde]}
    return flow


def _match_flow(ft, n, rhs, solved, flows, tildes, offsets, x_symbol, tvals):
    mu, eps, k = ft.mu, ft.parameter, ft.order
    til = Expr.sym(tildes[n])
    if rhs.is_zero():
        return _finish_flow(Flow(n, tildes[n], "const", value0=til), tvals)
    self_ref = n in rhs.symbols()
    if self_ref and n not in offsets:
        c1 = None
        try:
            c2, r2 = _quadratic_part(rhs, n)
            c1, rest = r2.coeff_linear(n)
        except OutOfClassError:
            pass
        if c1 is not None:
            # (i) linear constant coefficient: A' = c*A
            if c2.is_zero() and rest.is_zero() and not c1.is_zero():
                cpoly = _as_poly(c1)
                if cpoly is not None and cpoly.is_real() and \
                        not (set(c1.symbols()) & set(ft.unknown_names())):
                    return _finish_flow(
                        Flow(n, tildes[n], "exp", rate=cpoly,
                             value0=til * Expr.exp(x_symbol, -cpoly)), tvals)
            # (ii) separable power law: A' = c*A^2
            if not c2.is_zero() and c1.is_zero() and rest.is_zero():
                if not (set(c2.symbols()) & (set(ft.unknown_names()) | {mu})):
                    return _finish_flow(
                        Flow(n, tildes[n], "powerlaw", cexpr=c2), tvals)
    if not self_ref:
        refs = [m for m in rhs.symbols() if m in solved]
        # (iii-a) exact quadrature through in-class solved orbits
        if all(solved[m] is not None for m in refs):
            expr = rhs
            for m in refs:
                if m in offsets:
                    expr = expr.shift_phase(m, offs={tildes[m]: 1})
                else:
                    expr = expr.subs_param(m, solved[m])
            try:
                anti = particular_integral(LinearOperator.make([0, 1], mu),
                                           expr)
                integral = anti.subs_param(mu, 0) - anti.rename(mu, x_symbol)
                # integral == -int_0^x rhs dmu, so A(0) = tilde + integral
                integral = _subst_tilde_values(integral, tvals)
                if n in offsets:
                    dp = _as_poly_in_x(integral, x_symbol)
                    if dp is None:
                        return None
                    return _finish_flow(
                        Flow(n, tildes[n], "frozen", drift_poly=dp), tvals)
                return _finish_flow(
                    Flow(n, tildes[n], "quad-expr", value0=til + integral),
                    tvals)
            except (OutOfClassError, SolveError):
                pass
        # (iii-b) logarithm quadrature against one power-law flow
        pl_refs = [m for m in refs if flows.get(m) is not None
                   and flows[m].kind == "powerlaw"]
        if len(pl_refs) == 1 and n not in offsets:
            m = pl_refs[0]
            try:
                lam, rest3 = rhs.coeff_linear(m)
            except OutOfClassError:
                lam, rest3 = Expr.zero(), rhs
            if rest3.is_zero() and not lam.is_zero():
                cp = _as_poly(flows[m].cexpr)
                lamp = _as_poly(lam)
                if cp is not None and lamp is not None:
                    scale = div_exact(Expr.from_poly(lamp),
                                      Expr.from_poly(cp)).scale(-1)
                    inner = Expr.from_poly(cp) * Expr.sym(tildes[m])
                    return _finish_flow(
                        Flow(n, tildes[n], "quad", scale=scale, inner=inner),
                        tvals)
    # (iv) frozen quadrature: the right side is of high enough order that the
    # constants' own variation contributes only beyond the truncation
    p_min = next((m for m in range(k + 2)
                  if not rhs.collect_order(eps, m).is_zero()), None)
    if p_min is not None and 2 * p_min >= k + 2:
        frozen = _tilde_freeze(rhs, ft.unknown_names(), tildes, offsets)
        frozen = _subst_tilde_values(frozen, tvals)
        if mu in frozen.symbols():
            return None
        drift = frozen * Expr.var(x_symbol)    # int_0^x frozen dmu
        if n in offsets:
            dp = _as_poly_in_x(drift, x_symbol)
            # theta(0) = tilde - (drift coefficient)*x
            return (_finish_flow(Flow(n, tildes[n], "frozen", drift_poly=-dp),
                                 tvals)
                    if dp is not None else None)
        return _finish_flow(Flow(n, tildes[n], "frozen", value0=til - drift),
                            tvals)
    return None


def _as_poly_in_x(e: Expr, x: str) -> Optional[Poly]:
    """Extract P such that e == P*x with P a parameter polynomial."""
    out = Poly()
    for t in e.terms:
        if t.rates or t.freqs or t.offs or t.vpows != ((x, 1),):
            return None
        out = out + t.coeff
    return None if out.is_zero() else out


def _quadratic_part(rhs: Expr, n: str):
    """Write rhs = c*n^2 + rest."""
    c = Expr.zero()
    rest = Expr.zero()
    for t in rhs.terms:
        lo, hi = t.coeff.order_range(n)
        if hi == 2 and lo == 2:
            c = c + Expr([t.with_coeff(t.coeff.coeff_of(n, 2))])
        else:
            rest = rest + Expr([t])
    return c, rest



def _numeric_flows(ft: FTSystem, x_symbol: str) -> ConstantFlows:
    flows = {n: Flow(n, n + TILDE_SUFFIX, "numeric")
             for n in ft.unknown_names()}
    return ConstantFlows(ft, flows, x_symbol,
                         numeric_names=ft.unknown_names())


# ---------------------------------------------------------------------------
# Uniform solutions.

@dataclass
class UniformSolution:
    """Globally valid approximation: symbolic when flows stay in class."""

    symbolic: Optional[Expr]
    variable: str
    parameter: str
    provenance: dict
    _evaluator: Callable = None

    def evaluate(self, x, env: dict):
        """The solution at ``x``: a float for a scalar ``x``, an array of
        its shape for an array."""
        if self._evaluator is not None:
            return self._evaluator(x, env)
        return _real_at(self.symbolic.eval({**env, self.variable: x}), x)

    def text(self) -> str:
        from . import textform
        if self.symbolic is not None:
            return textform.expr_text(self.symbolic)
        return "<numeric uniform solution: " + \
            ", ".join(f"{n}={f.kind}" for n, f in
                      self.provenance.get("flows", {}).items()) + ">"


def assemble_uniform(ps: PaintedSeries, flows: ConstantFlows) -> UniformSolution:
    """Transport the special (mu = 0) solution along the flows.

    The special solution is the painted series at mu = 0; the flows supply
    the constant values there in terms of the tilde constants at mu = x, and
    the painted bookkeeping is discharged by the original variable.
    """
    special = ps.special_solution()
    x = ps.variable
    symbolic = special
    offsets = {c.name for c in flows.ft.unknowns if c.kind == "offset"}
    for n, f in flows.flows.items():
        if symbolic is None:
            break
        if n in offsets:
            fixed = (f.fixed or {}).get(f.tilde)
            toffs = {} if fixed is not None and not isinstance(fixed, str) \
                else {(fixed if isinstance(fixed, str) else f.tilde): 1}
            if f.kind == "const":
                if fixed is not None and not isinstance(fixed, str):
                    symbolic = symbolic.subs_param(n, Fraction(fixed))
                else:
                    symbolic = symbolic.rename(
                        n, fixed if isinstance(fixed, str) else f.tilde)
            elif f.kind == "frozen" and f.drift_poly is not None:
                if fixed is not None and not isinstance(fixed, str) \
                        and Fraction(fixed) != 0:
                    symbolic = None
                else:
                    symbolic = symbolic.shift_phase(
                        n, offs=toffs, freqs={x: f.drift_poly})
            else:
                symbolic = None
        else:
            if f.value0 is not None:
                symbolic = symbolic.subs_param(n, f.value0)
            else:
                symbolic = None

    prov = {"flows": flows.flows}
    if symbolic is not None:
        ev = None
        uni = UniformSolution(symbolic, x, ps.parameter, prov, ev)
        return uni

    def evaluator(xv, env: dict):
        e2 = {**env, **flows.values(xv, env), x: xv, ps.mu: 0.0}
        return _real_at(special.eval(e2), xv)

    return UniformSolution(None, x, ps.parameter, prov, evaluator)


def split_from_painted(ps: PaintedSeries, x0: str):
    """The reference splitting of a painted series: mu -> (x - x0).

    Every painted power mu**k becomes (x - x0)**k, which reproduces the
    splitting whose divergences vanish in the x -> x0 limit (the one that
    corresponds to the hidden scale symmetry).
    """
    x = ps.variable
    shift = Expr.var(x) - Expr.var(x0)
    out = Expr.zero()
    for t in ps.painted.terms:
        k = t.vpow(ps.mu)
        if not k:
            out = out + Expr([t])
            continue
        d = dict(t.vpows)
        del d[ps.mu]
        base = Expr([Term(t.coeff, tuple(sorted(d.items())), t.rates,
                          t.freqs, t.offs)])
        out = out + base * (shift ** k)
    return out


# ---------------------------------------------------------------------------
# CGO comparison operation.

@dataclass
class CGOResult:
    equations: list            # Expr residuals, one per supplied expression
    underdetermined: bool
    diagnostic: str


def cgo_rg_equation(split_series: Expr, derivs: Sequence[Expr], x: str,
                    x0: str, constants: Sequence[str],
                    truncate_order: Optional[int] = None,
                    parameter: str = "eps") -> CGOResult:
    """Apply d/dx0 + sum A_i' d/dA_i in the limit x -> x0.

    The caller supplies the splitting; underdetermination is reported, not
    fatal.  One equation is produced per supplied expression.  With
    ``truncate_order`` the equations are truncated at that order counting
    each flow derivative as first order, which is how they are written down
    in hand calculations.
    """
    primes = [c + PRIME_SUFFIX for c in constants]
    chain = dict(zip(constants, primes))
    eqs = []
    for e in [split_series] + list(derivs):
        d = e.diff(x0, chain).rename(x, x0)
        if truncate_order is not None:
            d = grade_truncate(d, {p: 1 for p in primes}, parameter,
                               truncate_order)
        eqs.append(d)
    lineqs = []
    for i, eq in enumerate(eqs):
        coeffs, rest = _split_linear_in_primes(eq, primes)
        lineqs.append(LinEq({(p,): c for p, c in coeffs.items()}, rest,
                            f"cgo eq {i}"))
    under = False
    msg = ""
    try:
        sol, _free, _leftovers = solve_linear_system(lineqs)
        missing = [p for p in primes if (p,) not in sol]
        if missing:
            under = True
            msg = f"underdetermined: no unique flow for {', '.join(missing)}"
    except OutOfClassError as exc:
        under = True
        msg = f"underdetermined: {exc}"
    free = sorted(set().union(*[set(e.symbols()) for e in eqs]) -
                  set(constants) - set(primes) - {x0})
    if under and free:
        msg += f" (free symbols present: {', '.join(free)})"
    return CGOResult(eqs, under, msg)
