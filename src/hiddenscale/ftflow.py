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

from .exprcore import (Elimination, Expr, LinEq, OutOfClassError, Poly,
                       Term, _without, classify_divergent, div_exact,
                       evaluator_rhs, paint_term, product_upto,
                       solve_linear_system)
from .pertseries import (PerturbationSeries, LinearOperator, SolveError,
                         _grade_parts, _grade_units, grade_truncate,
                         particular_integral)


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


def paint(series: PerturbationSeries, n_derivs: int) -> PaintedSeries:
    """Paint the series and its first ``n_derivs`` derivatives into mu.

    Derivatives are taken before painting; painting does not commute with
    d/dx and is applied to each expression separately.
    """
    v, mu = series.variable, "mu"
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
    """Keep only the fastest-growing terms at each order from 1 on.

    Order 0 is kept whole: with a repeated root its secular term would
    otherwise push out a constant of integration.  The result is
    asymptotic-only: the derived symmetry retains full validity only in the
    region where the dropped terms are negligible.
    """
    v = series.variable
    orders = list(series.orders[:1])
    for e in series.orders[1:]:
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
    grades: dict = field(default_factory=dict)   # declared symbol grades

    def unknown_names(self):
        return [c.name for c in self.unknowns]

    def is_autonomous(self) -> bool:
        return all(self.mu not in e.symbols() for e in self.equations.values())


def _scalar_equations(ps: PaintedSeries, unknowns):
    """Basis-split, phase-normalized real scalar equations, linear in primes,
    each with its label (expression index, basis term, "re" or "im"), printed
    only in ``_solve_flow_rows``'s message."""
    x = ps.variable
    eqs = []
    for r, e in enumerate(ps.exprs()):
        de = e.diff(ps.mu, {c.name: c.name + PRIME_SUFFIX for c in unknowns})
        for basis, coeff in de.split_basis([x]):
            parts = coeff.factor_out_unit_phase().parts()
            for part, tag in zip(parts, ("re", "im")):
                if not part.is_zero():
                    eqs.append((part, (r, basis, tag)))
    return eqs


def _split_linear_in_primes(eq: Expr, primes):
    """({p: c_p}, rest) with eq = sum(c_p * p) + rest, for the primes p with
    a nonzero c_p, in one pass over eq's monomials.  Each monomial may hold
    one prime, to the first power."""
    ps = set(primes)
    split: dict = {}          # prime, or None for the rest -> [Term]
    for t in eq.terms:
        by: dict = {}
        for pows, q in t.coeff.monos:
            hit = [(s, e) for s, e in pows if s in ps]
            if not hit:
                by.setdefault(None, []).append((pows, q))
            elif len(hit) == 1 and hit[0][1] == 1:
                by.setdefault(hit[0][0], []).append(
                    (_without(pows, hit[0][0]), q))
            else:
                raise OutOfClassError(
                    f"symbol {hit[0][0]!r} does not occur linearly")
        for p, monos in by.items():
            split.setdefault(p, []).append(t.with_coeff(Poly(monos)))
    return ({p: Expr(split[p]) for p in primes if p in split},
            Expr(split.get(None, ())))


def derive_ft_system(ps: PaintedSeries, k: int,
                     grades: Optional[dict] = None) -> FTSystem:
    """Derive the flow equations for the integration constants.

    Writes each dA_i/dmu as a series in the perturbation parameter up to
    order ``k``, determined by requiring every independent basis function of
    the original variable to vanish order-by-order.  ``grades`` declares the
    order in the parameter of some symbols (alpha: 1/2 for alpha =
    O(eps^(1/2))); each order j is then split further by declared grade h
    (see ``_grade_parts``), and the parts with j + h <= k are solved for,
    one part at a time by ``_block_solve`` when it can, else all at once
    (``_solve_flow_rows``), grades in int units (``_grade_units``).  The
    solve and ``_verify_ft`` share one prime split per scalar equation.
    Raises FTInconsistent when no flow satisfies an equation and
    FTUnderdetermined when the stored derivatives do not close the system.
    """
    grades = grades or {}
    unknowns = ps.series.min_order_constants()
    if not unknowns:
        raise FTError("no integration constants to flow")
    eps = ps.parameter
    primes = {c.name: c.name + PRIME_SUFFIX for c in unknowns}
    scalar = _scalar_equations(ps, unknowns)
    splits = [_split_linear_in_primes(eq, list(primes.values()))
              for eq, _label in scalar]
    unit, units = _grade_units(grades)

    # one row per scalar equation: its prime coefficients and its rest,
    # each split by order and then by grade
    rows = []
    for (_eq, label), (coeffs, rest) in zip(scalar, splits):
        parts = {cname: [_grade_parts(c, units)
                         for c in coeffs[pname].orders(eps, k)]
                 for cname, pname in primes.items() if pname in coeffs}
        consts = [_grade_parts(r, units) for r in rest.orders(eps, k)]
        rows.append((label, parts, consts))
    flow_parts = _flow_parts(_grade_lattice(units, k * unit), k, unit)
    solution = _solve_flow_rows(rows, flow_parts, unit)

    determined = {}
    equations = {}
    ep = Expr.sym(eps)
    for c in unknowns:
        js = sorted({j for (n, j, _h) in solution if n == c.name})
        if js != list(range(len(js))):
            raise FTUnderdetermined(
                f"flow for {c.name} determined at orders {js} with gaps; "
                "add painted derivatives")
        equations[c.name] = sum((ep ** j * v for (n, j, _h), v
                                 in solution.items() if n == c.name),
                                Expr.zero())
        determined[c.name] = len(js) - 1
    ft = FTSystem(ps.mu, ps.variable, eps, k, list(unknowns), equations,
                  determined, [eq for eq, _ in scalar], grades)
    _verify_ft(ft, splits)
    return ft


# A flow row is (label, parts, consts): parts[c][j][h] is the coefficient of
# the prime of constant c at order j and grade h, consts[m][g] the part of
# the rest.  Its part (m, g) is the equation
#     sum over c, j <= m, h <= g of parts[c][m - j][h] * (c, j, g - h)
#         + consts[m][g] = 0
# in the slots (c, j, h): the order-j, grade-h piece of the flow of c.
# Grades are ints, in units of 1/unit: a grade h is h/unit in the parameter.

def _part_coeffs(parts: dict, m: int, g) -> dict:
    """The slot coefficients of a flow row's part (m, g)."""
    out = {}
    for cname, cparts in parts.items():
        for j in range(m + 1):
            for hc, cm in cparts[m - j].items():
                if hc <= g and not cm.is_zero():
                    out[(cname, j, g - hc)] = cm
    return out


def _flow_parts(lattice: list, k: int, unit: int) -> list:
    """The parts (m, g) with m + g/unit <= k, by order and then by grade."""
    return [(m, g) for m in range(k + 1) for g in lattice
            if m * unit + g <= k * unit]


def _flow_lineqs(rows: list, flow_parts: list) -> list:
    """The whole flow system: each row's parts, row by row, skipping a part
    with no slot and no constant; each labelled (row label, m, g)."""
    out = []
    for label, parts, consts in rows:
        for m, g in flow_parts:
            coeffs = _part_coeffs(parts, m, g)
            const = consts[m].get(g, Expr.zero())
            if coeffs or not const.is_zero():
                out.append(LinEq(coeffs, const, (label, m, g)))
    return out


def _block_solve(rows: list, flow_parts: list, unit: int) -> Optional[dict]:
    """The flow system solved part by part, or None where that cannot be.

    A00, the order-0, grade-0 prime coefficients, is the only block that
    meets a part's own slots; every other coefficient meets slots of a
    lower order plus grade.  So A00 is eliminated once, and each part, in
    order of m + g, replays that elimination on its constants plus the
    solved lower slots.  None when A00 leaves a constant unsolved, a part
    meets a slot not yet solved, or a part leaves a row nonzero; the
    generic solve then decides, with its messages.  The solution found is
    the system's only one.
    """
    a00 = [{c: cparts[0][0] for c, cparts in parts.items()
            if 0 in cparts[0]} for _label, parts, _consts in rows]
    names = {c for _label, parts, _consts in rows for c in parts}
    elim = Elimination(a00)
    if len(elim.pivots) < len(names):
        return None
    solution = {}
    for m, g in sorted(flow_parts, key=lambda mg: mg[0] * unit + mg[1]):
        rhs = []
        for _label, parts, consts in rows:
            b = consts[m].get(g, Expr.zero())
            for key, c in _part_coeffs(parts, m, g).items():
                if key[1:] != (m, g):
                    if key not in solution:
                        return None
                    b = b + c * solution[key]
            rhs.append(b)
        try:
            part, free, leftovers = elim.solve(rhs)
        except OutOfClassError:
            return None
        if free or leftovers:
            return None
        solution.update(((c, m, g), v) for c, v in part.items())
    return solution


def _solve_flow_rows(rows: list, flow_parts: list, unit: int) -> dict:
    """The slots' solution: ``_block_solve``'s, or ``solve_linear_system``'s
    on the whole system when the block solve cannot decide."""
    solution = _block_solve(rows, flow_parts, unit)
    if solution is not None:
        return solution
    solution, free, leftovers = solve_linear_system(
        _flow_lineqs(rows, flow_parts))
    if free:
        raise FTUnderdetermined(
            f"unknowns {free} enter a pivot row but were never determined; "
            "add painted derivatives to close the system")
    if leftovers:
        from . import textform
        (r, basis, tag), m, g = leftovers[0].label
        raise FTInconsistent(
            f"no hidden-scale symmetry for this painting: residual equation "
            f"expr {r}, basis {textform.expr_text(Expr([basis]))} [{tag}] "
            f"@{_part_text(m, g, unit)} does not vanish")
    return solution


def _grade_lattice(units: dict, top: int) -> list:
    """The sums of the declared (positive) int grades up to ``top``, in
    increasing order: [0] when none is declared."""
    out = {0}
    for g in units.values():
        out |= {h + n * g for h in out for n in range(1, top // g + 1)
                if h + n * g <= top}
    return sorted(out)


def _part_text(m: int, h: int, unit: int) -> str:
    return f"order {m}" + (f", grade {Fraction(h, unit)}" if h else "")


def _verify_ft(ft: FTSystem, splits: Optional[list] = None):
    """Substituting the flows back must kill every determined part: the
    orders m and grades h with m + h up to the checked order.

    ``splits`` holds derive_ft_system's split of each raw equation into
    rest + sum of c_p * p over the primes p; without it they are split
    here.  Each c_p * F_p with the flow F_p is formed only up to the checked
    order (``product_upto``): each flow is a polynomial in the parameter,
    so the orders above it cannot reach the checked ones."""
    kmax = min(ft.determined_orders.values()) if ft.determined_orders else -1
    top = min(ft.order, kmax + 1)
    unit, units = _grade_units(ft.grades)
    flows = {c.name + PRIME_SUFFIX: ft.equations[c.name] for c in ft.unknowns}
    if splits is None:
        splits = [_split_linear_in_primes(eq, list(flows))
                  for eq in ft.raw_equations]
    for coeffs, res in splits:
        for p, c in coeffs.items():
            res = res + product_upto([c, flows[p]], ft.parameter, top)
        for m, res_m in enumerate(res.orders(ft.parameter, top)):
            for h, r in _grade_parts(res_m, units).items():
                if m * unit + h <= top * unit and not r.is_zero():
                    from . import textform
                    raise FTInconsistent(
                        f"flow verification failed at "
                        f"{_part_text(m, h, unit)}: {textform.expr_text(r)}")


# ---------------------------------------------------------------------------
# Orbit integration.

@dataclass
class Flow:
    """Value of one constant at mu = 0 as a function of the start point x."""

    name: str
    kind: str          # const | exp | powerlaw | quad | quad-expr | frozen | numeric
    start: Expr        # the value at mu = x: its tilde, a parameter or a number
    value0: Optional[Expr] = None      # in-class closed form when available
    rate: Optional[Poly] = None        # exp: A(0) = start * exp(-rate*x)
    cexpr: Optional[Expr] = None       # powerlaw: A(0) = start/(1 + c*start*x)
    scale: Optional[Expr] = None       # quad: A(0) = start + scale*log(1+inner*x)
    inner: Optional[Expr] = None
    drift_poly: Optional[Poly] = None  # frozen phase: theta(0) = start + q*x

    def text(self, xvar: str) -> str:
        from .textform import expr_text, poly_text
        if self.value0 is not None:
            return expr_text(self.value0)
        start = expr_text(self.start)
        if self.kind == "powerlaw":
            return f"{start}/(1 + ({expr_text(self.cexpr)})*{start}*{xvar})"
        if self.kind == "quad":
            rest = (f"({expr_text(self.scale)})"
                    f"*log(1 + ({expr_text(self.inner)})*{xvar})")
        elif self.kind == "frozen":
            rest = f"({poly_text(self.drift_poly)})*{xvar}"
        else:
            return f"<numeric tabulation of {self.name}>"
        return rest if self.start.is_zero() else f"{start} + {rest}"


@dataclass
class ConstantFlows:
    """Finite transformation from (x, start values) to the constants at
    mu = 0.

    At x = 0 the transformation is the identity: every flow value equals its
    start value.
    """

    ft: FTSystem
    flows: dict                  # name -> Flow
    x_symbol: str

    def values(self, x, env: dict) -> dict:
        """Constant values at mu = 0 for start point ``x``: floats for a
        scalar ``x``, arrays of its shape for an array.

        ``env`` holds the values of the parameters and of the tilde
        constants (e.g. "A~") that the flows' start values name.
        """
        if any(f.kind == "numeric" for f in self.flows.values()):
            out = self._numeric_values(x, env)
        else:                       # integrate_orbits never mixes the two
            out = {n: self._closed_value(f, x, env)
                   for n, f in self.flows.items()}
        return {n: _real_at(v, x) for n, v in out.items()}

    def _closed_value(self, f: Flow, x, env: dict):
        if f.value0 is not None:
            return f.value0.eval({**env, self.x_symbol: x})
        start = f.start.eval(env).real
        if f.kind == "powerlaw":
            return start / (1 + f.cexpr.eval(env).real * start * x)
        if f.kind == "quad":
            return start + f.scale.eval(env).real \
                * np.log(1 + f.inner.eval(env).real * x)
        return start + f.drift_poly.eval(env).real * x    # a frozen phase

    def _numeric_values(self, x, env: dict) -> dict:
        from .numlab import solve_ivp
        names = self.ft.unknown_names()
        y0 = [self.flows[n].start.eval(env).real for n in names]
        eqs = [self.ft.equations[n] for n in names]
        if self.ft.is_autonomous():
            # the mu=0 value as a function of the start point satisfies the
            # time-inverted autonomous system; one trajectory covers all x
            xmax = float(np.max(np.abs(x))) * 1.5 + 1.0
            rhs = evaluator_rhs([-e for e in eqs], self.ft.mu, names, env)
            traj = solve_ivp(rhs, y0, (0.0, xmax), "rk45-adaptive", tol=1e-12)
            return {n: traj(x, i) for i, n in enumerate(names)}
        f = evaluator_rhs(eqs, self.ft.mu, names, env)
        ends = np.array([solve_ivp(f, y0, (xv, 0.0), "rk45-adaptive",
                                   tol=1e-12).states[-1] if xv != 0 else y0
                         for xv in np.ravel(x).tolist()])
        return {n: ends[:, i].reshape(np.shape(x))
                for i, n in enumerate(names)}


def _real_at(val, x):
    """The real part of ``val`` broadcast to the shape of ``x``: a float for
    a scalar ``x``, an array for an array."""
    out = np.broadcast_to(np.real(val), np.shape(x))
    return float(out) if out.ndim == 0 else out


def _poly_coeff(e: Expr, vpows=()) -> Optional[Poly]:
    """The parameter polynomial P with e == P*m, for the monomial m whose
    powers are ``vpows`` (() for 1, ((x, 1),) for x); None if P is 0 or
    there is none."""
    out = Poly()
    for t in e.terms:
        if t.rates or t.offs or t.vpows != vpows:
            return None
        out = out + t.coeff
    return None if out.is_zero() else out


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

    ``tilde_values`` holds start-point values by constant, as exact Exprs:
    one in the parameters for an amplitude, 0 for a phase.  Every other
    constant starts from its tilde symbol.
    """
    names = ft.unknown_names()
    name_set = set(names)
    offsets = {c.name for c in ft.unknowns if c.kind == "offset"}
    starts = {n: Expr.sym(n + TILDE_SUFFIX) for n in names}
    for n, v in (tilde_values or {}).items():
        if n in offsets and not v.is_zero():
            raise OutOfClassError(
                f"phase start value {n}{TILDE_SUFFIX} = {v!r}: only 0 stays "
                "in class")
        starts[n] = v
    flows: dict = {}
    solved: dict = {}     # name -> Expr for A(mu) along the orbit, or None
    pending = list(names)
    while pending:
        progressed = False
        for n in list(pending):
            rhs = ft.equations[n]
            refs = rhs.symbols() & name_set
            if (refs - {n}) - set(solved):
                continue
            flow = _match_flow(ft, n, rhs, solved, flows, starts, offsets,
                               x_symbol)
            if flow is None:
                return _numeric_flows(ft, x_symbol, starts)
            flows[n] = flow
            solved[n] = _flow_mu_expr(flow, ft.mu, x_symbol)
            pending.remove(n)
            progressed = True
        if not progressed:
            return _numeric_flows(ft, x_symbol, starts)
    return ConstantFlows(ft, flows, x_symbol)


def _flow_mu_expr(flow: Flow, mu: str, x: str):
    """A(mu) along the orbit, for substitution into later quadratures."""
    if flow.kind == "const":
        return flow.start
    if flow.kind == "exp":
        # A(mu) = start * exp(rate*(mu - x))
        return flow.start * Expr.exp(mu, flow.rate) * Expr.exp(x, -flow.rate)
    return None   # powerlaw/frozen orbits are consumed by dedicated patterns


def _phase_offs(start: Expr) -> dict:
    """The offset form of a phase's start value: its tilde, or 0."""
    return {s: 1 for s in start.symbols()}


def _start_freeze(e: Expr, starts, offsets) -> Expr:
    """``e`` with every constant frozen at its start value."""
    for m, start in starts.items():
        if m in offsets:
            if m in e.symbols():
                e = e.shift_phase(m, offs=_phase_offs(start))
        else:
            e = e.subs_param(m, start)
    return e


def _match_flow(ft, n, rhs, solved, flows, starts, offsets, x_symbol):
    mu, eps, k = ft.mu, ft.parameter, ft.order
    start = starts[n]
    if rhs.is_zero():
        return Flow(n, "const", start, value0=start)
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
                cpoly = _poly_coeff(c1)
                if cpoly is not None and cpoly.is_real() and \
                        not (set(c1.symbols()) & set(ft.unknown_names())):
                    return Flow(n, "exp", start, rate=cpoly,
                                value0=start * Expr.exp(x_symbol, -cpoly))
            # (ii) separable power law: A' = c*A^2
            if not c2.is_zero() and c1.is_zero() and rest.is_zero():
                if not (set(c2.symbols()) & (set(ft.unknown_names()) | {mu})):
                    return Flow(n, "powerlaw", start, cexpr=c2)
    if not self_ref:
        refs = [m for m in rhs.symbols() if m in solved]
        # (iii-a) exact quadrature through in-class solved orbits
        if all(solved[m] is not None for m in refs):
            expr = rhs
            for m in refs:
                if m in offsets:
                    expr = expr.shift_phase(m, offs=_phase_offs(starts[m]))
                else:
                    expr = expr.subs_param(m, solved[m])
            try:
                anti = particular_integral(LinearOperator.make([0, 1], mu),
                                           expr)
                integral = anti.subs_param(mu, 0) - anti.rename(mu, x_symbol)
                # integral == -int_0^x rhs dmu, so A(0) = start + integral
                if n in offsets:
                    dp = _poly_coeff(integral, ((x_symbol, 1),))
                    if dp is None:
                        return None
                    return Flow(n, "frozen", start, drift_poly=dp)
                return Flow(n, "quad-expr", start, value0=start + integral)
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
                cp = _poly_coeff(flows[m].cexpr)
                lamp = _poly_coeff(lam)
                if cp is not None and lamp is not None:
                    scale = div_exact(Expr.from_poly(lamp),
                                      Expr.from_poly(cp)).scale(-1)
                    return Flow(n, "quad", start, scale=scale,
                                inner=Expr.from_poly(cp) * flows[m].start)
    # (iv) frozen quadrature: the right side is of high enough order that the
    # constants' own variation contributes only beyond the truncation
    p_min = next((m for m, c in enumerate(rhs.orders(eps, k + 1))
                  if not c.is_zero()), None)
    if p_min is not None and 2 * p_min >= k + 2:
        frozen = _start_freeze(rhs, starts, offsets)
        if mu in frozen.symbols():
            return None
        drift = frozen * Expr.var(x_symbol)    # int_0^x frozen dmu
        if n in offsets:
            dp = _poly_coeff(drift, ((x_symbol, 1),))
            # theta(0) = start - (drift coefficient)*x
            return (Flow(n, "frozen", start, drift_poly=-dp)
                    if dp is not None else None)
        return Flow(n, "frozen", start, value0=start - drift)
    return None


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



def _numeric_flows(ft: FTSystem, x_symbol: str,
                   starts: dict) -> ConstantFlows:
    flows = {n: Flow(n, "numeric", starts[n]) for n in ft.unknown_names()}
    return ConstantFlows(ft, flows, x_symbol)


# ---------------------------------------------------------------------------
# Uniform solutions.

@dataclass
class UniformSolution:
    """Globally valid approximation: symbolic when flows stay in class."""

    symbolic: Optional[Expr]
    variable: str
    flows: dict                  # name -> Flow
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
            ", ".join(f"{n}={f.kind}" for n, f in self.flows.items()) + ">"


def assemble_uniform(ps: PaintedSeries, flows: ConstantFlows) -> UniformSolution:
    """Transport the special (mu = 0) solution along the flows.

    The special solution is the painted series at mu = 0; the flows supply
    the constant values there in terms of their start values at mu = x, and
    the painted bookkeeping is discharged by the original variable.
    """
    special = ps.special_solution()
    x = ps.variable
    symbolic = special
    offsets = {c.name for c in flows.ft.unknowns if c.kind == "offset"}
    for n, f in flows.flows.items():
        if n in offsets and f.kind != "numeric":
            # a phase is const or frozen and starts from its tilde or 0
            symbolic = symbolic.shift_phase(
                n, offs=_phase_offs(f.start),
                freqs={x: f.drift_poly} if f.drift_poly is not None else {})
        elif f.value0 is not None:
            symbolic = symbolic.subs_param(n, f.value0)
        else:
            symbolic = None
            break
    if symbolic is not None:
        return UniformSolution(symbolic, x, flows.flows)

    def evaluator(xv, env: dict):
        e2 = {**env, **flows.values(xv, env), x: xv, ps.mu: 0.0}
        return _real_at(special.eval(e2), xv)

    return UniformSolution(None, x, flows.flows, evaluator)


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
                          t.offs)])
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
                    x0: str, constants: Sequence[str], truncate_order: int,
                    parameter: str) -> CGOResult:
    """Apply d/dx0 + sum A_i' d/dA_i in the limit x -> x0.

    The caller supplies the splitting; underdetermination is reported, not
    fatal.  One equation is produced per supplied expression, truncated at
    ``truncate_order`` in ``parameter`` counting each flow derivative as
    first order, which is how they are written down in hand calculations.
    """
    primes = [c + PRIME_SUFFIX for c in constants]
    chain = dict(zip(constants, primes))
    grades = dict.fromkeys(primes, 1)
    eqs = [grade_truncate(e.diff(x0, chain).rename(x, x0), grades, parameter,
                          truncate_order)
           for e in [split_series] + list(derivs)]
    under = False
    msg = ""
    try:
        lineqs = [LinEq(*_split_linear_in_primes(eq, primes), f"cgo eq {i}")
                  for i, eq in enumerate(eqs)]
        sol, _free, _leftovers = solve_linear_system(lineqs)
        missing = [p for p in primes if p not in sol]
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
