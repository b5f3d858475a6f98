"""Perturbation hierarchies for constant-coefficient ODEs.

Builds the order-by-order forcing equations for a perturbed linear ODE,
solves each order exactly by undetermined coefficients (with resonant trials
promoted by the minimal variable power), and assembles the bare series with
symbolic integration constants.  Every solve is verified by substituting back
into the operator.  Declared grades cut each order at total grade k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from .exprcore import (Expr, LinEq, Poly, Q_ONE, Q_ZERO, Term, _qadd, _qdiv,
                       _qmul, _qnum, _qpow, _qreduce, product_upto,
                       solve_linear_system)


class SolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class LinearOperator:
    """Constant rational-coefficient operator sum(c_m * D^m) in ``var``."""

    coeffs: tuple          # coeffs[m] is a Fraction
    var: str

    @staticmethod
    def make(coeffs: Iterable, var: str) -> "LinearOperator":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise ValueError("empty differential operator")
        return LinearOperator(tuple(cs), var)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def apply(self, e: Expr) -> Expr:
        out = Expr.zero()
        d = e
        for m, c in enumerate(self.coeffs):
            if m:
                d = d.diff(self.var)
            if c:
                out = out + d.scale(c)
        return out

    def multiplicity(self, z) -> int:
        """Multiplicity of the Gaussian rational z as a characteristic root
        (0 if not a root)."""
        coeffs = list(self.coeffs)
        mult = 0
        while coeffs and len(coeffs) > 1:
            val = Q_ZERO
            for m, c in enumerate(coeffs):
                val = _qadd(val, _qmul(_qnum(c), _qpow(z, m)))
            if val != Q_ZERO:
                break
            mult += 1
            coeffs = [m * c for m, c in enumerate(coeffs)][1:]
        return mult

    def char_roots(self):
        """All characteristic roots as (Gaussian rational, multiplicity).

        ``np.roots`` proposes candidates from the polynomial and its first
        ``order - 1`` derivatives: a root of multiplicity m is a simple root
        of the (m-1)-th derivative, where its numeric value is accurate.
        With integer coefficients, the rational root theorem in the Gaussian
        integers puts lead * z in Z[i] for every Gaussian-rational root z, so
        each candidate is rounded to multiples of 1/lead and kept only when
        the exact ``multiplicity`` is nonzero.  Any other root is rejected.
        """
        scale = lcm(*(c.denominator for c in self.coeffs))
        poly = [int(c * scale) for c in self.coeffs]
        den = abs(poly[-1])
        found = {}
        for _ in range(self.order):
            for w in np.roots([float(c) for c in reversed(poly)]):
                z = _qreduce(round(w.real * den), round(w.imag * den), den)
                if z not in found and (mult := self.multiplicity(z)):
                    found[z] = mult
            poly = [m * c for m, c in enumerate(poly)][1:]
        if sum(found.values()) != self.order:
            raise SolveError("operator has non-rational characteristic roots")
        # real roots first, then by decreasing real and increasing
        # imaginary part
        return sorted(found.items(), key=lambda zm: (
            zm[0][1] != 0, Fraction(-zm[0][0], zm[0][2]),
            Fraction(zm[0][1], zm[0][2])))


@dataclass(frozen=True)
class PertTerm:
    """One perturbation monomial eps^power * coeff * prod(D^m y)^p."""

    eps_power: int
    coeff: Expr
    deriv_powers: tuple   # tuple[(deriv order m, power p), ...]

    def apply(self, y_derivs, param: str, k: int) -> Expr:
        """eps^power * coeff * prod (D^m y)^p up to order ``k`` in ``param``
        (``exprcore.product_upto``)."""
        factors = [Expr.sym(param, self.eps_power), self.coeff]
        for m, p in self.deriv_powers:
            factors += [y_derivs[m]] * p
        return product_upto(factors, param, k)


@dataclass(frozen=True)
class ConstantInfo:
    name: str
    order: int
    kind: str            # "param" or "offset"


def _grade_parts(e: Expr, grades: dict) -> dict:
    """``e`` split by declared grade: {h: part}.  The grade of a monomial is
    the sum of grade*power over its symbols in ``grades``; with none
    declared the one part is ``e`` itself, at grade 0."""
    if not grades:
        return {0: e}
    parts: dict = {}
    for t in e.terms:
        for m in t.coeff.monos:
            h = sum((grades[s] * p for s, p in m[0] if s in grades),
                    Fraction(0))
            parts.setdefault(h, []).append(t.with_coeff(Poly([m])))
    return {h: Expr(ts) for h, ts in parts.items()}


def grade_truncate(e: Expr, grades: dict, param: str, max_grade) -> Expr:
    """``e`` without the terms of total grade above ``max_grade``: the power
    of ``param`` plus the declared grades (a constant of grade 1/2 is of the
    order param**(1/2))."""
    parts = _grade_parts(e, {**grades, param: 1})
    return Expr([t for h, part in parts.items() if h <= max_grade
                 for t in part.terms])


@dataclass
class ODEProblem:
    """Perturbed constant-coefficient ODE: L[y] + sum(pert terms) = 0."""

    operator: LinearOperator
    perturbations: Sequence[PertTerm]
    parameter: str
    order: int
    constants_policy: str = "fresh-at-zeroth-order"
    constant_style: str = "rect"           # rect | amp-cos | amp-sin
    constant_names: dict = field(default_factory=dict)   # order -> [names]
    fixed_constants: dict = field(default_factory=dict)  # name -> rational
    grades: dict = field(default_factory=dict)           # name -> grade

    @property
    def variable(self) -> str:
        return self.operator.var

    def __post_init__(self):
        n = self.operator.order
        for pt in self.perturbations:
            if pt.eps_power < 1:
                raise ValueError("perturbation terms must carry eps^j, j >= 1")
            for m, _p in pt.deriv_powers:
                if m > n:
                    raise ValueError(
                        "perturbation involves a higher derivative than the "
                        "unperturbed operator; transform into the inner layer")

    def names_for(self, order: int, count: int):
        names = self.constant_names.get(order)
        if names is None:
            base = "ABCDEFGH"[order % 8]
            names = [f"{base}{i+1}" if count > 1 else base for i in range(count)]
        if len(names) != count:
            raise ValueError(
                f"order {order} needs {count} constant names, got {names}")
        return list(names)

    def apply_perturbation(self, y: Expr, k: int) -> Expr:
        """The sum of the perturbation terms at ``y``, up to order ``k``."""
        derivs = [y]
        maxd = max([m for pt in self.perturbations for m, _ in pt.deriv_powers],
                   default=0)
        for _ in range(maxd):
            derivs.append(derivs[-1].diff(self.variable))
        out = Expr.zero()
        for pt in self.perturbations:
            out = out + pt.apply(derivs, self.parameter, k)
        return out

    def truncated(self, e: Expr, max_grade) -> Expr:
        """``e`` up to total grade ``max_grade``, if grades are declared."""
        return grade_truncate(e, self.grades, self.parameter, max_grade) \
            if self.grades else e

    def residual_orders(self, series: "PerturbationSeries"):
        """Collected orders 0..k of L[series] + perturbation(series), each
        order j up to grade k - j."""
        full = series.full()
        k = self.order
        res = (self.operator.apply(full)
               + self.apply_perturbation(self.truncated(full, k - 1), k))
        return [self.truncated(res.collect_order(self.parameter, j), k - j)
                for j in range(k + 1)]


@dataclass
class PerturbationSeries:
    """Bare series: orders[j] is the coefficient of parameter**j."""

    orders: list
    constants: list        # [ConstantInfo]
    parameter: str
    variable: str

    def full(self) -> Expr:
        return Expr([t.with_coeff(t.coeff * Poly.sym(self.parameter, j))
                     for j, e in enumerate(self.orders) for t in e.terms])

    def min_order_constants(self):
        """Constants introduced at the lowest populated order."""
        if not self.constants:
            return []
        lo = min(c.order for c in self.constants)
        return [c for c in self.constants if c.order == lo]


# ---------------------------------------------------------------------------
# Undetermined coefficients.

def _term_mode(t: Term, var: str):
    """(z, degree, factor Term) decomposition of a forcing term in ``var``."""
    z = t.rate(var).is_number()
    if z is None:
        raise SolveError(
            "forcing has a non-rational exponential rate or frequency in the "
            "solve variable")
    d = t.vpow(var)
    rates = tuple((v, p) for v, p in t.rates if v != var)
    vpows = tuple((v, p) for v, p in t.vpows if v != var)
    return z, d, Term(t.coeff, vpows, rates, t.offs)


def _shifted_coeffs(L: LinearOperator, z):
    """Coefficients beta_j of L(D + z) as Gaussian rationals."""
    from math import comb
    n = L.order
    betas = []
    for j in range(n + 1):
        b = Q_ZERO
        for m in range(j, n + 1):
            c = _qnum(L.coeffs[m] * comb(m, j))
            b = _qadd(b, _qmul(c, _qpow(z, m - j)))
        betas.append(b)
    return betas


def particular_integral(L: LinearOperator, f: Expr) -> Expr:
    """Exact particular integral of L[y] = f by undetermined coefficients."""
    var = L.var
    out = Expr.zero()
    for t in f.terms:
        z, d, factor = _term_mode(t, var)
        mult = L.multiplicity(z)
        betas = _shifted_coeffs(L, z)
        if any(betas[j] != Q_ZERO for j in range(mult)) or \
                betas[mult] == Q_ZERO:
            raise SolveError("resonance classification failed (internal)")
        # solve L(D+z)[sum_e u_e v^(e+mult)] = v^d
        fact = [1]
        for i in range(1, d + mult + 1):
            fact.append(fact[-1] * i)
        u = [None] * (d + 1)
        for e in range(d, -1, -1):
            # coefficient of v^(e): contributions from u_e (j=mult) and u_e'
            # with e' > e (j = mult + e' - e)
            # the factorial ratios are integers: e2 > e and mult >= 0
            acc = Q_ZERO
            for e2 in range(e + 1, d + 1):
                j = mult + e2 - e
                if j >= len(betas):
                    continue
                c = (fact[e2 + mult] // fact[e], 0, 1)
                acc = _qadd(acc, _qmul(c, _qmul(betas[j], u[e2])))
            rhs = _qadd(Q_ONE if e == d else Q_ZERO, (-acc[0], -acc[1], acc[2]))
            denom = _qmul(betas[mult], (fact[e + mult] // fact[e], 0, 1))
            u[e] = _qdiv(rhs, denom)
        trial = Expr.zero()
        for e, ue in enumerate(u):
            if ue == Q_ZERO:
                continue
            mono = Term(Poly([((), ue)]), ((var, e + mult),)
                        if e + mult else (),
                        ((var, Poly([((), z)])),) if z != Q_ZERO else ())
            trial = trial + Expr([mono])
        out = out + Expr([factor]) * trial
    # exact verification
    if not (L.apply(out) - f).is_zero():
        raise SolveError("undetermined-coefficient solve failed verification")
    return out


def complementary(L: LinearOperator, names: Sequence[str], style: str,
                  base_offsets: Optional[dict] = None):
    """Complementary function with fresh constants.

    Returns (Expr, [ConstantInfo], offsets-per-root) where offsets records the
    phase symbol attached to each oscillatory root (for reuse at higher
    orders when the style is amplitude-phase).
    """
    var = L.var
    names = list(names)
    cf = Expr.zero()
    infos = []
    offsets = {}
    for z, mult in L.char_roots():
        re_z, im_z = Fraction(z[0], z[2]), Fraction(z[1], z[2])
        if im_z < 0:
            continue
        for j in range(mult):
            vf = Expr.var(var, j) if j else Expr.num(1)
            envelope = vf * (Expr.exp(var, re_z) if re_z else Expr.num(1))
            if im_z == 0:
                nm = names.pop(0)
                cf = cf + Expr.sym(nm) * envelope
                infos.append(ConstantInfo(nm, -1, "param"))
            elif style in ("amp-cos", "amp-sin") and base_offsets is not None \
                    and z in base_offsets:
                nm_a, nm_b = names.pop(0), names.pop(0)
                th = base_offsets[z]
                cf = cf + Expr.sym(nm_a) * envelope * Expr.cos({var: im_z}, {th: 1})
                cf = cf + Expr.sym(nm_b) * envelope * Expr.sin({var: im_z}, {th: 1})
                infos.append(ConstantInfo(nm_a, -1, "param"))
                infos.append(ConstantInfo(nm_b, -1, "param"))
            elif style in ("amp-cos", "amp-sin"):
                if mult > 1:
                    raise SolveError(
                        "amplitude-phase constants need simple oscillatory roots")
                nm_r, nm_th = names.pop(0), names.pop(0)
                build = Expr.cos if style == "amp-cos" else Expr.sin
                cf = cf + Expr.sym(nm_r) * envelope * build({var: im_z}, {nm_th: 1})
                infos.append(ConstantInfo(nm_r, -1, "param"))
                infos.append(ConstantInfo(nm_th, -1, "offset"))
                offsets[z] = nm_th
            else:
                nm_a, nm_b = names.pop(0), names.pop(0)
                cf = cf + Expr.sym(nm_a) * envelope * Expr.cos({var: im_z})
                cf = cf + Expr.sym(nm_b) * envelope * Expr.sin({var: im_z})
                infos.append(ConstantInfo(nm_a, -1, "param"))
                infos.append(ConstantInfo(nm_b, -1, "param"))
    return cf, infos, offsets


def solve_order(L: LinearOperator, f: Expr, ics=None,
                names: Optional[Sequence[str]] = None, style: str = "rect",
                base_offsets: Optional[dict] = None):
    """Solve L[y] = f exactly: complementary function plus particular integral.

    ``ics`` is None (keep fresh constants) or "zero" (y and its first n-1
    derivatives vanish at 0, and the fresh constants are solved out).
    Returns (Expr, [ConstantInfo], offsets).
    """
    n = L.order
    pi = particular_integral(L, f) if not f.is_zero() else Expr.zero()
    if ics is None:
        names = names if names is not None else [f"C{i+1}" for i in range(n)]
        cf, infos, offsets = complementary(L, names, style, base_offsets)
        return cf + pi, infos, offsets
    cf, infos, _ = complementary(L, [f"_c{i}" for i in range(n)], "rect")
    y = cf + pi
    consts = [c.name for c in infos]
    eqs = []
    d = y
    for m in range(n):
        if m:
            d = d.diff(L.var)
        rest = d.subs_param(L.var, 0)
        coeffs = {}
        for cn in consts:
            coeffs[cn], rest = rest.coeff_linear(cn)
        eqs.append(LinEq(coeffs, rest))
    sol, free, leftovers = solve_linear_system(eqs)
    if free:
        raise SolveError("underdetermined initial conditions")
    if leftovers:
        raise SolveError("inconsistent initial conditions")
    out = y
    for c in consts:
        out = out.subs_param(c, sol.get(c, Expr.zero()))
    if not (L.apply(out) - f).is_zero():
        raise SolveError("ic solve failed verification")
    return out, [], {}


# ---------------------------------------------------------------------------
# Hierarchy driving.

def _forcing_at_order(p: ODEProblem, orders, j: int) -> Expr:
    # the parts of grade up to k - j; as each perturbation term carries
    # param**1 or more, the lower orders enter up to total grade k - 1
    partial = PerturbationSeries(list(orders), [], p.parameter, p.variable).full()
    f = -p.apply_perturbation(p.truncated(partial, p.order - 1), j)
    return p.truncated(f.collect_order(p.parameter, j), p.order - j)


def expand_hierarchy(p: ODEProblem):
    """The (operator, forcing) pair for each order 0..k.

    Forcings beyond order zero are assembled from the solved lower orders, so
    this runs the same solves as build_bare_series.
    """
    series = build_bare_series(p)
    out = [(p.operator, Expr.zero())]
    for j in range(1, p.order + 1):
        out.append((p.operator, _forcing_at_order(p, series.orders[:j], j)))
    return out


def build_bare_series(p: ODEProblem) -> PerturbationSeries:
    """Solve the hierarchy and return the bare series with fresh constants."""
    orders = []
    constants = []
    base_offsets: dict = {}
    for j in range(p.order + 1):
        f = Expr.zero() if j == 0 else _forcing_at_order(p, orders, j)
        fresh = (j == 0) or (p.constants_policy == "fresh-per-order")
        if fresh:
            n = p.operator.order
            names = p.names_for(j, n)
            style = p.constant_style if j == 0 or base_offsets else "rect"
            y, infos, offs = solve_order(p.operator, f, None, names, style,
                                         base_offsets if j else None)
            if j == 0:
                base_offsets = offs
            constants.extend(ConstantInfo(c.name, j, c.kind) for c in infos)
        elif p.constants_policy == "zeroth-only":
            y = particular_integral(p.operator, f) if not f.is_zero() \
                else Expr.zero()
        else:   # fresh-at-zeroth-order: zero ics pin the higher orders
            y, _, _ = solve_order(p.operator, f, "zero")
        for name, value in p.fixed_constants.items():
            if any(c.name == name for c in constants):
                y = y.subs_param(name, Fraction(value))
        orders.append(y)
    constants = [c for c in constants if c.name not in p.fixed_constants]
    series = PerturbationSeries(orders, constants, p.parameter, p.variable)
    res = p.residual_orders(series)
    bad = [j for j, r in enumerate(res) if not r.is_zero()]
    if bad:
        raise SolveError(f"series residual not zero at orders {bad}")
    return series
