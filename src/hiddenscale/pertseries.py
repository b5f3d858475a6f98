"""Perturbation hierarchies for constant-coefficient ODEs.

Builds the order-by-order forcing equations for a perturbed linear ODE,
solves each order exactly by undetermined coefficients (with resonant trials
promoted by the minimal variable power), and assembles the bare series with
symbolic integration constants.  Every solve is verified by substituting back
into the operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exprcore import (Expr, LinEq, Poly, Q_ONE, Q_ZERO, Term, _I_POWERS,
                       _qadd, _qdiv, _qmul, _qnum, _qpow, solve_linear_system)


class SolveError(RuntimeError):
    pass


def _sqrt_fraction(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    def isqrt_exact(n: int) -> Optional[int]:
        r = int(n ** 0.5)
        for c in (r - 1, r, r + 1):
            if c >= 0 and c * c == n:
                return c
        return None
    a = isqrt_exact(q.numerator)
    b = isqrt_exact(q.denominator)
    if a is None or b is None:
        return None
    return Fraction(a, b)


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

        Supports rational roots plus conjugate pairs with rational real and
        imaginary parts (a pure-imaginary pair may be double); anything else
        is rejected.
        """
        cs = list(self.coeffs)
        roots = []
        m0 = 0
        while cs[0] == 0:
            m0 += 1
            cs = cs[1:]
        if m0:
            roots.append((Q_ZERO, m0))

        def deflate(poly, r):
            # synthetic division by (x - r); poly low-to-high
            hi = list(reversed(poly))
            out = [hi[0]]
            for c in hi[1:]:
                out.append(c + r * out[-1])
            rem = out.pop()
            assert rem == 0
            return list(reversed(out))

        def rational_candidates(poly):
            lead, const = poly[-1], poly[0]
            scale = 1
            for c in poly:
                scale = scale * c.denominator // __import__("math").gcd(
                    scale, c.denominator)
            ip = [int(c * scale) for c in poly]
            def divisors(n):
                n = abs(n)
                out = set()
                i = 1
                while i * i <= n:
                    if n % i == 0:
                        out.add(i)
                        out.add(n // i)
                    i += 1
                return out or {1}
            ps = divisors(ip[0]) if ip[0] else {0}
            qs = divisors(ip[-1])
            cands = set()
            for p in ps:
                for q in qs:
                    if q:
                        cands.add(Fraction(p, q))
                        cands.add(Fraction(-p, q))
            cands.add(Fraction(0))
            return cands

        while len(cs) > 1:
            if len(cs) == 2:
                roots.append((_qnum(-cs[0] / cs[1]), 1))
                break
            found = None
            for r in sorted(rational_candidates(cs)):
                if sum(c * r ** m for m, c in enumerate(cs)) == 0:
                    found = r
                    break
            if found is not None:
                mult = 0
                while len(cs) > 1 and sum(c * found ** m
                                          for m, c in enumerate(cs)) == 0:
                    cs = deflate(cs, found)
                    mult += 1
                roots.append((_qnum(found), mult))
                continue
            if len(cs) == 3:
                # the search above removed every rational root, so only a
                # complex pair with rational parts can remain
                a, b, c2 = cs[2], cs[1], cs[0]
                disc = b * b - 4 * a * c2
                s = _sqrt_fraction(-disc)
                if s is not None:
                    re = -b / (2 * a)
                    im = s / (2 * a)
                    roots.append((_qnum(re, abs(im)), 1))
                    roots.append((_qnum(re, -abs(im)), 1))
                    break
                raise SolveError("operator has non-rational characteristic roots")
            # try biquadratic-style repeated complex pair, e.g. (1 + D^2)^2
            if len(cs) == 5:
                a, b, c2, d, e = cs[4], cs[3], cs[2], cs[1], cs[0]
                if b == 0 and d == 0:
                    # a z^4 + c z^2 + e: quadratic in z^2
                    disc = c2 * c2 - 4 * a * e
                    if disc == 0:
                        z2 = -c2 / (2 * a)
                        if z2 < 0:
                            s = _sqrt_fraction(-z2)
                            if s is not None:
                                roots.append((_qnum(0, s), 2))
                                roots.append((_qnum(0, -s), 2))
                                break
            raise SolveError("unsupported operator factorization")
        merged = {}
        for z, m in roots:
            merged[z] = merged.get(z, 0) + m
        total = sum(merged.values())
        if total != self.order:
            raise SolveError("operator has non-rational characteristic roots")
        # real roots first, then by decreasing real and increasing
        # imaginary part
        return sorted(merged.items(), key=lambda zm: (
            zm[0][1] != 0, Fraction(-zm[0][0], zm[0][2]),
            Fraction(zm[0][1], zm[0][2])))


@dataclass(frozen=True)
class PertTerm:
    """One perturbation monomial eps^power * coeff * prod(D^m y)^p."""

    eps_power: int
    coeff: Expr
    deriv_powers: tuple   # tuple[(deriv order m, power p), ...]

    def apply(self, y_derivs) -> Expr:
        out = self.coeff
        for m, p in self.deriv_powers:
            out = out * (y_derivs[m] ** p)
        return out


@dataclass(frozen=True)
class ConstantInfo:
    name: str
    order: int
    kind: str            # "param" or "offset"


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

    def residual_orders(self, series: "PerturbationSeries"):
        """Collected orders 0..k of L[series] + perturbation(series)."""
        full = series.full()
        derivs = [full]
        maxd = max([m for pt in self.perturbations for m, _ in pt.deriv_powers],
                   default=0)
        for _ in range(maxd):
            derivs.append(derivs[-1].diff(self.variable))
        res = self.operator.apply(full)
        epse = Expr.sym(self.parameter)
        for pt in self.perturbations:
            res = res + (epse ** pt.eps_power) * pt.apply(derivs)
        return [res.collect_order(self.parameter, j)
                for j in range(self.order + 1)]


@dataclass
class PerturbationSeries:
    """Bare series: orders[j] is the coefficient of parameter**j."""

    orders: list
    constants: list        # [ConstantInfo]
    parameter: str
    variable: str

    def full(self) -> Expr:
        out = Expr.zero()
        p = Expr.sym(self.parameter)
        for j, e in enumerate(self.orders):
            out = out + (p ** j) * e
        return out

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
    r = t.rate(var)
    w = t.freq(var)
    rn = r.is_number()
    wn = w.is_number()
    if rn is None or wn is None or rn[1] != 0 or wn[1] != 0:
        raise SolveError(
            "forcing has a non-rational exponential rate or frequency in the "
            "solve variable")
    z = _qadd(rn, _qmul(_I_POWERS[1], wn))
    d = t.vpow(var)
    rates = tuple((v, p) for v, p in t.rates if v != var)
    freqs = tuple((v, p) for v, p in t.freqs if v != var)
    vpows = tuple((v, p) for v, p in t.vpows if v != var)
    return z, d, Term(t.coeff, vpows, rates, freqs, t.offs)


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
                        (((var, Poly.num(Fraction(z[0], z[2]))),)
                         if z[0] else ()),
                        (((var, Poly.num(Fraction(z[1], z[2]))),)
                         if z[1] else ()), ())
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
    partial = PerturbationSeries(list(orders), [], p.parameter, p.variable).full()
    maxd = max([m for pt in p.perturbations for m, _ in pt.deriv_powers],
               default=0)
    derivs = [partial]
    for _ in range(maxd):
        derivs.append(derivs[-1].diff(p.variable))
    F = Expr.zero()
    epse = Expr.sym(p.parameter)
    for pt in p.perturbations:
        F = F + (epse ** pt.eps_power) * pt.apply(derivs)
    return -F.collect_order(p.parameter, j)


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
