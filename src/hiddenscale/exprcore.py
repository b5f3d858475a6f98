"""Exact symbolic kernel for the exp-poly-trig expression class.

An expression is a finite sum of terms of the form

    coeff(params) * prod_v v**p_v * exp(sum_v z_v(params)*v + i*sum_s c_s*s)

where ``coeff`` is a Laurent polynomial in parameter symbols with exact
Gaussian-rational coefficients, each rate ``z_v`` is a polynomial in
parameters with Gaussian-rational coefficients (affine in practice), whose
real part is a growth rate and whose imaginary part is a frequency, the
``p_v`` are nonnegative integers and the phase-offset weights ``c_s`` are
rationals.  Trigonometric content lives exclusively in the imaginary parts of
the rates and in the offsets; real expressions are stored as conjugate pairs
of terms and the printer recombines them into cos/sin.

Every constructor normalizes, so two expressions are symbolically equal iff
they compare equal.  Values are immutable and safe to share between threads;
all operations are pure.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, inf
from re import findall, fullmatch
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

RatLike = Union[int, Fraction]


class OutOfClassError(ValueError):
    """A requested operation would leave the closed expression class."""


# ---------------------------------------------------------------------------
# Gaussian rationals, stored as integer triples (re, im, den) meaning
# (re + i*im)/den with den > 0 and gcd(re, im, den) == 1, so that equal
# values are equal triples.  Each operation reduces its result once.

Q_ZERO = (0, 0, 1)
Q_ONE = (1, 0, 1)
_I_POWERS = ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))   # i**n, n mod 4


def _qreduce(re: int, im: int, den: int):
    g = gcd(re, im, den)
    if g == 1:
        return (re, im, den)
    return (re // g, im // g, den // g)


def _qnum(re: RatLike, im: RatLike = 0):
    """The triple of re + i*im for integer or Fraction parts."""
    rd, id_ = re.denominator, im.denominator
    if rd == id_:
        return (re.numerator, im.numerator, rd)
    return _qreduce(re.numerator * id_, im.numerator * rd, rd * id_)


def _qadd(a, b):
    ar, ai, ad = a
    br, bi, bd = b
    if ad == bd:
        if ad == 1:
            return (ar + br, ai + bi, 1)
        return _qreduce(ar + br, ai + bi, ad)
    return _qreduce(ar * bd + br * ad, ai * bd + bi * ad, ad * bd)


def _qmul(a, b):
    ar, ai, ad = a
    br, bi, bd = b
    if ai or bi:
        return _qreduce(ar * br - ai * bi, ar * bi + ai * br, ad * bd)
    re, den = ar * br, ad * bd
    g = gcd(re, den)
    return (re // g, 0, den // g) if g != 1 else (re, 0, den)


def _qdiv(a, b):
    ar, ai, ad = a
    br, bi, bd = b
    if bi:
        # a/b = a*conj(b)*bd / (ad*|b*bd|^2)
        n = br * br + bi * bi
        return _qreduce((ar * br + ai * bi) * bd, (ai * br - ar * bi) * bd,
                        ad * n)
    if not br:
        raise ZeroDivisionError("division by zero Gaussian rational")
    if br < 0:
        br, bd = -br, -bd
    return _qreduce(ar * bd, ai * bd, ad * br)


def _qpow(a, n: int):
    if n < 0:
        return _qdiv(Q_ONE, _qpow(a, -n))
    if not a[1]:
        return (a[0] ** n, 0, a[2] ** n)   # coprime parts stay coprime
    out = Q_ONE
    for _ in range(n):
        out = _qmul(out, a)
    return out


def _rat_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))``: "n" or "n/d" in lowest terms."""
    if not num:
        return "0"
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


# ---------------------------------------------------------------------------
# Symbol-sorted (symbol, value) tuples: powers, rates, offsets.

def _merge(a: tuple, b: tuple) -> tuple:
    """Sum of two symbol-sorted tuples; zero sums are dropped."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        sa, sb = a[i][0], b[j][0]
        if sa < sb:
            out.append(a[i])
            i += 1
        elif sb < sa:
            out.append(b[j])
            j += 1
        else:
            v = a[i][1] + b[j][1]
            if v:
                out.append((sa, v))
            i += 1
            j += 1
    return tuple(out) + a[i:] + b[j:]


def _lookup(pairs: tuple, s: str, default=0):
    for k, v in pairs:
        if k == s:
            return v
    return default


def _without(pairs: tuple, s: str) -> tuple:
    return tuple(kv for kv in pairs if kv[0] != s)


def _negated(pairs: tuple) -> tuple:
    return tuple((s, -v) for s, v in pairs)


def _renamed(pairs: tuple, old: str, new: str) -> tuple:
    """The tuple with symbol ``old`` renamed ``new``, merging values."""
    v = _lookup(pairs, old, None)
    return pairs if v is None else _merge(_without(pairs, old), ((new, v),))


# ---------------------------------------------------------------------------
# Laurent polynomials over parameter symbols.

Pows = tuple  # tuple[tuple[str, int], ...], sorted, no zero exponents
Mono = tuple  # (Pows, (re, im, den))


class Poly:
    """Laurent polynomial in parameter symbols, Gaussian-rational coefficients."""

    __slots__ = ("monos", "_key")

    def __init__(self, monos: Iterable[Mono] = ()):
        acc: dict = {}
        for m in monos:
            p = m[0]
            c = acc.get(p)
            acc[p] = m if c is None else (p, _qadd(c[1], m[1]))
        self.monos = tuple(m for _, m in sorted(acc.items())
                           if m[1][0] or m[1][1])
        self._key = None

    @staticmethod
    def _canonical(monos: tuple) -> "Poly":
        """Wrap monomials that are already sorted, distinct and nonzero."""
        p = Poly.__new__(Poly)
        p.monos = monos
        p._key = None
        return p

    # -- construction -------------------------------------------------------
    @staticmethod
    def num(re: RatLike, im: RatLike = 0) -> "Poly":
        return _constant(_qnum(re, im))

    @staticmethod
    def sym(name: str, exp: int = 1) -> "Poly":
        return Poly([(((name, exp),) if exp else (), Q_ONE)])

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.monos

    def __bool__(self) -> bool:
        """Nonzero, so that ``_merge`` drops zero sums of Polys as of ints."""
        return bool(self.monos)

    def is_real(self) -> bool:
        return all(not q[1] for _, q in self.monos)

    def is_number(self):
        """Return the Gaussian-rational triple if constant, else None."""
        if not self.monos:
            return Q_ZERO
        if len(self.monos) == 1 and not self.monos[0][0]:
            return self.monos[0][1]
        return None

    def single(self):
        """Return the only monomial if this is a monomial, else None."""
        return self.monos[0] if len(self.monos) == 1 else None

    def symbols(self) -> set:
        out = set()
        for pows, _ in self.monos:
            out.update(s for s, _ in pows)
        return out

    # -- ring ops ------------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        if not other.monos:
            return self
        if not self.monos:
            return other
        return Poly(self.monos + other.monos)

    def __neg__(self) -> "Poly":
        q = self.is_number()
        if q is not None:
            return _constant((-q[0], -q[1], q[2]))
        return Poly._canonical(tuple((p, (-q[0], -q[1], q[2]))
                                     for p, q in self.monos))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.monos, other.monos
        if len(a) == 1 and len(b) == 1:
            # a product of two nonzero monomials is one nonzero monomial
            return Poly._canonical(((_merge(a[0][0], b[0][0]),
                                     _qmul(a[0][1], b[0][1])),))
        return Poly([(_merge(pa, pb), _qmul(qa, qb))
                     for pa, qa in a for pb, qb in b])

    def times(self, q) -> "Poly":
        """Every coefficient multiplied by the Gaussian-rational triple q."""
        if not (q[0] or q[1]):
            return P_ZERO
        return Poly._canonical(tuple((p, _qmul(c, q)) for p, c in self.monos))

    def scale(self, re: RatLike, im: RatLike = 0) -> "Poly":
        return self.times(_qnum(re, im))

    def conj(self) -> "Poly":
        """The conjugate, symbols taken real; self when already real, so a
        shared constant keeps its memoized key."""
        if self.is_real():
            return self
        q = self.is_number()
        if q is not None:
            return _constant((q[0], -q[1], q[2]))
        return Poly._canonical(tuple((p, (q[0], -q[1], q[2]))
                                     for p, q in self.monos))

    def parts(self):
        """(real part, imaginary part), each a real Poly."""
        if self.is_real():
            return self, P_ZERO
        return tuple(Poly._canonical(tuple((p, _qreduce(q[k], 0, q[2]))
                                           for p, q in self.monos if q[k]))
                     for k in (0, 1))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            m = self.single()
            if m is None:
                raise OutOfClassError("cannot invert a multi-term polynomial")
            pows, q = m
            inv = Poly([(_negated(pows), _qdiv(Q_ONE, q))])
            return inv ** (-n)
        out = P_ONE
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.monos == other.monos

    def __hash__(self):
        return hash(self.monos)

    # -- calculus / structure -------------------------------------------------
    def diff(self, sym: str) -> "Poly":
        out = []
        for pows, q in self.monos:
            k = _lookup(pows, sym)
            if k:
                out.append((_merge(pows, ((sym, -1),)), _qmul(q, (k, 0, 1))))
        return Poly(out)

    def order_range(self, sym: str):
        """(min, max) exponent of sym across monomials (0 if absent)."""
        if not self.monos:
            return (0, 0)
        ks = [_lookup(p, sym) for p, _ in self.monos]
        return (min(ks), max(ks))

    def coeff_of(self, sym: str, j: int) -> "Poly":
        """Coefficient polynomial of sym**j (sym removed)."""
        return Poly([(_without(pows, sym), q) for pows, q in self.monos
                     if _lookup(pows, sym) == j])

    def split_by(self, sym: str):
        """Split into (free of sym, containing sym)."""
        free, dep = [], []
        for m in self.monos:
            (dep if _lookup(m[0], sym) else free).append(m)
        return Poly(free), Poly(dep)

    def subs_num(self, env: Mapping[str, RatLike]) -> "Poly":
        """Each symbol in ``env`` set to its value; self if none occurs."""
        out = []
        hit = False
        for pows, q in self.monos:
            keep = []
            for s, k in pows:
                if s in env:
                    q = _qmul(q, _qpow(_qnum(env[s]), k))
                    hit = True
                else:
                    keep.append((s, k))
            out.append((tuple(keep), q))
        return Poly(out) if hit else self

    def rename(self, old: str, new: str) -> "Poly":
        return Poly([(_renamed(pows, old, new), q) for pows, q in self.monos])

    def eval(self, env: Mapping[str, float]) -> complex:
        total = 0j
        for pows, (re, im, den) in self.monos:
            v = complex(re / den, im / den)
            for s, k in pows:
                try:
                    v *= env[s] ** k
                except KeyError:
                    raise KeyError(f"no value for symbol {s!r}")
            total += v
        return total

    def key(self):
        """Sort key: per monomial its powers and the text "re im" of its
        coefficient, flattened into one tuple.

        It orders like the tuples (powers, str(re), str(im)): the texts use
        only "-", "/" and digits, which all sort after the space.
        """
        if self._key is None:
            self._key = tuple(
                x for p, (re, im, den) in self.monos
                for x in (p, f"{_rat_text(re, den)} {_rat_text(im, den)}"))
        return self._key

    def __repr__(self):
        from . import textform

        return f"Poly({textform.poly_text(self)})"


# Shared constant Polys: the rates of exponentials are a few Gaussian
# rationals used over and over, so each gets one object and one sort key.
_CONSTANTS: dict = {}


def _constant(q) -> Poly:
    """The constant Poly with the triple q, shared for the first 1024."""
    p = _CONSTANTS.get(q)
    if p is None:
        p = Poly([((), q)])
        if len(_CONSTANTS) < 1024:
            _CONSTANTS[q] = p
    return p


P_ZERO = Poly()
P_ONE = Poly.num(1)

# ---------------------------------------------------------------------------
# Terms.

SlotPolys = tuple  # tuple[tuple[str, Poly], ...] sorted by symbol


def _slot_make(d: Mapping[str, Poly]) -> SlotPolys:
    return tuple(sorted((v, p) for v, p in d.items() if not p.is_zero()))


def _weight(c: RatLike) -> RatLike:
    """A phase-offset weight: an int when integral, else a Fraction.

    Both compare, hash and print alike; the int is cheaper to compare.
    """
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _offs_make(d: Mapping[str, RatLike]) -> tuple:
    return tuple(sorted((s, _weight(c)) for s, c in d.items() if c))


class Term:
    """One canonical summand; compare/merge on everything but the coefficient.

    ``rates`` holds one Gaussian-rational Poly per variable: the growth rate
    plus i times the frequency."""

    __slots__ = ("coeff", "vpows", "rates", "offs", "_shape")

    def __init__(self, coeff: Poly, vpows: Pows = (), rates: SlotPolys = (),
                 offs: tuple = ()):
        for _, p in vpows:
            if p < 0:
                raise OutOfClassError("negative power of an independent variable")
        self.coeff = coeff
        self.vpows = vpows
        self.rates = rates
        self.offs = offs
        self._shape = None

    def with_coeff(self, coeff: Poly) -> "Term":
        """The same basis function with another coefficient."""
        t = Term.__new__(Term)
        t.coeff = coeff
        t.vpows = self.vpows
        t.rates = self.rates
        t.offs = self.offs
        t._shape = self._shape
        return t

    def shape(self):
        """Everything that identifies the basis function of this term; the
        rates enter as a flat (variable, key, ...) tuple."""
        if self._shape is None:
            self._shape = (
                self.vpows,
                tuple(x for v, p in self.rates for x in (v, p.key())),
                self.offs)
        return self._shape

    def print_key(self):
        """The printed order: powers, the real parts of the rates, their
        imaginary parts, offsets, then the coefficient."""
        parts = [(v, p.parts()) for v, p in self.rates]
        re, im = (tuple(x for v, pp in parts if pp[k] for x in (v, pp[k].key()))
                  for k in (0, 1))
        return ((self.vpows, re, im, self.offs), self.coeff.key())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Term) and self.coeff == other.coeff
                and self.shape() == other.shape())

    def __hash__(self):
        return hash((self.coeff, self.shape()))

    def vpow(self, v: str) -> int:
        return _lookup(self.vpows, v)

    def rate(self, v: str) -> Poly:
        return _lookup(self.rates, v, P_ZERO)

    def phases(self) -> SlotPolys:
        """The nonzero imaginary parts of the rates (the frequencies)."""
        return tuple((v, im) for v, p in self.rates
                     for im in (p.parts()[1],) if im)

    def mul(self, other: "Term") -> "Term":
        return Term(self.coeff * other.coeff,
                    _merge(self.vpows, other.vpows),
                    _merge(self.rates, other.rates),
                    _merge(self.offs, other.offs))

    def conj(self) -> "Term":
        return Term(self.coeff.conj(), self.vpows,
                    tuple((v, p.conj()) for v, p in self.rates),
                    _negated(self.offs))

    def symbols(self) -> set:
        out = self.coeff.symbols()
        for v, p in self.vpows:
            out.add(v)
        for v, p in self.rates:
            out.add(v)
            out |= p.symbols()
        out.update(s for s, _ in self.offs)
        return out

    def eval(self, env: Mapping[str, float]) -> complex:
        val = self.coeff.eval(env)
        for v, p in self.vpows:
            val *= env[v] ** p
        arg = 0j
        for v, p in self.rates:
            arg += p.eval(env) * env[v]
        for s, c in self.offs:
            arg += 1j * complex(c) * env[s]
        return val * np.exp(arg) if self.rates or self.offs else val

    def __repr__(self):
        return f"Term({Expr((self,))!r})"


# ---------------------------------------------------------------------------
# Expressions.

class Expr:
    """Canonical sum of terms."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Iterable[Term] = ()):
        merged: dict = {}
        for t in terms:
            if not t.coeff.monos:
                continue
            sh = t.shape()
            u = merged.get(sh)
            merged[sh] = t if u is None else u.with_coeff(u.coeff + t.coeff)
        out = [t for t in merged.values() if t.coeff.monos]
        if len(out) > 1:
            # the shapes are distinct, so no coefficient key is needed
            out.sort(key=Term.shape)
        self.terms = tuple(out)
        self._hash = None

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def zero() -> "Expr":
        return Expr()

    @staticmethod
    def num(re: RatLike, im: RatLike = 0) -> "Expr":
        return Expr([Term(Poly.num(re, im))])

    @staticmethod
    def sym(name: str, exp: int = 1) -> "Expr":
        return Expr([Term(Poly.sym(name, exp))])

    @staticmethod
    def from_poly(p: Poly) -> "Expr":
        return Expr([Term(p)])

    @staticmethod
    def var(name: str, power: int = 1) -> "Expr":
        if power == 0:
            return Expr.num(1)
        return Expr([Term(P_ONE, ((name, power),))])

    @staticmethod
    def exp(var: str, rate) -> "Expr":
        """exp(rate*var) with a polynomial-in-parameters rate."""
        rate = rate if isinstance(rate, Poly) else Poly.num(rate)
        return Expr([Term(P_ONE, (), _slot_make({var: rate}))])

    @staticmethod
    def _phase(freqs: Mapping[str, "Poly | RatLike"],
               offs: Mapping[str, RatLike]) -> Term:
        """exp(i*(sum freq*var + sum c*sym)): each rate is i*freq."""
        fs = {v: p.times(_I_POWERS[1]) if isinstance(p, Poly)
              else Poly.num(0, p) for v, p in freqs.items()}
        return Term(P_ONE, (), _slot_make(fs), _offs_make(offs))

    @staticmethod
    def cis(freqs: Mapping[str, "Poly | RatLike"] = (),
            offs: Mapping[str, RatLike] = ()) -> "Expr":
        """exp(i*(sum freq*var + sum c*sym)); building block for cos/sin."""
        return Expr([Expr._phase(dict(freqs or {}), dict(offs or {}))])

    @staticmethod
    def cos(freqs: Mapping[str, "Poly | RatLike"] = (),
            offs: Mapping[str, RatLike] = ()) -> "Expr":
        t = Expr._phase(dict(freqs or {}), dict(offs or {}))
        half = _constant((1, 0, 2))
        return Expr([t.with_coeff(half), t.conj().with_coeff(half)])

    @staticmethod
    def sin(freqs: Mapping[str, "Poly | RatLike"] = (),
            offs: Mapping[str, RatLike] = ()) -> "Expr":
        t = Expr._phase(dict(freqs or {}), dict(offs or {}))
        return Expr([t.with_coeff(_constant((0, -1, 2))),    # -i/2
                     t.conj().with_coeff(_constant((0, 1, 2)))])

    # -- predicates -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def symbols(self) -> set:
        out = set()
        for t in self.terms:
            out |= t.symbols()
        return out

    def single_term(self):
        return self.terms[0] if len(self.terms) == 1 else None

    # -- ring ops --------------------------------------------------------------
    def __add__(self, other) -> "Expr":
        other = _as_expr(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return Expr(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr([t.with_coeff(-t.coeff) for t in self.terms])

    def __sub__(self, other) -> "Expr":
        return self + (-_as_expr(other))

    def __rsub__(self, other) -> "Expr":
        return _as_expr(other) + (-self)

    def __mul__(self, other) -> "Expr":
        other = _as_expr(other)
        return Expr([a.mul(b) for a in self.terms for b in other.terms])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Expr":
        if n < 0:
            return self.inverse() ** (-n)
        out = Expr.num(1)
        for _ in range(n):
            out = out * self
        return out

    def scale(self, re: RatLike, im: RatLike = 0) -> "Expr":
        q = _qnum(re, im)
        return Expr([t.with_coeff(t.coeff.times(q)) for t in self.terms])

    def inverse(self) -> "Expr":
        t = self.single_term()
        if t is None:
            raise OutOfClassError("only single-term expressions are invertible")
        if any(p for _, p in t.vpows):
            raise OutOfClassError("cannot invert a variable power inside the class")
        c = t.coeff ** (-1)
        return Expr([Term(c, (), _negated(t.rates), _negated(t.offs))])

    def conj(self) -> "Expr":
        return Expr([t.conj() for t in self.terms])

    def parts(self):
        """(real part, imaginary part), symbols taken real: (e + conj e)/2
        and (e - conj e)*(-i/2), both built in one pass over the terms."""
        re, im = [], []
        for t in self.terms:
            c = t.conj()
            re += [t.with_coeff(t.coeff.times((1, 0, 2))),
                   c.with_coeff(c.coeff.times((1, 0, 2)))]
            im += [t.with_coeff(t.coeff.times((0, -1, 2))),
                   c.with_coeff(c.coeff.times((0, 1, 2)))]
        return Expr(re), Expr(im)

    def __eq__(self, other) -> bool:
        return isinstance(other, Expr) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def __repr__(self):
        from . import textform

        return f"Expr({textform.expr_text(self)})"

    # -- calculus ---------------------------------------------------------------
    def diff(self, s: str, chain: Mapping[str, str] = ()) -> "Expr":
        """Exact derivative with respect to a variable, parameter or offset.

        ``chain`` maps each symbol that is an opaque function of ``s`` to the
        symbol of its derivative; each contributes its chain-rule term.
        """
        out = self._partial(s)
        for u, prime in dict(chain).items():
            out = out + Expr.sym(prime) * self._partial(u)
        return out

    def _partial(self, s: str) -> "Expr":
        """Derivative with every symbol other than ``s`` held fixed."""
        out = []
        for t in self.terms:
            k = t.vpow(s)
            if k:
                out.append(Term(t.coeff.times((k, 0, 1)),
                                _merge(t.vpows, ((s, -1),)),
                                t.rates, t.offs))
            dc = t.coeff.diff(s)
            if not dc.is_zero():
                out.append(t.with_coeff(dc))
            # d/ds of the exponent as (factor, variable or None) pairs; an
            # offset weight c gives i*c
            grads = [(t.rate(s), None)] + [(p.diff(s), v) for v, p in t.rates]
            c = _lookup(t.offs, s)
            if c:
                grads.append((Poly.num(0, c), None))
            for g, v in grads:
                if not g.is_zero():
                    vpows = _merge(t.vpows, ((v, 1),)) if v else t.vpows
                    out.append(Term(t.coeff * g, vpows, t.rates, t.offs))
        return Expr(out)

    def eval(self, env: Mapping[str, float]) -> complex:
        out = 0j    # a left fold: no sum that an interpreter may compensate
        for t in self.terms:
            out = out + t.eval(env)
        return out

    # -- substitution family ------------------------------------------------------
    def rename(self, old: str, new: str) -> "Expr":
        """Uniform symbol rename across coefficients, powers, rates and offsets."""
        return Expr([Term(t.coeff.rename(old, new),
                          _renamed(t.vpows, old, new),
                          _renamed(tuple((v, p.rename(old, new))
                                         for v, p in t.rates), old, new),
                          _renamed(t.offs, old, new))
                     for t in self.terms])

    def subs_param(self, sym: str, value) -> "Expr":
        """Replace a parameter symbol by an in-class expression.

        A rational number goes through ``subs_num``.  Otherwise negative
        powers of ``sym`` require the replacement to be invertible (a single
        term), the symbol must not occur in rates or phases, each power of
        the replacement is formed once and the result is built in one pass.
        """
        if isinstance(value, (int, Fraction)):
            return self.subs_num({sym: value})
        value = _as_expr(value)
        powers: dict = {}
        out = []
        for t in self.terms:
            if any(sym in p.symbols() for _, p in t.rates) or \
               any(s == sym for s, _ in t.offs):
                raise OutOfClassError(
                    f"symbol {sym!r} occurs in an exponent; only numeric "
                    "substitution is possible there")
            lo, hi = t.coeff.order_range(sym)
            for j in range(lo, hi + 1):
                c = t.coeff.coeff_of(sym, j)
                if c.is_zero():
                    continue
                if j not in powers:
                    base = value if j >= 0 else value.inverse()
                    powers[j] = base ** abs(j)
                piece = t.with_coeff(c)
                out += [piece.mul(b) for b in powers[j].terms]
        return Expr(out)

    def subs_num(self, env: Mapping[str, RatLike]) -> "Expr":
        """Set each symbol in ``env`` to its rational value, in one pass.

        A phase offset can only be set to 0.  A symbol used as a variable
        (x^k, exp(r*x), exp(i*w*x)) can only be set to 0, where its power
        kills the term and its exponential slot is 1.  Either set nonzero
        raises if a term still carries it once the rest is substituted.
        """
        zero = {s for s, q in env.items() if not q}
        out = []
        for t in self.terms:
            if any(v in zero for v, _ in t.vpows):
                continue
            out.append(Term(
                t.coeff.subs_num(env), t.vpows,
                _slot_make({v: p.subs_num(env) for v, p in t.rates
                            if v not in zero}),
                tuple(kv for kv in t.offs if kv[0] not in zero)))
        res = Expr(out)
        for t in res.terms:
            for s, _ in t.offs:
                if s in env:
                    raise OutOfClassError(
                        f"phase offset {s!r} can only be set to 0 numerically")
            for v, _ in t.vpows + t.rates:
                if v in env:
                    raise OutOfClassError(
                        f"variable {v!r} can only be set to 0 numerically")
        return res

    def shift_phase(self, sym: str, offs: Mapping[str, RatLike] = (),
                    freqs: Mapping[str, "Poly | RatLike"] = ()) -> "Expr":
        """Replace phase offset ``sym`` by a linear form.

        sym -> sum(offs) + sum(freqs * var).
        """
        offs = {s: Fraction(c) for s, c in dict(offs or {}).items()}
        freqs = {v: (p if isinstance(p, Poly) else Poly.num(p))
                 for v, p in dict(freqs or {}).items()}
        out = []
        for t in self.terms:
            od = dict(t.offs)
            c = od.pop(sym, None)
            if c is None:
                out.append(t)
                continue
            for s, w in offs.items():
                od[s] = od.get(s, 0) + c * w
            rd = dict(t.rates)
            for v, p in freqs.items():
                add = p.scale(0, c)
                rd[v] = rd[v] + add if v in rd else add
            out.append(Term(t.coeff, t.vpows, _slot_make(rd), _offs_make(od)))
        return Expr(out)

    # -- order bookkeeping ---------------------------------------------------------
    def orders(self, param: str, k: int) -> list:
        """The coefficients of param**0 .. param**k, in one pass.

        Each term's exponents that carry ``param`` are series-expanded once,
        to order k, and each coefficient monomial goes to the order of its
        ``param``-degree.  Coefficients must be polynomial (no negative
        powers) in ``param``.
        """
        out = [[] for _ in range(k + 1)]
        for t in self.terms:
            if t.coeff.order_range(param)[0] < 0:
                raise OutOfClassError(
                    f"coefficient is not polynomial in {param!r}")
            for _order, term in _expand_param_exponents(t, param, k):
                by_degree: dict = {}
                for pows, q in term.coeff.monos:
                    d = _lookup(pows, param)
                    if d <= k:
                        by_degree.setdefault(d, []).append(
                            (_without(pows, param), q))
                for d, monos in by_degree.items():
                    out[d].append(term.with_coeff(Poly(monos)))
        return [Expr(terms) for terms in out]

    def collect_order(self, param: str, j: int) -> "Expr":
        """``orders(param, j)[j]``; no derive calls it, and
        ``perfbench/tracer.py`` wraps it by name."""
        return self.orders(param, j)[j]

    def truncate_order(self, param: str, k: int) -> "Expr":
        """Sum of param**j * orders(param, k)[j] for j = 0..k."""
        out = Expr.zero()
        p = Expr.sym(param)
        for j, c in enumerate(self.orders(param, k)):
            out = out + (p ** j) * c
        return out

    # -- structure helpers -----------------------------------------------------------
    def coeff_linear(self, sym: str):
        """Write self = c*sym + d for a symbol occurring at most linearly."""
        c, d = [], []
        for t in self.terms:
            lo, hi = t.coeff.order_range(sym)
            if lo < 0 or hi > 1:
                raise OutOfClassError(f"symbol {sym!r} does not occur linearly")
            cc = t.coeff.coeff_of(sym, 1)
            dd = t.coeff.coeff_of(sym, 0)
            if not cc.is_zero():
                c.append(t.with_coeff(cc))
            if not dd.is_zero():
                d.append(t.with_coeff(dd))
        return Expr(c), Expr(d)

    def split_basis(self, basis_vars: Sequence[str]):
        """Group terms by their basis function over the given variables.

        Returns a sorted list of (basis Term with unit coefficient, remainder
        Expr); summing basis*remainder reproduces the expression.
        """
        vs = set(basis_vars)
        groups: dict = {}
        for t in self.terms:
            bvp = tuple((v, p) for v, p in t.vpows if v in vs)
            ovp = tuple((v, p) for v, p in t.vpows if v not in vs)
            brate = tuple((v, p) for v, p in t.rates if v in vs)
            orate = tuple((v, p) for v, p in t.rates if v not in vs)
            basis = Term(P_ONE, bvp, brate, ())
            rest = Term(t.coeff, ovp, orate, t.offs)
            groups.setdefault(basis.shape(), [basis, []])[1].append(rest)
        out = []
        for shape in sorted(groups):
            basis, rests = groups[shape]
            out.append((basis, Expr(rests)))
        return out

    def factor_out_unit_phase(self) -> "Expr":
        """Multiply by a unit phase so some term has no offsets or frequencies.

        Used before splitting an equation into real and imaginary parts; the
        equation set {E=0} is unchanged by a unit-phase factor.
        """
        if not self.terms:
            return self
        best = min(self.terms, key=lambda t: (len(t.offs) + len(t.phases()),
                                              t.print_key()))
        phases = best.phases()
        if not best.offs and not phases:
            return self
        unit = Term(P_ONE, (), tuple((v, p.times(_I_POWERS[3]))
                                     for v, p in phases), _negated(best.offs))
        return self * Expr([unit])


# ---------------------------------------------------------------------------
# Straight-line numeric evaluation: an rhs evaluates the same expressions at
# thousands of points, so each is turned into Python code once.

# Generated source: names a<i> (arguments), b<i> (locals), k<i> (bound
# values), the function f and its factory, int literals, operators (``<``
# but not ``>``), ``.real`` and the statements ``if``, ``while`` and
# ``break`` (``else``, ``elif`` and ``for`` stay foreign).  No symbol name,
# spec text or float literal can pass.
_TOKEN = r"[A-Za-z_]\w*|\d+|\*\*|\.real\b|\S"
_NAME = r"[abk][0-9]+|[0-9]+|def|return|try|except|if|while|break|make|f"
_SYMBOLS = {"**", ".real", *"-+*/(),:=[]<"}


_MAKERS: dict = {}     # (role, source) -> its ``make``, once checked


def compile_function(nargs: int, body: Sequence[str], values: Sequence,
                     role: str):
    """The function ``f(a0, ..., a<nargs-1>)`` whose body is the statements
    ``body``, one per line, with ``values`` bound to the names k0, k1, ...
    Its code's filename is ``<role>``, so that a profile tells the generated
    functions apart.

    The code sees no builtins and no globals: everything it uses beyond its
    arguments, numbers included, is one of ``values``.  Each distinct source
    is checked token by token and compiled once; calls with the same source
    and other values reuse it.
    """
    params = ", ".join(f"a{i}" for i in range(nargs))
    src = (f"def make({', '.join(f'k{i}' for i in range(len(values)))}):\n"
           f"    def f({params}):\n"
           + "".join(f"        {line}\n" for line in body)
           + "    return f\n")
    make = _MAKERS.get((role, src))
    if make is None:
        if not all(tok in _SYMBOLS or fullmatch(_NAME, tok)
                   for tok in findall(_TOKEN, src)):
            raise ValueError("generated source holds a foreign token")
        scope = {"__builtins__": {}}
        exec(compile(src, f"<{role}>", "exec"), scope)
        make = _MAKERS[role, src] = scope["make"]
    return make(*values)


class _Code:
    """Values bound to the names k0, k1, ... of one generated function."""

    def __init__(self):
        self.values = []

    def bind(self, value) -> str:
        self.values.append(value)
        return f"k{len(self.values) - 1}"

    def function(self, nargs: int, body: Sequence[str], role: str):
        return compile_function(nargs, body, self.values, role)

    def list_rhs(self, n: int, lines: Sequence[str], role: str):
        """An rhs ``f(t, y)`` on a list state ``y`` of ``n`` floats, written
        as straight-line code that a step loop can inline.

        ``lines`` compute the rhs value from a0 (t) and a1, ..., an (the
        entries of y), in locals b0, b1, ... and the bound values; each
        ``return`` in them is the last statement its branch runs, and
        returns the value as a list display of n entries or as a call that
        returns a list.  ``f`` unpacks y into a1, ..., an
        and runs ``lines``.  ``f.straight_line`` is ``((role, lines),
        values)``: the source that ``numlab._dopri_loop`` inlines, keyed by
        its text, and the values its names k0, k1, ... stand for.
        """
        lines = tuple(lines)
        unpack = "".join(f"a{c}, " for c in range(1, n + 1))
        f = self.function(2, [f"{unpack}= a1", *lines], role)
        f.straight_line = (role, lines), tuple(self.values)
        return f


class _Folder(_Code):
    """Code for ``Expr.eval(env).real`` with the operations of
    ``Poly.eval``, ``Term.eval`` and ``Expr.eval`` in their order.

    A node is (True, value) when it uses no argument, computed now by the
    operation ``eval`` would do, else (False, code).  A left-to-right chain
    computes its constant prefix now; the rest stays in the code.
    """

    def __init__(self, args: Sequence[str], fixed: Mapping):
        super().__init__()
        self.args = {s: f"a{i}" for i, s in enumerate(args)}
        self.fixed = dict(fixed)

    def code(self, node) -> str:
        return self.bind(node[1]) if node[0] else node[1]

    def chain(self, nodes, op: str):
        acc, rest = nodes[0], list(nodes[1:])
        while rest and acc[0] and rest[0][0]:
            x = rest.pop(0)[1]
            acc = (True, acc[1] + x if op == "+" else acc[1] * x)
        if not rest:
            return acc
        return (False, "(" + f" {op} ".join(map(self.code, [acc, *rest]))
                + ")")

    def power(self, s: str, k: int, missing: KeyError):
        """env[s] ** k; x**1 is x, bit for bit, for every float x."""
        if s in self.args:
            a = self.args[s]
            return (False, a if k == 1 else f"{a}**{k}")
        if s not in self.fixed:
            raise missing
        return (True, self.fixed[s] ** k)

    def poly(self, p: Poly):
        return self.chain([(True, 0j)] + [
            self.chain([(True, complex(re / den, im / den))]
                       + [self.power(s, k,
                                     KeyError(f"no value for symbol {s!r}"))
                          for s, k in pows], "*")
            for pows, (re, im, den) in p.monos], "+")

    def term(self, t: Term):
        val = self.chain([self.poly(t.coeff)]
                         + [self.power(v, p, KeyError(v)) for v, p in t.vpows],
                         "*")
        if not (t.rates or t.offs):
            return val
        arg = [(True, 0j)]
        for v, p in t.rates:
            arg.append(self.chain(
                [self.poly(p), self.power(v, 1, KeyError(v))], "*"))
        for s, c in t.offs:
            arg.append(self.chain([(True, 1j * complex(c)),
                                   self.power(s, 1, KeyError(s))], "*"))
        arg = self.chain(arg, "+")
        if arg[0]:
            return self.chain([val, (True, complex(np.exp(arg[1])))], "*")
        # cmath.exp equals np.exp bit for bit where both are finite
        return self.chain([val, (False, f"{self.bind(cmath.exp)}({arg[1]})")],
                          "*")

    def reals(self, exprs: Sequence[Expr], lead: str) -> list:
        """Lines that run ``lead`` on the list ``[e.eval(env).real for e in
        exprs]``, env = {**fixed, arg i: a<i>}, equal to it bit for bit.

        The powers of fixed symbols, the coefficients and the offset
        factors are computed here; the lines do the remaining float
        operations of ``Expr.eval`` in its order, with ``cmath.exp`` for
        ``np.exp``.  Where ``cmath.exp`` raises (``np.exp`` gives inf or
        NaN), every entry is ``Expr.eval``'s.  A missing symbol raises
        ``Expr.eval``'s KeyError here.
        """
        outs = []
        for e in exprs:
            node = self.chain([(True, 0j)] + [self.term(t) for t in e.terms],
                              "+")
            outs.append(self.bind(node[1].real) if node[0]
                        else f"{node[1]}.real")
        args, fixed = list(self.args), self.fixed

        def slow(*values):
            at = {**fixed, **dict(zip(args, values))}
            return [e.eval(at).real for e in exprs]
        return ["try:", f"    {lead}[{', '.join(outs)}]",
                f"except {self.bind((OverflowError, ValueError))}:",
                f"    {lead}{self.bind(slow)}({', '.join(self.args.values())})"]


def evaluator_rhs(exprs: Sequence[Expr], t: str, ys: Sequence[str],
                  fixed: Mapping):
    """The rhs ``f(t, y)``: the list ``[e.eval(env).real for e in exprs]``
    with env = {**fixed, t: t, ys[i]: y[i]}, bit for bit, as a
    ``_Code.list_rhs`` that a step loop inlines.  ``fixed`` is read here,
    once (``_Folder.reals``)."""
    fold = _Folder([t, *ys], fixed)
    return fold.list_rhs(len(ys), fold.reals(exprs, "return "),
                         "evaluator_rhs")


def explicit_ode_rhs(coeffs: Sequence[float], terms: Sequence,
                     var: str, fixed: Mapping):
    """``f(t, y)`` for the first-order system of ``c0*y + c1*y' + ... +
    cn*y^(n) + terms = 0`` with ``coeffs = [c0, ..., cn]``: the list
    ``[y[1], ..., y[n-1], -top / cn]``, where

        top = 0.0 + c0*y[0] + ... + c(n-1)*y[n-1] + term + term + ...

    in that order.  A term ``(coeff, factor, powers)`` is
    ``factor * y[m0]**q0 * ...`` for ``(m, q)`` in ``powers``, or, when
    ``coeff`` is an Expr in ``var`` and ``fixed``, ``coeff(t) * factor *
    ...``.  Each such coefficient is ``coeff.eval(env).real`` bit for bit,
    folded into the lines ahead of ``top`` (``_Folder.reals``), with
    ``Expr.eval``'s value for all of them where ``cmath.exp`` raises.  Where
    a ``y[m]**q`` overflows (a Python float raises, numpy gives inf), the
    last entry is inf.  ``f`` is a ``_Code.list_rhs``, which a step loop
    inlines.
    """
    fold = _Folder([var], fixed)
    n = len(coeffs) - 1
    ys = [f"a{m + 1}" for m in range(n)]
    timed = [c for c, _f, _p in terms if c is not None]
    cs = [f"b{j}" for j in range(len(timed))]
    next_c = iter(cs)
    top = [fold.bind(0.0)] + [f"{fold.bind(c)}*{y}"
                              for c, y in zip(coeffs, ys)]
    for coeff, factor, powers in terms:
        val = fold.bind(factor)
        if coeff is not None:
            val = f"{next(next_c)}*{val}"
        # y**1 is y, bit for bit
        top.append(val + "".join(f"*{ys[m]}" + (f"**{q}" if q != 1 else "")
                                 for m, q in powers))
    shift = "".join(f"{y}, " for y in ys[1:])
    lines = ["try:"]
    if timed:
        lines += ["    " + line for line in
                  fold.reals(timed, "".join(c + ", " for c in cs) + "= ")]
    lines += [f"    return [{shift}-({' + '.join(top)}) / "
              f"{fold.bind(coeffs[-1])}]",
              f"except {fold.bind(OverflowError)}:",
              f"    return [{shift}{fold.bind(inf)}]"]
    return fold.list_rhs(n, lines, "explicit_ode_rhs")


def _expand_param_exponents(t: Term, param: str, jmax: int):
    """Expand exp factors whose rate contains ``param``.

    Returns (order_consumed, Term) pairs with the param-dependent exponent
    pieces replaced by their series truncated at total order jmax.
    """
    if all(p.order_range(param) == (0, 0) for _, p in t.rates):
        return [(0, t)]
    pieces = [(0, Term(t.coeff, t.vpows, (), t.offs))]
    for v, p in t.rates:
        free, dep = p.split_by(param)
        base = Term(P_ONE, (), _slot_make({v: free}), ())
        pieces = [(o, pt.mul(base)) for o, pt in pieces]
        if not dep.is_zero():
            pieces = _series_mul(pieces, v, dep, param, jmax)
    return pieces


def _series_mul(pieces, v, dep: Poly, param: str, jmax: int):
    lo, _ = dep.order_range(param)
    if lo < 1:
        # every order of the exponential series would reach order <= jmax
        raise OutOfClassError(f"exponent is not polynomial in {param!r}")
    out = []
    for order, pt in pieces:
        fact = 1
        for m in range(0, jmax + 1):
            if m:
                fact *= m
            if order + m * lo > jmax:
                break
            mono = Term((dep ** m).times((1, 0, fact)), ((v, m),) if m else ())
            out.append((order + m * lo, pt.mul(mono)))
    return out


def _mul_upto(a: Sequence[Term], b: Sequence[Term], param: str, k: int):
    """The terms a x b, each coefficient without its monomials of
    ``param``-degree above ``k``; terms left with none are dropped."""
    def graded(terms):
        return [(t, [(m, _lookup(m[0], param)) for m in t.coeff.monos])
                for t in terms]

    gb = graded(b)
    out = []
    for ta, ma in graded(a):
        for tb, mb in gb:
            monos = [(_merge(pa, pb), _qmul(qa, qb)) for (pa, qa), da in ma
                     for (pb, qb), db in mb if da + db <= k]
            if monos:
                out.append(Term(Poly(monos), _merge(ta.vpows, tb.vpows),
                                _merge(ta.rates, tb.rates),
                                _merge(ta.offs, tb.offs)))
    return out


def product_upto(factors: Sequence[Expr], param: str, k: int) -> Expr:
    """The product of ``factors`` up to order ``k`` in ``param``.

    Coefficient monomials are dropped as they are formed once their
    ``param``-degree, plus the lowest degrees of the factors still to come,
    exceeds ``k``; negative powers are kept.  ``orders(param, k)`` of the
    result equals that of the full product: series-expanding an exponent
    only raises the degree.
    """
    lows = [min((t.coeff.order_range(param)[0] for t in f.terms), default=0)
            for f in factors]
    out = Expr.num(1)
    for i, f in enumerate(factors):
        out = Expr(_mul_upto(out.terms, f.terms, param, k - sum(lows[i + 1:])))
    return out


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Expr.num(x)
    if isinstance(x, Poly):
        return Expr.from_poly(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


# ---------------------------------------------------------------------------
# Painting.

def classify_divergent(e: Expr, v: str):
    """Partition terms into (divergent, convergent) with respect to ``v``.

    A term is divergent iff it carries a positive polynomial power of ``v``
    (a secular factor multiplying a bounded envelope).
    """
    div, conv = [], []
    for t in e.terms:
        (div if t.vpow(v) else conv).append(t)
    return Expr(div), Expr(conv)


def paint_term(t: Term, v: str, mu: str) -> Term:
    """Move the polynomial power of ``v`` onto ``mu`` (divergent instances only)."""
    k = t.vpow(v)
    if not k:
        return t
    return Term(t.coeff, _merge(_without(t.vpows, v), ((mu, k),)), t.rates,
                t.offs)


# ---------------------------------------------------------------------------
# Exact linear systems with Expr coefficients.

def _div_single(e: Expr, t: Term) -> Expr:
    """e divided term by term by t, whose coefficient is one monomial; by a
    number, each coefficient is scaled in place of a rebuilt term."""
    q = _term_number(t)
    if q is not None:
        inv = _qdiv(Q_ONE, q)
        return Expr([a.with_coeff(a.coeff.times(inv)) for a in e.terms])
    inv_c = t.coeff ** -1
    out = []
    for a in e.terms:
        vpows = _merge(a.vpows, _negated(t.vpows))
        if any(p < 0 for _, p in vpows):
            raise OutOfClassError("inexact division by variable power")
        out.append(Term(a.coeff * inv_c, vpows,
                        _merge(a.rates, _negated(t.rates)),
                        _merge(a.offs, _negated(t.offs))))
    return Expr(out)


def _atoms(e: Expr):
    """(exponent, atom) per coefficient monomial of e.  The exponent maps the
    atom's rational coordinates to their values: the coefficient-monomial and
    variable powers, the real and imaginary parts of each rate monomial, and
    the offset weights."""
    out = []
    for t in e.terms:
        x = {(tag, s): p for tag, pairs in (("v", t.vpows), ("o", t.offs))
             for s, p in pairs}
        x.update((("r", v, pows, k), Fraction(q[k], q[2]))
                 for v, p in t.rates for pows, q in p.monos for k in (0, 1))
        for m in t.coeff.monos:
            out.append(({**x, **{("c", s): p for s, p in m[0]}},
                        t.with_coeff(Poly._canonical((m,)))))
    return out


def div_exact(num: Expr, den: Expr) -> Expr:
    """Exact division num/den; raises OutOfClassError when not representable.

    A divisor of several atoms divides by leading terms: exponents are written
    densely over the coordinates of num and den and ordered lexicographically.
    The ring is a domain, so in each coordinate an exact quotient's exponents
    lie in [min(num) - min(den), max(num) - max(den)]; a step outside that
    box proves the division inexact.  The leading term falls every round and
    the box holds finitely many reachable exponents, so the loop ends.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero expression")
    t = den.single_term()
    if t is not None and t.coeff.single() is not None:
        return _div_single(num, t)
    num_atoms, den_atoms = _atoms(num), _atoms(den)
    coords = sorted({c for x, _ in num_atoms + den_atoms for c in x})

    def dense(atoms):
        return {tuple(x.get(c, 0) for c in coords): a for x, a in atoms}

    divisor = dense(den_atoms)
    box = [(min(a) - min(b), max(a) - max(b))
           for a, b in zip(zip(*dense(num_atoms)), zip(*divisor))]
    lead = max(divisor)
    quotient, rem = Expr.zero(), num
    while rem.terms:
        rem_atoms = dense(_atoms(rem))
        r = max(rem_atoms)
        if not all(lo <= a - b <= hi for (lo, hi), a, b in zip(box, r, lead)):
            raise OutOfClassError("inexact expression division")
        q = _div_single(Expr([rem_atoms[r]]), divisor[lead])
        quotient, rem = quotient + q, rem - q * den
    return quotient


class LinEq:
    """One equation sum(coeffs[k] * k) + const = 0 in the unknown keys k."""

    __slots__ = ("coeffs", "const", "label")

    def __init__(self, coeffs: dict, const: Expr, label: str = ""):
        self.coeffs = coeffs          # unknown key -> Expr
        self.const = const
        self.label = label


def _term_number(t: Term):
    """The Gaussian-rational triple of t if t is a number, else None."""
    if t.vpows or t.rates or t.offs:
        return None
    return t.coeff.is_number()


def _pivot_quality(c: Expr):
    t = c.single_term()
    if t is None:
        return (2, len(c.terms))
    return (0, 0) if _term_number(t) is not None else (1, 0)


class Elimination:
    """The elimination of a linear system's coefficients, kept to be
    replayed on any right side.

    ``rows`` maps each row's unknown keys to their ``Expr`` coefficients.
    The pivot is the coefficient with the least (``_pivot_quality``, number
    of unknowns in its row, ``str`` of its key, row position); rows keep
    their order, so the choice, and with it ``free``, is the same on every
    run.  A row is scored once, when it is built, and a row without the
    pivot's unknown is left as it is.  Each step records, per row it
    rebuilds, its quotient by the pivot when ``div_exact`` finds one, and
    otherwise the fraction-free cross multiplication that keeps everything
    polynomial.  ``pivots`` lists the unknowns solved for, in pivot order.
    """

    def __init__(self, rows: Sequence[dict]):
        text: dict = {}       # key -> str(key)

        def scored(n: int, coeffs: dict):
            """(row index, coeffs, (quality, str(key), key) of its best pivot
            or None)"""
            coeffs = {k: c for k, c in coeffs.items() if c.terms}
            best = None
            for k, c in coeffs.items():
                s = text.get(k) or text.setdefault(k, str(k))
                cand = (_pivot_quality(c), s)
                if best is None or cand < best[:2]:
                    best = (*cand, k)
            return n, coeffs, best

        live = [scored(n, coeffs) for n, coeffs in enumerate(rows)]
        self.steps = []       # (key, row, coeffs of others, pivot, updates)
        while True:
            pick = None
            for i, (_n, coeffs, best) in enumerate(live):
                if best is not None:
                    cand = (best[0], len(coeffs), best[1], i)
                    if pick is None or cand < pick:
                        pick, k = cand, best[2]
            if pick is None:
                break
            p, others, _best = live.pop(pick[3])
            pivot_c = others.pop(k)
            updates = []      # (row, quotient or None, its coefficient)
            for i, (n, coeffs, best) in enumerate(live):
                c = coeffs.pop(k, None)
                if c is None:
                    continue
                keys = set(coeffs) | set(others)
                try:
                    factor = div_exact(c, pivot_c)
                    new = {kk: coeffs.get(kk, Expr.zero())
                           - factor * others.get(kk, Expr.zero())
                           for kk in keys}
                except OutOfClassError:
                    factor = None
                    new = {kk: pivot_c * coeffs.get(kk, Expr.zero())
                           - c * others.get(kk, Expr.zero()) for kk in keys}
                updates.append((n, factor, c))
                live[i] = scored(n, new)
            self.steps.append((k, p, others, pivot_c, updates))
        self.rest = [n for n, _coeffs, _best in live]
        self.pivots = [step[0] for step in self.steps]

    def solve(self, consts: Sequence[Expr]):
        """Replay the elimination on the right side ``consts`` (row i reads
        sum(coeff*unknown) + consts[i] = 0) and back-substitute.

        Returns (solution, free, leftovers): the solution dict, the unknowns
        that enter a pivot row but are never determined (the solution takes
        them as zero; sorted by ``str``), and (row, constant) for each row
        left with no unknown and a nonzero constant.
        """
        b = list(consts)
        for _k, p, _others, pivot_c, updates in self.steps:
            for n, factor, c in updates:
                b[n] = (b[n] - factor * b[p] if factor is not None
                        else pivot_c * b[n] - c * b[p])
        solution = {}
        free = set()
        for k, p, others, pivot_c, _updates in reversed(self.steps):
            val = b[p]
            for kk, c in others.items():
                if kk in solution:
                    val = val + c * solution[kk]
                else:
                    free.add(kk)
            solution[k] = -div_exact(val, pivot_c)
        leftovers = [(n, b[n]) for n in self.rest if not b[n].is_zero()]
        return solution, sorted(free, key=str), leftovers


def solve_linear_system(eqs: Sequence[LinEq]):
    """Solve sum(coeff*unknown) + const = 0 by symbolic elimination: the
    coefficients' ``Elimination`` replayed on the constants.

    Returns (solution, free, leftovers): the solution dict, the unknowns that
    enter a pivot row but are never determined (the solution takes them as
    zero; sorted by ``str``), and the inconsistent equations, each with no
    unknown and its reduced constant.  Elimination runs until no equation
    has a coefficient left, so every leftover is a bare nonzero constant.
    Pivots prefer rational numbers, then invertible single terms; otherwise
    a fraction-free step keeps everything polynomial and exact division is
    used at back-substitution.
    """
    solution, free, leftovers = Elimination([e.coeffs for e in eqs]).solve(
        [e.const for e in eqs])
    return solution, free, [LinEq({}, const, eqs[n].label)
                            for n, const in leftovers]
