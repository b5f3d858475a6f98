"""Exact symbolic kernel for the exp-poly-trig expression class.

An expression is a finite sum of terms of the form

    coeff(params) * prod_v v**p_v * exp(sum_v rate_v(params)*v)
                  * exp(i*(sum_v freq_v(params)*v + sum_s c_s*s))

where ``coeff`` is a Laurent polynomial in parameter symbols with exact
Gaussian-rational coefficients, ``rate_v`` and ``freq_v`` are polynomials in
parameters (affine in practice), the ``p_v`` are nonnegative integers and the
phase-offset weights ``c_s`` are rationals.  Trigonometric content lives
exclusively in the complex phases; real expressions are stored as conjugate
pairs of terms and the printer recombines them into cos/sin.

Every constructor normalizes, so two expressions are symbolically equal iff
they compare equal.  Values are immutable and safe to share between threads;
all operations are pure.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

RatLike = Union[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


class OutOfClassError(ValueError):
    """A requested operation would leave the closed expression class."""


# ---------------------------------------------------------------------------
# Gaussian rationals, stored as (re, im) Fraction pairs.

def _qmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _qdiv(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    if d == 0:
        raise ZeroDivisionError("division by zero Gaussian rational")
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def _qpow(a, n: int):
    if n < 0:
        return _qdiv((ONE, ZERO), _qpow(a, -n))
    out = (ONE, ZERO)
    for _ in range(n):
        out = _qmul(out, a)
    return out


I_UNIT = (ZERO, ONE)

# ---------------------------------------------------------------------------
# Laurent polynomials over parameter symbols.

Pows = tuple  # tuple[tuple[str, int], ...], sorted, no zero exponents
Mono = tuple  # (Pows, re: Fraction, im: Fraction)


def _pows_mul(a: Pows, b: Pows) -> Pows:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for s, k in b:
        n = d.get(s, 0) + k
        if n:
            d[s] = n
        else:
            del d[s]
    return tuple(sorted(d.items()))


class Poly:
    """Laurent polynomial in parameter symbols, Gaussian-rational coefficients."""

    __slots__ = ("monos", "_hash")

    def __init__(self, monos: Iterable[Mono] = ()):
        acc: dict = {}
        for pows, re, im in monos:
            if any(k == 0 for _, k in pows):
                d = {}
                for s, k in pows:
                    n = d.get(s, 0) + k
                    d[s] = n
                pows = tuple(sorted((s, k) for s, k in d.items() if k))
            c = acc.get(pows)
            if c is None:
                acc[pows] = (re, im)
            else:
                acc[pows] = (c[0] + re, c[1] + im)
        self.monos = tuple(
            (p, c[0], c[1]) for p, c in sorted(acc.items()) if c[0] or c[1]
        )
        self._hash = None

    # -- construction -------------------------------------------------------
    @staticmethod
    def num(re: RatLike, im: RatLike = 0) -> "Poly":
        return Poly([((), Fraction(re), Fraction(im))])

    @staticmethod
    def sym(name: str, exp: int = 1) -> "Poly":
        return Poly([(((name, exp),), ONE, ZERO)])

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.monos

    def is_real(self) -> bool:
        return all(im == 0 for _, _, im in self.monos)

    def is_number(self):
        """Return the Gaussian-rational value if constant, else None."""
        if not self.monos:
            return (ZERO, ZERO)
        if len(self.monos) == 1 and not self.monos[0][0]:
            return (self.monos[0][1], self.monos[0][2])
        return None

    def single(self):
        """Return the only monomial if this is a monomial, else None."""
        return self.monos[0] if len(self.monos) == 1 else None

    def symbols(self) -> set:
        out = set()
        for pows, _, _ in self.monos:
            out.update(s for s, _ in pows)
        return out

    # -- ring ops ------------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.monos + other.monos)

    def __neg__(self) -> "Poly":
        return Poly([(p, -re, -im) for p, re, im in self.monos])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out = []
        for pa, ra, ia in self.monos:
            for pb, rb, ib in other.monos:
                re, im = _qmul((ra, ia), (rb, ib))
                out.append((_pows_mul(pa, pb), re, im))
        return Poly(out)

    def scale(self, re: RatLike, im: RatLike = 0) -> "Poly":
        q = (Fraction(re), Fraction(im))
        return Poly([(p, *_qmul((r, i), q)) for p, r, i in self.monos])

    def conj(self) -> "Poly":
        return Poly([(p, re, -im) for p, re, im in self.monos])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            m = self.single()
            if m is None:
                raise OutOfClassError("cannot invert a multi-term polynomial")
            pows, re, im = m
            cre, cim = _qdiv((ONE, ZERO), (re, im))
            inv = Poly([(tuple((s, -k) for s, k in pows), cre, cim)])
            return inv ** (-n)
        out = Poly.num(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.monos == other.monos

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.monos)
        return self._hash

    # -- calculus / structure -------------------------------------------------
    def diff(self, sym: str) -> "Poly":
        out = []
        for pows, re, im in self.monos:
            d = dict(pows)
            k = d.get(sym, 0)
            if not k:
                continue
            if k == 1:
                del d[sym]
            else:
                d[sym] = k - 1
            out.append((tuple(sorted(d.items())), k * re, k * im))
        return Poly(out)

    def order_range(self, sym: str):
        """(min, max) exponent of sym across monomials (0 if absent)."""
        if not self.monos:
            return (0, 0)
        ks = [dict(p).get(sym, 0) for p, _, _ in self.monos]
        return (min(ks), max(ks))

    def coeff_of(self, sym: str, j: int) -> "Poly":
        """Coefficient polynomial of sym**j (sym removed)."""
        out = []
        for pows, re, im in self.monos:
            d = dict(pows)
            if d.get(sym, 0) == j:
                d.pop(sym, None)
                out.append((tuple(sorted(d.items())), re, im))
        return Poly(out)

    def split_by(self, sym: str):
        """Split into (free of sym, containing sym)."""
        free, dep = [], []
        for m in self.monos:
            (dep if dict(m[0]).get(sym, 0) else free).append(m)
        return Poly(free), Poly(dep)

    def subs_num(self, env: Mapping[str, RatLike]) -> "Poly":
        out = []
        for pows, re, im in self.monos:
            q = (re, im)
            keep = []
            for s, k in pows:
                if s in env:
                    q = _qmul(q, _qpow((Fraction(env[s]), ZERO), k))
                else:
                    keep.append((s, k))
            out.append((tuple(keep), q[0], q[1]))
        return Poly(out)

    def rename(self, old: str, new: str) -> "Poly":
        out = []
        for pows, re, im in self.monos:
            d = {}
            for s, k in pows:
                s2 = new if s == old else s
                d[s2] = d.get(s2, 0) + k
            out.append((tuple(sorted((s, k) for s, k in d.items() if k)), re, im))
        return Poly(out)

    def eval(self, env: Mapping[str, float]) -> complex:
        total = 0j
        for pows, re, im in self.monos:
            v = complex(re) + 1j * complex(im)
            for s, k in pows:
                try:
                    v *= env[s] ** k
                except KeyError:
                    raise KeyError(f"no value for symbol {s!r}")
            total += v
        return total

    def key(self):
        return tuple((p, str(re), str(im)) for p, re, im in self.monos)

    def __repr__(self):
        from . import textform

        return f"Poly({textform.poly_text(self)})"


P_ZERO = Poly()
P_ONE = Poly.num(1)

# ---------------------------------------------------------------------------
# Terms.

SlotPolys = tuple  # tuple[tuple[str, Poly], ...] sorted by symbol


def _slot_make(d: Mapping[str, Poly]) -> SlotPolys:
    return tuple(sorted((v, p) for v, p in d.items() if not p.is_zero()))


def _slot_add(a: SlotPolys, b: SlotPolys) -> SlotPolys:
    d = dict(a)
    for v, p in b:
        d[v] = d[v] + p if v in d else p
    return _slot_make(d)


def _offs_make(d: Mapping[str, Fraction]) -> tuple:
    return tuple(sorted((s, c) for s, c in d.items() if c))


class Term:
    """One canonical summand; compare/merge on everything but the coefficient."""

    __slots__ = ("coeff", "vpows", "rates", "freqs", "offs", "_key", "_hash")

    def __init__(self, coeff: Poly, vpows: Pows = (), rates: SlotPolys = (),
                 freqs: SlotPolys = (), offs: tuple = ()):
        for _, p in vpows:
            if p < 0:
                raise OutOfClassError("negative power of an independent variable")
        self.coeff = coeff
        self.vpows = vpows
        self.rates = rates
        self.freqs = freqs
        self.offs = offs
        self._key = None
        self._hash = None

    def shape(self):
        """Everything that identifies the basis function of this term."""
        return (self.vpows,
                tuple((v, p.key()) for v, p in self.rates),
                tuple((v, p.key()) for v, p in self.freqs),
                self.offs)

    def sort_key(self):
        if self._key is None:
            self._key = (self.shape(), self.coeff.key())
        return self._key

    def __eq__(self, other) -> bool:
        return (isinstance(other, Term) and self.coeff == other.coeff
                and self.shape() == other.shape())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.coeff, self.shape()))
        return self._hash

    def vpow(self, v: str) -> int:
        return dict(self.vpows).get(v, 0)

    def rate(self, v: str) -> Poly:
        return dict(self.rates).get(v, P_ZERO)

    def freq(self, v: str) -> Poly:
        return dict(self.freqs).get(v, P_ZERO)

    def mul(self, other: "Term") -> "Term":
        return Term(self.coeff * other.coeff,
                    _pows_mul(self.vpows, other.vpows),
                    _slot_add(self.rates, other.rates),
                    _slot_add(self.freqs, other.freqs),
                    _offs_make({**dict(self.offs),
                                **{s: dict(self.offs).get(s, ZERO) + c
                                   for s, c in other.offs}}))

    def conj(self) -> "Term":
        return Term(self.coeff.conj(), self.vpows,
                    self.rates,
                    tuple((v, -p) for v, p in self.freqs),
                    tuple((s, -c) for s, c in self.offs))

    def symbols(self) -> set:
        out = self.coeff.symbols()
        for v, p in self.vpows:
            out.add(v)
        for v, p in self.rates:
            out.add(v)
            out |= p.symbols()
        for v, p in self.freqs:
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
        for v, p in self.freqs:
            arg += 1j * p.eval(env) * env[v]
        for s, c in self.offs:
            arg += 1j * complex(c) * env[s]
        return val * cmath.exp(arg) if arg else val

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
            if t.coeff.is_zero():
                continue
            sh = t.shape()
            if sh in merged:
                merged[sh] = Term(merged[sh].coeff + t.coeff, t.vpows, t.rates,
                                  t.freqs, t.offs)
            else:
                merged[sh] = t
        out = [t for t in merged.values() if not t.coeff.is_zero()]
        out.sort(key=Term.sort_key)
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
        fs = {v: (p if isinstance(p, Poly) else Poly.num(p)) for v, p in freqs.items()}
        return Term(P_ONE, (), (), _slot_make(fs),
                    _offs_make({s: Fraction(c) for s, c in offs.items()}))

    @staticmethod
    def cis(freqs: Mapping[str, "Poly | RatLike"] = (),
            offs: Mapping[str, RatLike] = ()) -> "Expr":
        """exp(i*(sum freq*var + sum c*sym)); building block for cos/sin."""
        return Expr([Expr._phase(dict(freqs or {}), dict(offs or {}))])

    @staticmethod
    def cos(freqs: Mapping[str, "Poly | RatLike"] = (),
            offs: Mapping[str, RatLike] = ()) -> "Expr":
        t = Expr._phase(dict(freqs or {}), dict(offs or {}))
        half = Term(Poly.num(Fraction(1, 2)))
        return Expr([half.mul(t), half.mul(t.conj())])

    @staticmethod
    def sin(freqs: Mapping[str, "Poly | RatLike"] = (),
            offs: Mapping[str, RatLike] = ()) -> "Expr":
        t = Expr._phase(dict(freqs or {}), dict(offs or {}))
        mih = Term(Poly.num(0, Fraction(-1, 2)))   # -i/2
        pih = Term(Poly.num(0, Fraction(1, 2)))
        return Expr([mih.mul(t), pih.mul(t.conj())])

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
        return Expr(self.terms + _as_expr(other).terms)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr([Term(-t.coeff, t.vpows, t.rates, t.freqs, t.offs)
                     for t in self.terms])

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
        return Expr([Term(t.coeff.scale(re, im), t.vpows, t.rates, t.freqs, t.offs)
                     for t in self.terms])

    def inverse(self) -> "Expr":
        t = self.single_term()
        if t is None:
            raise OutOfClassError("only single-term expressions are invertible")
        if any(p for _, p in t.vpows):
            raise OutOfClassError("cannot invert a variable power inside the class")
        c = t.coeff ** (-1)
        return Expr([Term(c, (), tuple((v, -p) for v, p in t.rates),
                          tuple((v, -p) for v, p in t.freqs),
                          tuple((s, -c2) for s, c2 in t.offs))])

    def conj(self) -> "Expr":
        return Expr([t.conj() for t in self.terms])

    def real(self) -> "Expr":
        return (self + self.conj()).scale(Fraction(1, 2))

    def imag(self) -> "Expr":
        return (self - self.conj()).scale(0, Fraction(-1, 2))

    def __eq__(self, other) -> bool:
        return isinstance(other, Expr) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(t.sort_key() for t in self.terms))
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
                d = dict(t.vpows)
                if k == 1:
                    del d[s]
                else:
                    d[s] = k - 1
                out.append(Term(t.coeff.scale(k), tuple(sorted(d.items())),
                                t.rates, t.freqs, t.offs))
            dc = t.coeff.diff(s)
            if not dc.is_zero():
                out.append(Term(dc, t.vpows, t.rates, t.freqs, t.offs))
            # d/ds of the exponent as (factor, variable or None) pairs; the
            # phase pieces carry a factor i
            grads = [(t.rate(s), None)] + [(p.diff(s), v) for v, p in t.rates]
            phase = [(t.freq(s), None)] + [(p.diff(s), v) for v, p in t.freqs]
            c = dict(t.offs).get(s)
            if c:
                phase.append((Poly.num(c), None))
            grads += [(g.scale(0, 1), v) for g, v in phase if not g.is_zero()]
            for g, v in grads:
                if not g.is_zero():
                    vpows = _pows_mul(t.vpows, ((v, 1),)) if v else t.vpows
                    out.append(Term(t.coeff * g, vpows, t.rates, t.freqs,
                                    t.offs))
        return Expr(out)

    def eval(self, env: Mapping[str, float]) -> complex:
        return sum((t.eval(env) for t in self.terms), 0j)

    # -- substitution family ------------------------------------------------------
    def rename(self, old: str, new: str) -> "Expr":
        """Uniform symbol rename across coefficients, powers, rates and phases."""
        out = []
        for t in self.terms:
            vp = {}
            for v, p in t.vpows:
                v2 = new if v == old else v
                vp[v2] = vp.get(v2, 0) + p
            rates = {}
            for v, p in t.rates:
                v2 = new if v == old else v
                p = p.rename(old, new)
                rates[v2] = rates[v2] + p if v2 in rates else p
            freqs = {}
            for v, p in t.freqs:
                v2 = new if v == old else v
                p = p.rename(old, new)
                freqs[v2] = freqs[v2] + p if v2 in freqs else p
            offs = {}
            for s, c in t.offs:
                s2 = new if s == old else s
                offs[s2] = offs.get(s2, ZERO) + c
            out.append(Term(t.coeff.rename(old, new),
                            tuple(sorted((v, p) for v, p in vp.items() if p)),
                            _slot_make(rates), _slot_make(freqs), _offs_make(offs)))
        return Expr(out)

    def subs_param(self, sym: str, value) -> "Expr":
        """Replace a parameter symbol by an in-class expression.

        Negative powers of ``sym`` require the replacement to be invertible
        (a single term).  The symbol must not occur in rates or phases unless
        the replacement is a plain rational number.
        """
        if isinstance(value, (int, Fraction)):
            return self._subs_param_num(sym, Fraction(value))
        value = _as_expr(value)
        out = Expr.zero()
        for t in self.terms:
            if any(sym in p.symbols() for _, p in t.rates) or \
               any(sym in p.symbols() for _, p in t.freqs) or \
               any(s == sym for s, _ in t.offs):
                raise OutOfClassError(
                    f"symbol {sym!r} occurs in an exponent; only numeric "
                    "substitution is possible there")
            lo, hi = t.coeff.order_range(sym)
            for j in range(lo, hi + 1):
                c = t.coeff.coeff_of(sym, j)
                if c.is_zero():
                    continue
                piece = Expr([Term(c, t.vpows, t.rates, t.freqs, t.offs)])
                out = out + piece * (value ** j)
        return out

    def _subs_param_num(self, sym: str, q: Fraction) -> "Expr":
        out = []
        for t in self.terms:
            coeff = t.coeff.subs_num({sym: q})
            # variable-style use at zero: exp(rate*0) = 1 drops the slot
            rates = _slot_make({v: p.subs_num({sym: q}) for v, p in t.rates
                                if q or v != sym})
            freqs = _slot_make({v: p.subs_num({sym: q}) for v, p in t.freqs
                                if q or v != sym})
            offs = dict(t.offs)
            if sym in offs:
                if q != 0:
                    raise OutOfClassError(
                        f"phase offset {sym!r} can only be set to 0 numerically")
                del offs[sym]
            if q == 0 and dict(t.vpows).get(sym):
                continue  # variable-style use: power of zero kills the term
            out.append(Term(coeff, t.vpows, rates, freqs, _offs_make(offs)))
        return Expr(out)

    def shift_phase(self, sym: str, offs: Mapping[str, RatLike] = (),
                    freqs: Mapping[str, "Poly | RatLike"] = (),
                    pi_halves: int = 0) -> "Expr":
        """Replace phase offset ``sym`` by a linear form plus a multiple of pi/2.

        sym -> sum(offs) + sum(freqs * var) + pi_halves * pi/2.
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
            rot = c * pi_halves
            if rot.denominator != 1:
                raise OutOfClassError(
                    "phase shift leaves the class: non-integer multiple of pi/2")
            coeff = t.coeff
            q = _qpow(I_UNIT, int(rot) % 4)
            coeff = Poly([(p, *_qmul((re, im), q)) for p, re, im in coeff.monos])
            for s, w in offs.items():
                od[s] = od.get(s, ZERO) + c * w
            fd = dict(t.freqs)
            for v, p in freqs.items():
                add = p.scale(c)
                fd[v] = fd[v] + add if v in fd else add
            out.append(Term(coeff, t.vpows, t.rates, _slot_make(fd), _offs_make(od)))
        return Expr(out)

    # -- order bookkeeping ---------------------------------------------------------
    def collect_order(self, param: str, j: int) -> "Expr":
        """Coefficient of param**j, series-expanding exponents that carry param.

        Coefficients must be polynomial (no negative powers) in ``param``.
        """
        out = []
        for t in self.terms:
            lo, _hi = t.coeff.order_range(param)
            if lo < 0:
                raise OutOfClassError(
                    f"coefficient is not polynomial in {param!r}")
            for min_order, term in _expand_param_exponents(t, param, j):
                if min_order > j:
                    continue
                c = term.coeff.coeff_of(param, j)
                if not c.is_zero():
                    out.append(Term(c, term.vpows, term.rates, term.freqs,
                                    term.offs))
        return Expr(out)

    def truncate_order(self, param: str, k: int) -> "Expr":
        """Sum of param**j * collect_order(j) for j = 0..k."""
        out = Expr.zero()
        p = Expr.sym(param)
        for j in range(k + 1):
            out = out + (p ** j) * self.collect_order(param, j)
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
                c.append(Term(cc, t.vpows, t.rates, t.freqs, t.offs))
            if not dd.is_zero():
                d.append(Term(dd, t.vpows, t.rates, t.freqs, t.offs))
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
            bfreq = tuple((v, p) for v, p in t.freqs if v in vs)
            ofreq = tuple((v, p) for v, p in t.freqs if v not in vs)
            basis = Term(P_ONE, bvp, brate, bfreq, ())
            rest = Term(t.coeff, ovp, orate, ofreq, t.offs)
            groups.setdefault(basis.shape(), [basis, []])[1].append(rest)
        out = []
        for shape in sorted(groups):
            basis, rests = groups[shape]
            out.append((basis, Expr(rests)))
        return out

    def factor_out_unit_phase(self) -> "Expr":
        """Multiply by a unit phase so some term has empty offsets/freq phase.

        Used before splitting an equation into real and imaginary parts; the
        equation set {E=0} is unchanged by a unit-phase factor.
        """
        if not self.terms:
            return self
        best = min(self.terms, key=lambda t: (len(t.offs) + len(t.freqs),
                                              t.sort_key()))
        if not best.offs and not best.freqs:
            return self
        unit = Expr([Term(P_ONE, (), (),
                          tuple((v, -p) for v, p in best.freqs),
                          tuple((s, -c) for s, c in best.offs))])
        return self * unit


def _expand_param_exponents(t: Term, param: str, jmax: int):
    """Expand exp factors whose rate/frequency contains ``param``.

    Yields (order_consumed, Term) pairs with the param-dependent exponent
    pieces replaced by their series truncated at total order jmax.
    """
    pieces = [(0, Term(t.coeff, t.vpows, (), (), t.offs))]
    for v, p in t.rates:
        free, dep = p.split_by(param)
        base = Term(P_ONE, (), _slot_make({v: free}), (), ())
        pieces = [(o, pt.mul(base)) for o, pt in pieces]
        if not dep.is_zero():
            pieces = _series_mul(pieces, v, dep, param, jmax, imag=False)
    for v, p in t.freqs:
        free, dep = p.split_by(param)
        base = Term(P_ONE, (), (), _slot_make({v: free}), ())
        pieces = [(o, pt.mul(base)) for o, pt in pieces]
        if not dep.is_zero():
            pieces = _series_mul(pieces, v, dep, param, jmax, imag=True)
    return pieces


def _series_mul(pieces, v, dep: Poly, param: str, jmax: int, imag: bool):
    lo, _ = dep.order_range(param)
    if lo < 1:
        lo = 1
    out = []
    for order, pt in pieces:
        fact = 1
        for m in range(0, jmax + 1):
            if m:
                fact *= m
            if order + m * lo > jmax:
                break
            c = dep ** m
            if imag and m % 4:
                q = _qpow(I_UNIT, m)
                c = Poly([(pw, *_qmul((re, im), q)) for pw, re, im in c.monos])
            mono = Term(c.scale(Fraction(1, fact)), ((v, m),) if m else (), (), (), ())
            out.append((order + m * lo, pt.mul(mono)))
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
    d = dict(t.vpows)
    del d[v]
    d[mu] = d.get(mu, 0) + k
    return Term(t.coeff, tuple(sorted(d.items())), t.rates, t.freqs, t.offs)


# ---------------------------------------------------------------------------
# Exact linear systems with Expr coefficients.

def _div_single(e: Expr, t: Term) -> Expr:
    if not any(p for _, p in t.vpows):
        return e * Expr([t]).inverse()
    # variable powers present: divide term by term
    m = t.coeff.single()
    if m is None:
        raise OutOfClassError("division by multi-term coefficient")
    pows, re_c, im_c = m
    inv_c = Poly([(tuple((s, -k) for s, k in pows),
                   *_qdiv((ONE, ZERO), (re_c, im_c)))])
    out = []
    for a in e.terms:
        vp = dict(a.vpows)
        for v, p in t.vpows:
            np_ = vp.get(v, 0) - p
            if np_ < 0:
                raise OutOfClassError("inexact division by variable power")
            if np_:
                vp[v] = np_
            else:
                vp.pop(v, None)
        rates = dict(a.rates)
        for v, p in t.rates:
            rates[v] = rates.get(v, Poly()) - p
        freqs = dict(a.freqs)
        for v, p in t.freqs:
            freqs[v] = freqs.get(v, Poly()) - p
        offs = dict(a.offs)
        for s, c in t.offs:
            offs[s] = offs.get(s, ZERO) - c
        out.append(Term(a.coeff * inv_c,
                        tuple(sorted((v, p) for v, p in vp.items() if p)),
                        _slot_make(rates), _slot_make(freqs), _offs_make(offs)))
    return Expr(out)


def _atoms(e: Expr):
    """Terms split to single-monomial coefficients, in canonical order."""
    out = []
    for t in e.terms:
        for m in t.coeff.monos:
            out.append(Term(Poly([m]), t.vpows, t.rates, t.freqs, t.offs))
    out.sort(key=Term.sort_key)
    return out


def _natoms(e: Expr) -> int:
    return sum(len(t.coeff.monos) for t in e.terms)


def div_exact(num: Expr, den: Expr) -> Expr:
    """Exact division num/den; raises OutOfClassError when not representable."""
    if den.is_zero():
        raise ZeroDivisionError("division by zero expression")
    t = den.single_term()
    if t is not None and t.coeff.single() is not None:
        return _div_single(num, t)
    # greedy multivariate division against leading atoms
    den_atoms = _atoms(den)
    quotient = Expr.zero()
    rem = num
    guard = 4 * (_natoms(num) + 1) * (_natoms(den) + 1)
    while not rem.is_zero() and guard:
        guard -= 1
        progressed = False
        rem_atoms = _atoms(rem)
        for pick_r in (rem_atoms[-1], rem_atoms[0]):
            for pick_d in (den_atoms[-1], den_atoms[0]):
                try:
                    q = _div_single(Expr([pick_r]), pick_d)
                except OutOfClassError:
                    continue
                new_rem = rem - q * den
                if _natoms(new_rem) < _natoms(rem) + _natoms(den):
                    quotient = quotient + q
                    rem = new_rem
                    progressed = True
                    break
            if progressed:
                break
        if not progressed:
            raise OutOfClassError("inexact or unsupported expression division")
    if not rem.is_zero():
        raise OutOfClassError("inexact expression division")
    return quotient


class LinEq:
    """One equation sum(coeffs[k] * k) + const = 0 in the unknown keys k."""

    __slots__ = ("coeffs", "const", "label")

    def __init__(self, coeffs: dict, const: Expr, label: str = ""):
        self.coeffs = coeffs          # unknown key -> Expr
        self.const = const
        self.label = label

    def prune(self):
        self.coeffs = {k: c for k, c in self.coeffs.items() if not c.is_zero()}
        return self


def _pivot_quality(c: Expr):
    t = c.single_term()
    if t is None:
        return (2, len(c.terms))
    if not t.vpows and not t.rates and not t.freqs and not t.offs \
            and t.coeff.is_number() is not None:
        return (0, 0)
    return (1, 0)


def solve_linear_system(eqs: Sequence[LinEq]):
    """Solve sum(coeff*unknown) + const = 0 by symbolic elimination.

    Returns (solution, free, leftovers): the solution dict, the unknowns that
    enter a pivot row but are never determined (the solution takes them as
    zero; sorted by ``str``), and the inconsistent equations.  Elimination
    runs until no equation has a coefficient left, so every leftover is a
    bare nonzero constant.  Pivots prefer rational numbers, then invertible
    single terms; otherwise a fraction-free step keeps everything polynomial
    and exact division is used at back-substitution.
    """
    eqs = [LinEq(dict(e.coeffs), e.const, e.label).prune() for e in eqs]
    solved_rows = []          # (key, coeffs-of-others, const, pivot Expr)
    while True:
        best = None
        for i, e in enumerate(eqs):
            for k, c in e.coeffs.items():
                q = _pivot_quality(c)
                cand = (q, len(e.coeffs), str(k), i)
                if best is None or cand < best[0]:
                    best = (cand, i, k)
        if best is None:
            break
        (_q, _n, _s, _i), i, k = best
        pivot_eq = eqs.pop(i)
        pivot_c = pivot_eq.coeffs.pop(k)
        solved_rows.append((k, pivot_eq.coeffs, pivot_eq.const, pivot_c,
                            pivot_eq.label))
        new_eqs = []
        for e in eqs:
            c = e.coeffs.pop(k, None)
            if c is None or c.is_zero():
                new_eqs.append(e.prune())
                continue
            try:
                factor = div_exact(c, pivot_c)
                coeffs = {kk: e.coeffs.get(kk, Expr.zero())
                          - factor * pivot_eq.coeffs.get(kk, Expr.zero())
                          for kk in set(e.coeffs) | set(pivot_eq.coeffs)}
                const = e.const - factor * pivot_eq.const
            except OutOfClassError:
                coeffs = {kk: pivot_c * e.coeffs.get(kk, Expr.zero())
                          - c * pivot_eq.coeffs.get(kk, Expr.zero())
                          for kk in set(e.coeffs) | set(pivot_eq.coeffs)}
                const = pivot_c * e.const - c * pivot_eq.const
            new_eqs.append(LinEq(coeffs, const, e.label).prune())
        eqs = new_eqs
    solution = {}
    free = set()
    for k, others, const, pivot_c, _label in reversed(solved_rows):
        val = const
        for kk, c in others.items():
            if kk in solution:
                val = val + c * solution[kk]
            elif not c.is_zero():
                free.add(kk)
        solution[k] = -div_exact(val, pivot_c)
    leftovers = [e for e in eqs if not e.const.is_zero()]
    return solution, sorted(free, key=str), leftovers
