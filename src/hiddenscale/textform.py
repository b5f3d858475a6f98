"""Deterministic text form for kernel expressions.

The printer emits a canonical, exact-rational rendering: terms in canonical
order, conjugate phase pairs recombined into cos/sin, exponentials printed as
``exp(rate*var)``.  ``parse_expr`` reads the same grammar back (it needs to be
told which names are independent variables, since everything else about a
symbol is positional).

Grammar (whitespace-insensitive)::

    expr    := ["-"] term (("+"|"-") term)*
    term    := factor ("*" factor)*
    factor  := rational | name ["^" ["-"] int] | func "(" expr ")" ["^" int]
             | "(" expr ")" ["^" ["-"] int]
    func    := "exp" | "cos" | "sin" | "cis"
    rational:= int ["/" int]
    name    := letter (letter|digit|"_")* ("'"|"~")*
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exprcore import Expr, OutOfClassError, Poly, Term, _rat_text


# ---------------------------------------------------------------------------
# Printing

def _mono_text(pows, q) -> str:
    re_c, im_c, den = q
    factors = []
    if im_c == 0:
        n = re_c
    elif re_c == 0:
        n = im_c
        factors.append("i")
    else:
        return "(" + _mono_text((), (re_c, 0, den)) + " + " \
            + _mono_text((), (0, im_c, den)) + ")*" \
            + "*".join(f"{s}^{k}" if k != 1 else s for s, k in pows)
    for s, k in pows:
        factors.append(f"{s}^{k}" if k != 1 else s)
    if not factors:
        return _rat_text(n, den)
    body = "*".join(factors)
    if n == den:
        return body
    if n == -den:
        return "-" + body
    return f"{_rat_text(n, den)}*{body}"


def join_signed(parts) -> str:
    """Join signed term texts with " + " / " - "; "0" when there are none."""
    out = ""
    for t in parts:
        if not out:
            out = t
        elif t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out or "0"


def poly_text(p: Poly) -> str:
    return join_signed(_mono_text(pows, q) for pows, q in p.monos)


def _linear_arg_text(freqs, offs) -> str:
    """Phase or rate argument: sum of poly*var products plus offsets."""
    parts = []
    for v, p in freqs:
        m = p.single()
        if m is not None and not m[0] and m[1][1] == 0:
            n, _, den = m[1]
            if n == den:
                parts.append(v)
            elif n == -den:
                parts.append("-" + v)
            else:
                parts.append(f"{_rat_text(n, den)}*{v}")
        elif m is not None and m[1][1] == 0:
            parts.append(f"{poly_text(p)}*{v}")
        else:
            parts.append(f"({poly_text(p)})*{v}")
    for s, c in offs:
        if c == 1:
            parts.append(s)
        elif c == -1:
            parts.append("-" + s)
        else:
            parts.append(f"{c}*{s}")
    return join_signed(parts)


def atom_text(coeff: Poly, factors) -> str:
    """coeff * factor strings, eliding unit coefficients."""
    num = coeff.is_number()
    if not factors:
        if coeff.single() is not None:
            return poly_text(coeff)
        return "(" + poly_text(coeff) + ")"
    body = "*".join(factors)
    if num == (1, 0, 1):
        return body
    if num == (-1, 0, 1):
        return "-" + body
    if coeff.single() is not None:
        return poly_text(coeff) + "*" + body
    return "(" + poly_text(coeff) + ")*" + body


def _base_factors(t: Term):
    factors = []
    for v, k in t.vpows:
        factors.append(f"{v}^{k}" if k != 1 else v)
    if t.rates:
        factors.append("exp(" + _linear_arg_text(t.rates, ()) + ")")
    return factors


def _phase_positive(t: Term) -> bool:
    for _, p in t.freqs:
        for _, (re_c, im_c, _den) in p.monos:
            if re_c:
                return re_c > 0
            if im_c:
                return im_c > 0
    for _, c in t.offs:
        if c:
            return c > 0
    return True


def expr_text(e: Expr) -> str:
    """Canonical text; conjugate pairs print as cos/sin, leftovers as cis."""
    plain = []       # atoms as (sortkey, text)
    groups: dict = {}
    for t in e.terms:
        if not t.freqs and not t.offs:
            plain.append((t.sort_key(), atom_text(t.coeff, _base_factors(t))))
            continue
        pos = _phase_positive(t)
        rep = t if pos else t.conj()
        key = rep.shape()
        slot = groups.setdefault(key, {})
        slot["+" if pos else "-"] = t
    atoms = list(plain)
    for key in groups:
        slot = groups[key]
        tp = slot.get("+")
        tm = slot.get("-")
        rep = tp if tp is not None else tm.conj()
        arg = _linear_arg_text(rep.freqs, rep.offs)
        base = _base_factors(rep)
        cp = tp.coeff if tp is not None else Poly()
        dm = slot["-"].coeff if tm is not None else Poly()
        # cp*e^{iP} + dm*e^{-iP} = (cp + dm)*cos(P) + i*(cp - dm)*sin(P)
        ccos = cp + dm
        csin = (cp - dm).scale(0, 1)
        if not ccos.is_zero():
            atoms.append((rep.sort_key() + ("cos",),
                          atom_text(ccos, base + [f"cos({arg})"])))
        if not csin.is_zero():
            atoms.append((rep.sort_key() + ("sin",),
                          atom_text(csin, base + [f"sin({arg})"])))
    atoms.sort(key=lambda kv: kv[0])
    return join_signed(t for _, t in atoms)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*['~]*)|(\^|\+|-|\*|/|\(|\)))")


class ExprSyntaxError(ValueError):
    pass


class _Parser:
    def __init__(self, text: str, variables):
        self.text = text
        self.variables = set(variables)
        self.toks = []
        self.cols = []          # 1-based column of each token
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ExprSyntaxError(f"bad token at: {text[pos:pos+20]!r}")
                break
            pos = m.end()
            self.toks.append(m.group(1) or m.group(2) or m.group(3))
            self.cols.append(m.start(m.lastindex) + 1)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, tok=None):
        got = self.peek()
        if got is None or (tok is not None and got != tok):
            raise ExprSyntaxError(f"expected {tok!r}, got {got!r} in {self.text!r}")
        self.i += 1
        return got

    def parse(self) -> Expr:
        e = self.sum_()
        if self.peek() is not None:
            raise ExprSyntaxError(f"trailing input {self.peek()!r} in {self.text!r}")
        return e

    def sum_(self) -> Expr:
        neg = False
        if self.peek() == "-":
            self.take()
            neg = True
        elif self.peek() == "+":
            self.take()
        e = self.term()
        if neg:
            e = -e
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            e = e + t if op == "+" else e - t
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek() == "*":
            self.take()
            e = e * self.factor()
        return e

    def _int(self) -> int:
        """The signed integer after the operator token just taken."""
        op, col = self.toks[self.i - 1], self.cols[self.i - 1]
        neg = False
        if self.peek() == "-":
            self.take()
            neg = True
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError(
                f"dangling {op!r} at column {col} of {self.text!r}")
        if not tok.isdigit():
            raise ExprSyntaxError(f"expected an integer after {op!r} at "
                                  f"column {col} of {self.text!r}, got {tok!r}")
        self.take()
        return -int(tok) if neg else int(tok)

    def factor(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError(f"unexpected end of input in {self.text!r}")
        if tok.isdigit():
            self.take()
            num = int(tok)
            if self.peek() == "/":
                self.take()
                den = self._int()
                return Expr.num(Fraction(num, den))
            q: Expr = Expr.num(num)
            return self._maybe_power(q)
        if tok == "(":
            self.take()
            e = self.sum_()
            self.take(")")
            return self._maybe_power(e)
        if tok in ("exp", "cos", "sin", "cis") and self.i + 1 < len(self.toks) \
                and self.toks[self.i + 1] == "(":
            self.take()
            self.take("(")
            arg = self.sum_()
            self.take(")")
            e = self._build_func(tok, arg)
            return self._maybe_power(e)
        if tok == "i":
            self.take()
            return Expr.num(0, 1)
        if re.match(r"[A-Za-z_]", tok):
            self.take()
            name = tok
            exp = 1
            if self.peek() == "^":
                self.take()
                exp = self._int()
            if name in self.variables:
                if exp < 0:
                    raise OutOfClassError(f"negative power of variable {name!r}")
                return Expr.var(name, exp)
            return Expr.sym(name, exp)
        raise ExprSyntaxError(f"unexpected token {tok!r} in {self.text!r}")

    def _maybe_power(self, e: Expr) -> Expr:
        if self.peek() == "^":
            self.take()
            return e ** self._int()
        return e

    def _build_func(self, func: str, arg: Expr) -> Expr:
        freqs, offs = _deconstruct_linear(arg, self.variables)
        if func == "exp":
            if offs:
                raise OutOfClassError(
                    "exp() argument must be a sum of rate*variable products")
            out = Expr.num(1)
            for v, p in freqs.items():
                out = out * Expr.exp(v, p)
            return out
        builder = {"cos": Expr.cos, "sin": Expr.sin, "cis": Expr.cis}[func]
        return builder(freqs, offs)


def _deconstruct_linear(arg: Expr, variables):
    """Split a parsed argument into per-variable polys and rational offsets."""
    freqs: dict = {}
    offs: dict = {}
    for t in arg.terms:
        if t.rates or t.freqs or t.offs:
            raise OutOfClassError("nested exponentials in an exponent argument")
        if len(t.vpows) == 0:
            m = t.coeff.single()
            if m is None:
                raise OutOfClassError("exponent argument must be linear")
            pows, (re_c, im_c, den) = m
            if im_c != 0:
                raise OutOfClassError("complex weight in exponent argument")
            syms = [s for s, k in pows]
            if len(syms) != 1 or pows[0][1] != 1:
                raise OutOfClassError(
                    "offset piece must be rational*symbol in exponent argument")
            s = syms[0]
            offs[s] = offs.get(s, 0) + Fraction(re_c, den)
        elif len(t.vpows) == 1 and t.vpows[0][1] == 1:
            v = t.vpows[0][0]
            freqs[v] = freqs[v] + t.coeff if v in freqs else t.coeff
        else:
            raise OutOfClassError("exponent argument must be linear in variables")
    return ({v: p for v, p in freqs.items() if not p.is_zero()},
            {s: c for s, c in offs.items() if c})


def parse_expr(text: str, variables=()) -> Expr:
    """Parse canonical text into an Expr; ``variables`` names the vars."""
    return _Parser(text, variables).parse()
