"""Kernel unit tests and randomized algebraic properties."""

import math
import random
from pathlib import Path
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiddenscale import cli, exprcore, ftflow, numlab, pertseries, pertsym
from hiddenscale.exprcore import (Expr, LinEq, OutOfClassError, Poly, Term,
                                  _merge, _negated, _qadd, _qdiv, _qmul, _qnum,
                                  _qpow, _rat_text, _series_mul, _slot_make,
                                  _without, classify_divergent,
                                  compile_function, div_exact,
                                  evaluator_rhs, explicit_ode_rhs, paint_term,
                                  product_upto, solve_linear_system)
from hiddenscale.specfile import parse_spec
from hiddenscale.switchback import SwitchbackProblem
from hiddenscale.textform import expr_text, parse_expr


def exp_t(rate=-1):
    return Expr.exp("tau", rate)


class TestNormalize:
    def test_product_to_sum(self):
        lhs = Expr.sin({"t": F(1, 2)}, {"th": 1}) * Expr.cos({"t": F(1, 2)},
                                                             {"th": 1})
        assert lhs == Expr.sin({"t": 1}, {"th": 2}).scale(F(1, 2))

    def test_rate_addition(self):
        e = exp_t(-1) * Expr.exp("tau", Poly.sym("eps").scale(-1)) \
            - Expr.exp("tau", Poly.num(-1) - Poly.sym("eps"))
        assert e.is_zero()

    def test_like_term_merge(self):
        tau = Expr.var("tau")
        e = Expr.sym("A") * tau * exp_t() + Expr.sym("B") * tau * exp_t()
        assert len(e.terms) == 1

    def test_idempotent(self):
        e = Expr.sym("A") + Expr.sym("B") * exp_t()
        n = Expr(e.terms)
        assert n == e and Expr(n.terms) == n

    def test_zero_terms_dropped(self):
        e = Expr.sym("A") - Expr.sym("A")
        assert e.is_zero() and e.terms == ()


class TestDiff:
    def test_product_rule(self):
        tau = Expr.var("tau")
        assert (tau * exp_t()).diff("tau") == exp_t() - tau * exp_t()

    def test_zeroth_order_series(self):
        e = Expr.sym("A") + Expr.sym("B") * exp_t()
        assert e.diff("tau") == -(Expr.sym("B") * exp_t())

    def test_chain_rule_phase(self):
        e = Expr.sym("R") * Expr.cos({"t": F(1, 2)}, {"theta": 1})
        want = (Expr.sym("R")
                * Expr.sin({"t": F(1, 2)}, {"theta": 1})).scale(F(-1, 2))
        assert e.diff("t") == want

    def test_param_derivative(self):
        e = Expr.sym("A", 2) * Expr.var("x")
        assert e.diff("A") == Expr.sym("A").scale(2) * Expr.var("x")


class TestSubstitute:
    def test_promotion_then_diff(self):
        # A and the offset th are functions of mu; B is not
        e = Expr.sym("A") * Expr.cos({"mu": 1}, {"th": 1}) + Expr.sym("B")
        d = e.diff("mu", {"A": "A'", "th": "th'"})
        want = (Expr.sym("A'") * Expr.cos({"mu": 1}, {"th": 1})
                - Expr.sym("A") * (1 + Expr.sym("th'"))
                * Expr.sin({"mu": 1}, {"th": 1}))
        assert d == want
        assert e.diff("mu") == -Expr.sym("A") * Expr.sin({"mu": 1}, {"th": 1})

    def test_painting_single_term(self):
        term = (Expr.sym("eps") * Expr.var("tau") * exp_t()).terms[0]
        painted = paint_term(term, "tau", "mu")
        assert Expr([painted]) == Expr.sym("eps") * Expr.var("mu") * exp_t()

    def test_out_of_class_rejected(self):
        e = Expr.sym("A") * Expr.exp("tau", Poly.sym("k"))
        with pytest.raises(OutOfClassError):
            e.subs_param("k", Expr.sym("B"))
        with pytest.raises(OutOfClassError):
            Expr.cos({}, {"th": 1}).subs_param("th", 1)

    def test_variable_at_zero(self):
        # exp(-mu)*cos(mu) -> 1 and the secular mu*exp(-mu) -> 0
        e = Expr.sym("A") * Expr.exp("mu", -1) * (Expr.cos({"mu": 1})
                                                 + Expr.var("mu"))
        assert e.subs_param("mu", 0) == Expr.sym("A")

    def test_variable_at_nonzero_number_rejected(self):
        # x^2*exp(-x) at x = 1 leaves the class; it used to come back as is
        with pytest.raises(OutOfClassError):
            (Expr.var("x", 2) * Expr.exp("x", -1)).subs_param("x", 1)
        with pytest.raises(OutOfClassError):
            Expr.cos({"x": 1}).subs_param("x", 2)

    def test_param_to_expr(self):
        e = Expr.sym("A", 2)
        r = e.subs_param("A", Expr.sym("B") + Expr.num(1))
        assert r == Expr.sym("B", 2) + Expr.sym("B").scale(2) + Expr.num(1)

    def test_negative_power_needs_invertible(self):
        e = Expr.sym("A", -1)
        with pytest.raises(OutOfClassError):
            e.subs_param("A", Expr.sym("B") + Expr.num(1))
        ok = e.subs_param("A", Expr.sym("B") * exp_t())
        assert ok == Expr.sym("B", -1) * Expr.exp("tau", 1)


class TestCollectOrder:
    def test_series_first_order(self):
        A, B, tau = Expr.sym("A"), Expr.sym("B"), Expr.var("tau")
        series = A + B * exp_t() + Expr.sym("eps") * (-A * tau
                                                      + B * tau * exp_t())
        assert series.collect_order("eps", 1) == -A * tau + B * tau * exp_t()

    def test_eps_free(self):
        assert Expr.var("x", 2).collect_order("eps", 0) == Expr.var("x", 2)

    def test_exponential_rate_expansion(self):
        e = Expr.exp("tau", Poly.sym("eps").scale(-1))
        assert e.collect_order("eps", 1) == -Expr.var("tau")
        assert e.collect_order("eps", 2) == Expr.var("tau", 2).scale(F(1, 2))

    def test_laurent_coefficient_rejected(self):
        with pytest.raises(OutOfClassError):
            Expr.sym("eps", -1).collect_order("eps", 0)

    def test_phase_frequency_expansion(self):
        q = Poly.num(1) - Poly.sym("eps")
        e = Expr.cos({"t": q})
        c1 = e.collect_order("eps", 1)
        assert c1 == Expr.var("t") * Expr.sin({"t": 1})


class TestClassify:
    def test_both_secular_terms_painted(self):
        A, B, tau = Expr.sym("A"), Expr.sym("B"), Expr.var("tau")
        eps = Expr.sym("eps")
        series = A + B * exp_t() + eps * (-A * tau + B * tau * exp_t())
        div, conv = classify_divergent(series, "tau")
        assert div == eps * (-A * tau + B * tau * exp_t())
        assert conv == A + B * exp_t()

    def test_all_convergent(self):
        e = Expr.sym("A") + Expr.sym("B") * exp_t()
        div, conv = classify_divergent(e, "tau")
        assert div.is_zero() and conv == e


def test_underdetermined_system_reports_free_unknowns():
    # x + y = 3 leaves y undetermined; it is reported and taken as zero
    A = Expr.sym("A")
    eqs = [LinEq({"x": Expr.num(1), "y": Expr.num(1)}, Expr.num(-3)),
           LinEq({"z": Expr.num(2)}, -2 * A)]
    sol, free, leftovers = solve_linear_system(eqs)
    assert free == ["y"]
    assert sol == {"x": Expr.num(3), "z": A}
    assert leftovers == []


# ---------------------------------------------------------------------------
# Randomized properties (small cases via hypothesis; the acceptance suite
# runs the large randomized battery).

def _small_expr(rng: random.Random) -> Expr:
    out = Expr.zero()
    for _ in range(rng.randint(1, 3)):
        t = Expr.num(F(rng.randint(-4, 4), rng.randint(1, 3)))
        if rng.random() < 0.6:
            t = t * Expr.sym("eps", rng.randint(0, 2))
        if rng.random() < 0.5:
            t = t * Expr.var("x", rng.randint(0, 2))
        if rng.random() < 0.5:
            t = t * Expr.exp("x", rng.choice([-1, 1, F(1, 2)]))
        if rng.random() < 0.5:
            t = t * Expr.cos({"x": F(rng.randint(1, 2), 2)}, {"th": 1})
        out = out + t
    return out


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_ring_distributivity(seed):
    rng = random.Random(seed)
    a, b, c = (_small_expr(rng) for _ in range(3))
    assert a * (b + c) == a * b + a * c


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_diff_is_a_derivation(seed):
    rng = random.Random(seed)
    a, b = _small_expr(rng), _small_expr(rng)
    assert (a * b).diff("x") == a.diff("x") * b + a * b.diff("x")


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_collect_order_round_trip(seed):
    rng = random.Random(seed)
    e = _small_expr(rng)
    assert e.truncate_order("eps", 6) == e


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_diff_matches_finite_differences(seed):
    rng = random.Random(seed)
    e = _small_expr(rng)
    env = {"eps": 0.3, "x": 0.7, "th": 1.1}
    h = 1e-6
    up = e.eval({**env, "x": env["x"] + h})
    dn = e.eval({**env, "x": env["x"] - h})
    fd = (up - dn) / (2 * h)
    an = e.diff("x").eval(env)
    assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


def test_painting_round_trip_property():
    rng = random.Random(7)
    for _ in range(50):
        e = _small_expr(rng)
        div, conv = classify_divergent(e, "x")
        painted = Expr(list(conv.terms)
                       + [paint_term(t, "x", "mu") for t in div.terms])
        assert painted.rename("mu", "x") == e


# ---------------------------------------------------------------------------
# The integer-triple coefficients checked against the Fraction pairs they
# replace, and the kernel against sympy.

rationals = st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))
gaussians = st.tuples(rationals, rationals)


def _pair(q):
    """A triple back as its (re, im) Fraction pair, checking it is reduced."""
    re, im, den = q
    assert den > 0 and math.gcd(re, im, den) == 1
    return (F(re, den), F(im, den))


@given(gaussians, gaussians)
@settings(max_examples=300, deadline=None)
def test_triples_match_fraction_pairs(a, b):
    qa, qb = _qnum(*a), _qnum(*b)
    assert _pair(qa) == a and _pair(qb) == b
    assert _pair(_qadd(qa, qb)) == (a[0] + b[0], a[1] + b[1])
    assert _pair(_qmul(qa, qb)) == (a[0] * b[0] - a[1] * b[1],
                                    a[0] * b[1] + a[1] * b[0])
    n = b[0] * b[0] + b[1] * b[1]
    if n:
        assert _pair(_qdiv(qa, qb)) == ((a[0] * b[0] + a[1] * b[1]) / n,
                                        (a[1] * b[0] - a[0] * b[1]) / n)
    # the key strings, and so the canonical term order, are str(Fraction)'s
    assert _rat_text(qa[0], qa[2]) == str(a[0])
    assert _rat_text(qa[1], qa[2]) == str(a[1])
    if a != (0, 0) and b != (0, 0):
        ka, kb = Poly.num(*a).key(), Poly.num(*b).key()
        assert ka == ((), f"{a[0]} {a[1]}")
        assert (ka < kb) == ((str(a[0]), str(a[1])) < (str(b[0]), str(b[1])))
        if (a[0], b[1]) != (0, 0):    # a tie on the real part
            kc = Poly.num(a[0], b[1]).key()
            assert (ka < kc) == ((str(a[0]), str(a[1]))
                                 < (str(a[0]), str(b[1])))


@given(gaussians, st.integers(-5, 5))
@settings(max_examples=200, deadline=None)
def test_triple_powers_match_fraction_pairs(a, n):
    if n < 0 and a == (0, 0):
        return
    want = (F(1), F(0))
    base = a if n >= 0 else _pair(_qdiv((1, 0, 1), _qnum(*a)))
    for _ in range(abs(n)):
        want = (want[0] * base[0] - want[1] * base[1],
                want[0] * base[1] + want[1] * base[0])
    assert _pair(_qpow(_qnum(*a), n)) == want


def _criterion9_expr(rng: random.Random) -> Expr:
    """Criterion 9's generator (tests/test_acceptance.py)."""
    out = Expr.zero()
    for _ in range(rng.randint(1, 3)):
        t = Expr.num(F(rng.randint(-4, 4), rng.randint(1, 3)))
        if rng.random() < 0.6:
            t = t * Expr.sym("eps", rng.randint(1, 2))
        if rng.random() < 0.5:
            t = t * Expr.var("x", rng.randint(1, 2))
        if rng.random() < 0.5:
            t = t * Expr.exp("x", rng.choice([-1, 1, F(1, 2)]))
        if rng.random() < 0.4:
            t = t * Expr.cos({"x": F(rng.randint(1, 2), 2)}, {"th": 1})
        out = out + t
    return out


def test_mixed_growth_and_phase_round_trip():
    # products such as exp(x)*cos(1/2*x + th) carry a growth rate and a
    # frequency in one variable
    rng = random.Random(19)
    mixed = 0
    for _ in range(1000):
        e = _criterion9_expr(rng) * _criterion9_expr(rng)
        assert parse_expr(expr_text(e), {"x"}) == e, expr_text(e)
        re, im = e.parts()
        assert re + Expr.num(0, 1) * im == e
        # the former two-pass real and imaginary parts
        assert (re, im) == ((e + e.conj()).scale(F(1, 2)),
                            (e - e.conj()).scale(0, F(-1, 2)))
        mixed += any(p.parts()[0] and p.parts()[1]
                     for t in e.terms for _, p in t.rates)
    assert mixed


def _to_ring(e: Expr, sympy, R, shift: int):
    """e*(z*w*v)**shift in R = Q(i)[x, eps, z, w, v], where z = exp(x/2),
    w = exp(i*x/2) and v = exp(i*th) (criterion 9's rates and frequencies are
    multiples of 1/2); the shift clears negative powers."""
    QQ = sympy.QQ

    def twice(p: Poly) -> int:
        re, im, den = p.is_number()
        assert im == 0 and 2 * re % den == 0
        return 2 * re // den

    out = {}
    for t in e.terms:
        kz = shift + sum(twice(p.parts()[0]) for _, p in t.rates)
        kw = shift + sum(twice(p.parts()[1]) for _, p in t.rates)
        kv = shift + sum(int(c) for _, c in t.offs)
        for pows, (re, im, den) in t.coeff.monos:
            monom = (t.vpow("x"), dict(pows).get("eps", 0), kz, kw, kv)
            out[monom] = sympy.QQ_I(QQ(re, den), QQ(im, den))
    return R.from_dict(out)


def test_kernel_matches_sympy_on_criterion9_expressions():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.rings import ring
    QQ, QQ_I = sympy.QQ, sympy.QQ_I
    R, x, eps, z, w, v = ring("x eps z w v", QQ_I)
    n = 8
    # d/dx of f = e*(z*w*v)^n, with z' = z/2 and w' = i*w/2
    chain = R(QQ_I(QQ(1, 2), 0)) * z, R(QQ_I(0, QQ(1, 2))) * w
    shift = R(QQ_I(QQ(n, 2), QQ(n, 2)))
    env = {"eps": 0.3, "x": 0.7, "th": 1.1}
    at = {sympy.Symbol("x"): sympy.Float("0.7", 30),
          sympy.Symbol("eps"): sympy.Float("0.3", 30)}
    at.update({sympy.Symbol("z"): sympy.exp(at[sympy.Symbol("x")] / 2),
               sympy.Symbol("w"): sympy.exp(sympy.I * at[sympy.Symbol("x")] / 2),
               sympy.Symbol("v"): sympy.exp(sympy.I * sympy.Float("1.1", 30))})
    unshift = (sympy.Symbol("z") * sympy.Symbol("w") * sympy.Symbol("v")) ** -n
    rng = random.Random(20240811)
    for _ in range(200):
        a, b = _criterion9_expr(rng), _criterion9_expr(rng)
        fa, fb = _to_ring(a, sympy, R, n), _to_ring(b, sympy, R, n)
        assert _to_ring(a * b, sympy, R, 2 * n) == fa * fb
        da = a.diff("x")
        fda = _to_ring(da, sympy, R, n)
        assert fda == fa.diff(x) + chain[0] * fa.diff(z) \
            + chain[1] * fa.diff(w) - shift * fa
        # a has real coefficients; its derivative has complex ones
        for e, f in ((a, fa), (da, fda)):
            want = complex((f.as_expr() * unshift).evalf(30, subs=at))
            assert abs(e.eval(env) - want) <= 1e-13 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# The fast paths against the slow paths they replace: one-pass numeric
# substitution against one symbol at a time, truncated products against full
# ones at every kept order.

def _eps_expr(rng: random.Random, lowest: int = 0) -> Expr:
    """Criterion 9's generator with a coefficient symbol A, eps powers from
    ``lowest`` and rates and frequencies that may carry eps."""
    out = Expr.zero()
    eps = Poly.sym("eps")
    for _ in range(rng.randint(1, 3)):
        t = Expr.num(F(rng.randint(-4, 4), rng.randint(1, 3)))
        if rng.random() < 0.6:
            t = t * Expr.sym("eps", rng.randint(lowest, 2))
        if rng.random() < 0.4:
            t = t * Expr.sym("A", rng.randint(1, 2))
        if rng.random() < 0.5:
            t = t * Expr.var("x", rng.randint(1, 2))
        if rng.random() < 0.5:
            rate = Poly.num(rng.choice([-1, 1, F(1, 2)]))
            if rng.random() < 0.5:
                rate = rate + eps.scale(rng.choice([-1, F(1, 2)]))
            t = t * Expr.exp("x", rate)
        if rng.random() < 0.4:
            freq = Poly.num(F(rng.randint(1, 2), 2))
            if rng.random() < 0.5:
                freq = freq + eps.scale(F(1, 2))
            t = t * Expr.cos({"x": freq}, {"th": 1})
        out = out + t
    return out


def _outcome(f):
    """f()'s value, or the text of the OutOfClassError it raises."""
    try:
        return f()
    except OutOfClassError as err:
        return f"OutOfClassError: {err}"


def _orders(e: Expr, k: int):
    return _outcome(lambda: e.orders("eps", k))


def _chained(e: Expr, env: dict) -> Expr:
    for s, q in env.items():
        e = e.subs_param(s, q)
    return e


@given(st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_subs_num_matches_chained_subs_param(seed):
    rng = random.Random(seed)
    e = _eps_expr(rng)
    # zeros first: one pass kills a term by its variable power before any
    # other check, as setting the variable first does
    env = {}
    for s in ("x", "th"):
        if rng.random() < 0.5:
            env[s] = 0
    env["eps"] = F(rng.randint(-3, 3), rng.randint(1, 3))
    env["A"] = F(rng.randint(-3, 3), rng.randint(1, 3))
    assert e.subs_num(env) == _chained(e, env)
    # and against the numeric evaluator, which shares no code with either
    at = {"x": 0.7, "th": 1.1}
    want = e.eval({**at, **{s: float(q) for s, q in env.items()}})
    assert abs(e.subs_num(env).eval(at) - want) <= 1e-12 * max(1.0, abs(want))
    # one symbol of the class set nonzero, last: the same error, or none in
    # both when no term carries it once the rest is substituted
    s = rng.choice(["x", "th"])
    bad = {k: q for k, q in env.items() if k != s}
    bad[s] = F(rng.randint(1, 3), 2)
    assert _outcome(lambda: e.subs_num(bad)) == _outcome(
        lambda: _chained(e, bad))


def test_subs_num_rejects_an_offset_or_a_variable_set_nonzero():
    e = Expr.sym("A") * Expr.cos({"x": 1}, {"th": 1})
    for env in ({"A": 2, "th": 1}, {"A": 2, "x": F(1, 2)}):
        with pytest.raises(OutOfClassError) as fast:
            e.subs_num(env)
        with pytest.raises(OutOfClassError) as slow:
            _chained(e, env)
        assert str(fast.value) == str(slow.value)


@given(st.integers(0, 10 ** 6), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_truncated_product_keeps_every_kept_order(seed, k):
    rng = random.Random(seed)
    a, b, c = _eps_expr(rng), _eps_expr(rng), _eps_expr(rng)
    assert _orders(product_upto([a, b], "eps", k), k) == _orders(a * b, k)
    assert _orders(product_upto([a, b, c], "eps", k), k) \
        == _orders(a * b * c, k)
    for n in range(4):
        assert _orders(product_upto([a] * n, "eps", k), k) \
            == _orders(a ** n, k)


@given(st.integers(0, 10 ** 6), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_truncated_product_with_negative_eps_powers(seed, k):
    # a dropped monomial never comes back through a later eps**-1, and a
    # negative power in the result raises in both
    rng = random.Random(seed)
    a, b = _eps_expr(rng, lowest=-1), _eps_expr(rng, lowest=-1)
    assert _orders(product_upto([a, b, a], "eps", k), k) \
        == _orders(a * b * a, k)
    assert _orders(product_upto([b] * 3, "eps", k), k) == _orders(b ** 3, k)
    inv = Expr.sym("eps", -1)
    assert _orders(product_upto([a, inv], "eps", k), k) == _orders(a * inv, k)
    c = Expr.num(1) + Expr.sym("eps") * _eps_expr(rng)
    assert isinstance(_orders(product_upto([c, inv], "eps", k), k), str)
    assert isinstance(_orders(c * inv, k), str)


def _subs_upto(e: Expr, sym: str, value: Expr, k: int) -> Expr:
    """e with sym -> value, the part of each power j of sym multiplied by
    value**j through ``product_upto`` to order k in eps, as ``_verify_ft``
    substitutes the flows for the primes."""
    pieces: dict = {}
    for t in e.terms:
        lo, hi = t.coeff.order_range(sym)
        for j in range(lo, hi + 1):
            c = t.coeff.coeff_of(sym, j)
            if not c.is_zero():
                pieces.setdefault(j, []).append(t.with_coeff(c))
    return sum((product_upto([Expr(ts)] + [value if j >= 0
                                           else value.inverse()] * abs(j),
                             "eps", k)
                for j, ts in pieces.items()), Expr.zero())


@given(st.integers(0, 10 ** 6), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_truncated_substitution_keeps_every_kept_order(seed, k):
    rng = random.Random(seed)
    e = _eps_expr(rng) * (Expr.sym("P") + Expr.sym("P", 2)) + Expr.sym("P") \
        + _eps_expr(rng)
    value = Expr.sym("eps") * _eps_expr(rng) + Expr.sym("B")
    # no exponent holds P and no power of it is negative: subs_param
    # cannot raise here
    full = e.subs_param("P", value)
    assert _orders(_subs_upto(e, "P", value, k), k) == _orders(full, k)
    # eps**-1 in the expression brings order k + 1 of the powers down to k
    e = Expr.sym("eps", -1) * Expr.sym("P", 2) * _eps_expr(rng)
    value = Expr.sym("eps") * (_eps_expr(rng) + Expr.sym("B"))
    assert _orders(_subs_upto(e, "P", value, k), k) \
        == _orders(e.subs_param("P", value), k)
    # an invertible replacement for a negative power
    e = _eps_expr(rng) * Expr.sym("P", -2)
    value = Expr.sym("eps") * Expr.sym("B") * Expr.exp("x", -1)
    assert _orders(_subs_upto(e, "P", value, k), k) \
        == _orders(e.subs_param("P", value), k)


def test_truncation_order_zero_and_eps_in_exponents():
    eps = Expr.sym("eps")
    a = Expr.exp("x", Poly.num(-1) + Poly.sym("eps")) + eps
    b = Expr.cos({"x": Poly.num(1) + Poly.sym("eps")}) * (1 + eps)
    cut = product_upto([a, b], "eps", 0)
    assert cut.collect_order("eps", 0) == (a * b).collect_order("eps", 0)
    # the eps inside the exponents is kept: order 1 is not dropped from it
    assert product_upto([a, b], "eps", 1).collect_order("eps", 1) \
        == (a * b).collect_order("eps", 1)
    with pytest.raises(OutOfClassError):
        Expr.exp("x", Poly.sym("eps", -1)).collect_order("eps", 0)


# ---------------------------------------------------------------------------
# Exact division by leading terms: every exact quotient is found, and a
# remainder that no quotient leaves is rejected.

def _natoms(e: Expr) -> int:
    return sum(len(t.coeff.monos) for t in e.terms)


def _divisor(rng: random.Random) -> Expr:
    """A generator expression of at least two atoms (the single-atom
    divisors take the term-by-term path)."""
    while True:
        b = _eps_expr(rng)
        if _natoms(b) >= 2:
            return b


@given(st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_div_exact_recovers_every_factor(seed):
    rng = random.Random(seed)
    a, b = _eps_expr(rng), _divisor(rng)
    assert div_exact(a * b, b) == a
    assert div_exact(Expr.zero(), b) == Expr.zero()


@given(st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_div_exact_rejects_a_single_atom_remainder(seed):
    # a*b + r = c*b would make r = (c - a)*b, and a nonzero multiple of b
    # has distinct leading and trailing atoms, so it is never one atom
    rng = random.Random(seed)
    a, b = _eps_expr(rng), _divisor(rng)
    t = rng.choice(_divisor(rng).terms)
    r = Expr([t.with_coeff(Poly([rng.choice(t.coeff.monos)]))])
    with pytest.raises(OutOfClassError):
        div_exact(a * b + r, b)


# ---------------------------------------------------------------------------
# The one-pass order collection, the once-scored solver and division by a
# number against the code they replaced: collect_order's per-order
# expansion, the solver that re-scored every coefficient at every step, and
# the term-by-term division.

def _expand_reference(t: Term, param: str, jmax: int):
    pieces = [(0, Term(t.coeff, t.vpows, (), t.offs))]
    for v, p in t.rates:
        free, dep = p.split_by(param)
        base = Term(Poly.num(1), (), _slot_make({v: free}), ())
        pieces = [(o, pt.mul(base)) for o, pt in pieces]
        if not dep.is_zero():
            pieces = _series_mul(pieces, v, dep, param, jmax)
    return pieces


def _collect_order_reference(e: Expr, param: str, j: int) -> Expr:
    out = []
    for t in e.terms:
        if t.coeff.order_range(param)[0] < 0:
            raise OutOfClassError(
                f"coefficient is not polynomial in {param!r}")
        for min_order, term in _expand_reference(t, param, j):
            if min_order > j:
                continue
            c = term.coeff.coeff_of(param, j)
            if not c.is_zero():
                out.append(term.with_coeff(c))
    return Expr(out)


@given(st.integers(0, 10 ** 6), st.integers(0, 4))
@settings(max_examples=120, deadline=None)
def test_orders_match_per_order_collection(seed, k):
    rng = random.Random(seed)
    e = _eps_expr(rng, lowest=rng.choice([0, 0, -1]))
    if rng.random() < 0.2:
        # eps**-1 in a rate: the exponent is no power series in eps
        e = e + Expr.exp("x", Poly.num(1) + Poly.sym("eps", -1))
    want = _outcome(lambda: [_collect_order_reference(e, "eps", j)
                             for j in range(k + 1)])
    assert _orders(e, k) == want
    assert _outcome(lambda: e.collect_order("eps", k)) \
        == (want if isinstance(want, str) else want[k])
    if not isinstance(want, str):
        assert e.truncate_order("eps", k) == sum(
            (Expr.sym("eps", j) * c for j, c in enumerate(want)), Expr.zero())


def _pivot_quality_reference(c: Expr):
    t = c.single_term()
    if t is None:
        return (2, len(c.terms))
    if not t.vpows and not t.rates and not t.offs \
            and t.coeff.is_number() is not None:
        return (0, 0)
    return (1, 0)


def _solve_reference(eqs):
    """Elimination that scores every coefficient of every row at each step."""
    def prune(e):
        e.coeffs = {k: c for k, c in e.coeffs.items() if not c.is_zero()}
        return e

    eqs = [prune(LinEq(dict(e.coeffs), e.const, e.label)) for e in eqs]
    solved_rows = []
    while True:
        best = None
        for i, e in enumerate(eqs):
            for k, c in e.coeffs.items():
                cand = (_pivot_quality_reference(c), len(e.coeffs), str(k), i)
                if best is None or cand < best[0]:
                    best = (cand, i, k)
        if best is None:
            break
        _cand, i, k = best
        pivot_eq = eqs.pop(i)
        pivot_c = pivot_eq.coeffs.pop(k)
        solved_rows.append((k, pivot_eq.coeffs, pivot_eq.const, pivot_c))
        new_eqs = []
        for e in eqs:
            c = e.coeffs.pop(k, None)
            if c is None or c.is_zero():
                new_eqs.append(prune(e))
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
            new_eqs.append(prune(LinEq(coeffs, const, e.label)))
        eqs = new_eqs
    solution = {}
    free = set()
    for k, others, const, pivot_c in reversed(solved_rows):
        val = const
        for kk, c in others.items():
            if kk in solution:
                val = val + c * solution[kk]
            elif not c.is_zero():
                free.add(kk)
        solution[k] = -div_exact(val, pivot_c)
    leftovers = [e for e in eqs if not e.const.is_zero()]
    return solution, sorted(free, key=str), leftovers


def _solved(solve, eqs):
    """solve's outcome with the solution in pivot order and each leftover as
    (label, const); the equations are left unchanged."""
    before = [(dict(e.coeffs), e.const, e.label) for e in eqs]

    def run():
        sol, free, left = solve(eqs)
        return list(sol.items()), free, [(e.label, e.const) for e in left]
    out = _outcome(run)
    assert [(e.coeffs, e.const, e.label) for e in eqs] == before
    return out


def test_solver_matches_rescan_on_corpus_systems(monkeypatch):
    # every system a corpus derive solves: the flow systems as
    # derive_ft_system builds them (its block solve never calls
    # solve_linear_system), every other one where it is solved
    systems, flows = [], []

    def capture(eqs):
        systems.append(list(eqs))
        return solve_linear_system(eqs)

    def capture_flows(rows, flow_parts, unit):
        flows.append((name, rows, flow_parts, unit))
        systems.append(ftflow._flow_lineqs(rows, flow_parts))
        return solve_flow_rows(rows, flow_parts, unit)
    solve_flow_rows = ftflow._solve_flow_rows
    monkeypatch.setattr(ftflow, "_solve_flow_rows", capture_flows)
    for mod in (ftflow, pertsym):
        monkeypatch.setattr(mod, "solve_linear_system", capture)
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    for path in sorted(corpus.glob("*.spec")):
        name = path.stem
        cli.run_derive(parse_spec(path), False)
    # every kind that solves: ode-hidden-scale (flows, cgo; its zero
    # initial values replay the operator's own elimination), filament's
    # graded flows, the determining equations, Burgers; a flow
    # system that falls back is captured twice
    assert len(systems) >= 8 and max(map(len, systems)) == 242
    for eqs in systems:
        assert _solved(solve_linear_system, eqs) \
            == _solved(_solve_reference, eqs)
    # the block solve gives the generic solution, keys and values, or
    # leaves the system to it
    fast = []
    for name, rows, flow_parts, unit in flows:
        solution = ftflow._block_solve(rows, flow_parts, unit)
        if solution is not None:
            fast.append(name)
            generic, free, leftovers = solve_linear_system(
                ftflow._flow_lineqs(rows, flow_parts))
            assert (solution, free, leftovers) == (generic, [], [])
    assert sorted(name for name, *_ in flows) \
        == ["filament", "kdv", "mathieu", "overdamped", "terrible"]
    # terrible's order-0 block is singular: its switchback flows fall back
    assert fast == ["filament", "kdv", "mathieu", "overdamped"]


def _random_system(rng: random.Random, entry):
    n = rng.randint(1, 5)
    keys = [rng.choice([f"x{i}", ("C", i, F(i, 2))]) for i in range(n)]
    if n > 1 and isinstance(keys[0], tuple) and rng.random() < 0.6:
        # a key and a string that prints alike: row order and the order of
        # each row's unknowns break the tie, the same in both solvers
        keys[1] = str(keys[0])
    eqs = []
    for r in range(rng.randint(1, n + 1)):
        coeffs = {k: entry(rng) for k in rng.sample(keys, rng.randint(1, n))}
        eqs.append(LinEq(coeffs, entry(rng), f"row {r}"))
    if rng.random() < 0.3:
        # the sum of two rows with another constant: inconsistent
        a, b = rng.choice(eqs), rng.choice(eqs)
        coeffs = {k: a.coeffs.get(k, Expr.zero()) + b.coeffs.get(k,
                                                                 Expr.zero())
                  for k in set(a.coeffs) | set(b.coeffs)}
        eqs.append(LinEq(coeffs, a.const + b.const + Expr.num(1), "sum"))
    return eqs


def _rational_entry(rng: random.Random) -> Expr:
    return Expr.num(F(rng.randint(-3, 3), rng.randint(1, 2))) \
        if rng.random() < 0.7 else Expr.zero()


def _expr_entry(rng: random.Random) -> Expr:
    r = rng.random()
    if r < 0.4:
        return _rational_entry(rng)
    if r < 0.65:
        return Expr.sym("A", rng.randint(1, 2)) * rng.randint(1, 2)
    if r < 0.8:
        return Expr.exp("x", rng.choice([-1, F(1, 2)])) * Expr.var(
            "x", rng.randint(0, 1))
    return _small_expr(rng)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_solver_matches_rescan_on_random_rational_systems(seed):
    eqs = _random_system(random.Random(seed), _rational_entry)
    assert _solved(solve_linear_system, eqs) == _solved(_solve_reference, eqs)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_solver_matches_rescan_on_random_expr_systems(seed):
    eqs = _random_system(random.Random(seed), _expr_entry)
    assert _solved(solve_linear_system, eqs) == _solved(_solve_reference, eqs)


def _div_term_by_term(e: Expr, t: Term) -> Expr:
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


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_division_by_a_number_matches_term_by_term(seed):
    rng = random.Random(seed)
    e = _eps_expr(rng, lowest=-1) * rng.choice(
        [Expr.num(1), Expr.sym("B"), Expr.num(F(1, 3), -2)])
    while True:
        q = Expr.num(F(rng.randint(-5, 5), rng.randint(1, 4)),
                     F(rng.randint(-2, 2), rng.randint(1, 3)))
        if not q.is_zero():
            break
    t = q.single_term()
    want = _div_term_by_term(e, t)
    assert exprcore._div_single(e, t) == want
    assert div_exact(e, q) == want
    assert want * q == e


# ---------------------------------------------------------------------------
# The compiled evaluator against Expr.eval, bit for bit.  Symbol names that
# are no Python identifiers must reach neither the generated source nor the
# values.

ODD = "x); import os; ("


def _eval_expr(rng: random.Random) -> Expr:
    """Criterion 9's generator widened: complex coefficients, Laurent powers
    of eps and R~, powers of two variables, real and complex rates, and
    cosines and sines with phase offsets."""
    out = Expr.zero()
    for _ in range(rng.randint(1, 4)):
        t = Expr.num(F(rng.randint(-4, 4), rng.randint(1, 3)),
                     F(rng.choice([0, 0, 1, -3]), rng.randint(1, 3)))
        if rng.random() < 0.6:
            t = t * Expr.sym("eps", rng.randint(-2, 2))
        if rng.random() < 0.4:
            t = t * Expr.sym("R~", rng.randint(-2, 2))
        if rng.random() < 0.5:
            t = t * Expr.var("x", rng.randint(1, 3))
        if rng.random() < 0.3:
            t = t * Expr.var(ODD, rng.randint(1, 2))
        if rng.random() < 0.5:
            rate = Poly.num(rng.choice([-1, 1, F(1, 2)]),
                            rng.choice([0, 0, 1, F(-3, 2)]))
            if rng.random() < 0.5:
                rate = rate + Poly.sym("eps").scale(rng.choice([-1, F(1, 2)]))
            t = t * Expr.exp(rng.choice(["x", ODD]), rate)
        if rng.random() < 0.5:
            trig = rng.choice([Expr.cos, Expr.sin])
            freq = Poly.num(F(rng.randint(1, 2), 2))
            if rng.random() < 0.5:
                freq = freq + Poly.sym("R~").scale(F(1, 2))
            t = t * trig({"x": freq}, {rng.choice(["th", ODD]):
                                       rng.choice([1, -2, F(1, 3)])})
        out = out + t
    return out


def _evaluator(exprs, args, fixed):
    """``g(*values)``: the values of ``evaluator_rhs`` with ``args`` as its
    state.  No expression reads the time "t" or the state's last entry,
    which lets ``args`` be empty."""
    f = evaluator_rhs(exprs, "t", [*args, "unread"], fixed)
    return lambda *values: f(0.0, [*values, 0.0])


def test_real_evaluator_matches_eval_bit_for_bit():
    # evaluator_rhs, the numeric flows' rhs, against Expr.eval; with one
    # argument, also explicit_ode_rhs's coefficients in the time, each in
    # y' = -(0.0 + 0.0*y + c(t)*1.0*y) / 1.0 at y = 1
    rng = random.Random(2025)
    symbols = ["eps", "R~", "x", "th", ODD]
    for _ in range(300):
        exprs = [_eval_expr(rng) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.1:
            exprs.append(Expr.zero())
        args = rng.sample(symbols, rng.randint(0, len(symbols)))
        fixed = {s: rng.uniform(0.1, 1.5) for s in symbols if s not in args}
        g = _evaluator(exprs, args, fixed)
        timed = [explicit_ode_rhs([0.0, 1.0], [(e, 1.0, ((0, 1),))], args[0],
                                  fixed)
                 for e in exprs] if len(args) == 1 else []
        for _ in range(20):
            # zeros check the signs of zero sums and products
            values = [rng.uniform(0.1, 1.5) if s in ("eps", "R~")
                      else rng.choice([0.0, -0.0]) if rng.random() < 0.1
                      else rng.uniform(-4.0, 4.0) for s in args]
            env = {**fixed, **dict(zip(args, values))}
            want = [float.hex(float(e.eval(env).real)) for e in exprs]
            got = g(*values)
            assert all(type(v) is float for v in got)
            assert [float.hex(v) for v in got] == want, (exprs, env)
            for e, rhs in zip(exprs, timed):
                c = e.eval(env).real
                assert float.hex(rhs(values[0], [1.0])[0]) == float.hex(
                    -(0.0 + 0.0 * 1.0 + c * 1.0 * 1.0) / 1.0), (e, env)


@pytest.mark.parametrize("e, args, message", [
    (Expr.sym("eps") * Expr.var("x"), ["x"], "no value for symbol 'eps'"),
    (Expr.sym("eps") * Expr.var(ODD), ["eps"], ODD),
    (Expr.exp("x", Poly.sym("R~")), ["x"], "no value for symbol 'R~'"),
    (Expr.cos({"x": 1}, {"th": 1}), ["x"], "th"),
])
def test_real_evaluator_missing_symbol_is_evals_key_error(e, args, message):
    with pytest.raises(KeyError) as want:
        e.eval(dict.fromkeys(args, 0.5))
    with pytest.raises(KeyError) as got:
        _evaluator([e], args, {})
    with pytest.raises(KeyError) as timed:
        explicit_ode_rhs([0.0, 1.0], [(e, 1.0, ((0, 1),))], args[0], {})
    assert str(got.value) == str(timed.value) == str(want.value) \
        == repr(message)


def test_real_evaluator_overflow_gives_evals_values():
    # cmath.exp raises where np.exp gives inf; the evaluator then returns
    # Expr.eval's values
    e = Expr.exp("x", 1) + Expr.num(2)
    g = _evaluator([e], ["x"], {})
    rhs = explicit_ode_rhs([0.0, 1.0], [(e, 1.0, ((0, 1),))], "x", {})
    with np.errstate(over="ignore", invalid="ignore"):
        assert g(800.0) == [math.inf] and g(1.0) == [e.eval({"x": 1.0}).real]
        assert rhs(800.0, [1.0]) == [-math.inf]


def test_compile_function_refuses_foreign_tokens():
    f = compile_function(2, ["return [a0 + k0 * a1**2]"], [3.0], "f")
    assert f(1.0, 2.0) == [13.0]
    # ``if`` opens a statement; it cannot pick a value or filter a loop
    g = compile_function(1, ["if a0 - a0:", "    return k0", "return a0"],
                         [0.0], "g")
    assert g(2.0) == 2.0 and g(math.inf) == 0.0
    # ``while`` and ``break`` make a loop, ``<`` its only comparison
    h = compile_function(1, ["b0 = 0", "while b0 < a0:", "    b0 += 1",
                             "    if k0 < b0:", "        break",
                             "return b0"], [2], "h")
    assert h(2.5) == 3 and h(7) == 3
    for line in ("return open", "return a0.__class__", "return 1.5",
                 "return 'x'", "return 1j", "return 0x1", "return 1e5",
                 "return a0.real.imag", "return a0  # x", "return b\u0663",
                 "return a0 if a0 else k0", "return [b0 for b0 in a0 if b0]",
                 "elif a0:", "for b0 in a0:", "else:", "return lambda: a0",
                 "import os", "return k0 > a0"):
        with pytest.raises(ValueError, match="foreign token"):
            compile_function(1, [line], [], "h")


def test_compile_function_compiles_each_source_once():
    # one source, other values: one compiled factory, each function with
    # its own values; a foreign source is refused every time, never cached
    f, g = (compile_function(1, ["return a0 * k0"], [c], "scale")
            for c in (2.0, 3.0))
    assert (f(1.5), g(1.5)) == (3.0, 4.5)
    assert f.__code__ is g.__code__ and f is not g
    for _ in range(2):
        with pytest.raises(ValueError, match="foreign token"):
            compile_function(1, ["return a0.__class__"], [], "scale")
    assert not [src for role, src in exprcore._MAKERS if "__class__" in src]


def test_generated_functions_name_their_role():
    # a profile keeps the loops, the oracle rhs and the evaluators apart
    rhs = explicit_ode_rhs([1.0, 0.0, 1.0], [], "t", {})
    flow = evaluator_rhs([Expr.var("x", 2)], "t", ["x"], {})
    shot = SwitchbackProblem(2, 1, 0.1).rhs_log()
    assert rhs.__code__.co_filename == "<explicit_ode_rhs>"
    assert flow.__code__.co_filename == "<evaluator_rhs>"
    assert shot.__code__.co_filename == "<rhs_log>"
    assert numlab._dopri_loop(3).__code__.co_filename == "<dopri_loop n=3>"
    assert numlab._dopri_loop(None).__code__.co_filename == \
        "<dopri_loop ndarray>"
    # a loop with an rhs inlined names both
    for f, n, role in ((rhs, 2, "explicit_ode_rhs"),
                       (flow, 1, "evaluator_rhs"), (shot, 2, "rhs_log")):
        assert numlab._dopri_loop(n, f.straight_line[0]).__code__ \
            .co_filename == f"<dopri_loop n={n} {role}>"
