"""Kernel unit tests and randomized algebraic properties."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hiddenscale.exprcore import (Expr, LinEq, OutOfClassError, Poly,
                                  _qadd, _qdiv, _qmul, _qnum, _qpow, _rat_text,
                                  classify_divergent, paint_term,
                                  solve_linear_system)
from hiddenscale.textform import expr_text


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

    def test_phase_shift_by_pi(self):
        e = Expr.sin({}, {"theta": 1, "phi": 1})
        assert e.shift_phase("phi", offs={"phi": 1}, pi_halves=2) == -e

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
        kz = shift + sum(twice(p) for _, p in t.rates)
        kw = shift + sum(twice(p) for _, p in t.freqs)
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
