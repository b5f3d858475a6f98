"""Hierarchy expansion and exact undetermined-coefficient solves."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dataclasses import replace
from pathlib import Path

from hiddenscale.exprcore import Expr, Poly, _qnum, classify_divergent
from hiddenscale.pertseries import (ConstantInfo, LinearOperator, ODEProblem,
                                    PertTerm, SolveError, build_bare_series,
                                    expand_hierarchy, grade_truncate,
                                    particular_integral, solve_order)
from hiddenscale.specfile import ode_problem, parse_spec

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def overdamped_problem(order=1, policy="zeroth-only"):
    L = LinearOperator.make([0, 1, 1], "tau")
    return ODEProblem(L, [PertTerm(1, Expr.num(1), ((0, 1),))], "eps", order,
                      constants_policy=policy, constant_names={0: ["A", "B"]})


def kdv_problem(order=2):
    L = LinearOperator.make([0, 1, 0, 1], "th")
    beta = Expr.from_poly(Poly.sym("k", -2) * Poly.sym("delta", -2)).scale(9)
    return ODEProblem(L, [PertTerm(1, beta, ((0, 1), (1, 1)))], "eps", order,
                      constant_style="amp-sin",
                      constant_names={0: ["c0", "R", "phi"]},
                      fixed_constants={"c0": 0})


def mathieu_problem():
    L = LinearOperator.make([F(1, 4), 0, 1], "t")
    coeff = Expr.sym("a1") + Expr.cos({"t": 1}).scale(2)
    return ODEProblem(L, [PertTerm(1, coeff, ((0, 1),))], "eps", 1,
                      constants_policy="fresh-per-order",
                      constant_style="amp-cos",
                      constant_names={0: ["R", "theta"], 1: ["A", "B"]})


def filament_problem():
    """The corpus filament problem with its secular partners graded 1/2."""
    prob = ode_problem(parse_spec(CORPUS / "filament.spec"))
    return replace(prob, grades={"alpha1": F(1, 2), "alpha2": F(1, 2)})


class TestHierarchy:
    def test_overdamped_orders(self):
        pairs = expand_hierarchy(overdamped_problem())
        assert pairs[0][1].is_zero()
        A, B = Expr.sym("A"), Expr.sym("B")
        assert pairs[1][1] == -(A + B * Expr.exp("tau", -1))

    def test_kdv_first_order_forcing(self):
        pairs = expand_hierarchy(kdv_problem(order=1))
        R = Expr.sym("R")
        want = (R ** 2 * Expr.sin({"th": 2}, {"phi": 2})
                * Expr.from_poly(Poly.sym("delta", -2) * Poly.sym("k", -2))
                ).scale(F(-9, 2))
        assert pairs[1][1] == want

    def test_mathieu_first_order_forcing(self):
        pairs = expand_hierarchy(mathieu_problem())
        R = Expr.sym("R")
        y0 = R * Expr.cos({"t": F(1, 2)}, {"theta": 1})
        want = -(Expr.sym("a1") + Expr.cos({"t": 1}).scale(2)) * y0
        assert pairs[1][1] == want


def test_char_roots_rational_search():
    # roots are Gaussian-rational triples (re, im, den)
    one, minus_one = (1, 0, 1), (-1, 0, 1)
    # D^2 - 1: two simple real roots, the larger first
    assert LinearOperator.make([-1, 0, 1], "x").char_roots() == [
        (one, 1), (minus_one, 1)]
    # (D + 1)^3: one numeric candidate, counted three times by the exact test
    assert LinearOperator.make([1, 3, 3, 1], "x").char_roots() == [
        (minus_one, 3)]
    # D^2 - 2: irrational roots leave the class
    with pytest.raises(SolveError,
                       match="operator has non-rational characteristic roots"):
        LinearOperator.make([-2, 0, 1], "x").char_roots()


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_factored_operator(rng: random.Random, max_degree: int):
    """Coefficients (low to high) of a scaled product of rational linear and
    Gaussian-rational quadratic factors, and the roots they generate."""
    def rational():
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    coeffs = [rational() or F(1)]
    roots = {}
    while True:
        mult = rng.randint(1, 3)
        if rng.random() < 0.5:
            re, im = rational(), F(0)
            factor = [-re, F(1)]
        else:
            re, im = rational(), abs(rational()) or F(1)
            factor = [re * re + im * im, -2 * re, F(1)]
        if len(coeffs) - 1 + mult * (len(factor) - 1) > max_degree:
            return coeffs, roots
        if _qnum(re, im) in roots:
            continue
        roots[_qnum(re, im)] = mult
        if im:
            roots[_qnum(re, -im)] = mult
        for _ in range(mult):
            coeffs = _poly_mul(coeffs, factor)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_char_roots_recover_gaussian_rational_factors(seed):
    rng = random.Random(seed)
    coeffs, roots = _random_factored_operator(rng, 8)
    got = LinearOperator.make(coeffs, "x").char_roots()
    assert dict(got) == roots
    assert len(got) == len(roots)
    # one irrational factor z^2 - c puts the operator out of the class
    c = rng.choice([2, 3, 5, 6, F(1, 2), F(-2), F(-3, 4)])
    coeffs, _ = _random_factored_operator(rng, 6)
    with pytest.raises(SolveError,
                       match="operator has non-rational characteristic roots"):
        LinearOperator.make(_poly_mul(coeffs, [-F(c), F(0), F(1)]),
                            "x").char_roots()


class TestSolveOrder:
    def test_resonant_double_mode(self):
        L = LinearOperator.make([0, 1, 1], "tau")
        f = -(Expr.sym("A") + Expr.sym("B") * Expr.exp("tau", -1))
        y = particular_integral(L, f)
        tau = Expr.var("tau")
        assert y == -Expr.sym("A") * tau + Expr.sym("B") * tau \
            * Expr.exp("tau", -1)

    def test_kdv_first_order_with_zero_ics(self):
        L = LinearOperator.make([0, 1, 0, 1], "th")
        f = (Expr.sym("R") ** 2 * Expr.sin({"th": 2}, {"phi": 2})
             * Expr.from_poly(Poly.sym("delta", -2) * Poly.sym("k", -2))
             ).scale(F(-9, 2))
        y, _, _ = solve_order(L, f, "zero")
        want = (Expr.sym("R") ** 2 * Expr.sin({"th": F(1, 2)}) ** 3
                * Expr.sin({"th": F(1, 2)}, {"phi": 2})
                * Expr.from_poly(Poly.sym("k", -2) * Poly.sym("delta", -2))
                ).scale(-6)
        assert y == want

    def test_homogeneous_rect_representation(self):
        L = LinearOperator.make([1, 0, 1], "t")
        y, infos, _ = solve_order(L, Expr.zero(), None, ["A1", "A2"], "rect")
        assert y == Expr.sym("A1") * Expr.cos({"t": 1}) \
            + Expr.sym("A2") * Expr.sin({"t": 1})
        assert [c.name for c in infos] == ["A1", "A2"]

    def test_forcing_outside_class_rejected(self):
        L = LinearOperator.make([0, 1, 1], "tau")
        f = Expr.exp("tau", Poly.sym("eps"))
        with pytest.raises(SolveError):
            particular_integral(L, f)

    def test_random_solves_verify_exactly(self):
        rng = random.Random(3)
        ops = [[0, 1, 1], [1, 0, 1], [0, 1, 0, 1], [F(1, 4), 0, 1]]
        for _ in range(40):
            L = LinearOperator.make(rng.choice(ops), "x")
            f = Expr.zero()
            for _ in range(rng.randint(1, 3)):
                t = Expr.num(F(rng.randint(-3, 3), rng.randint(1, 2)))
                t = t * Expr.var("x", rng.randint(0, 2))
                pick = rng.random()
                if pick < 0.4:
                    t = t * Expr.exp("x", rng.choice([-1, 1]))
                elif pick < 0.8:
                    t = t * Expr.cos({"x": rng.choice([F(1, 2), 1, 2])},
                                     {"th": 1})
                f = f + t
            if f.is_zero():
                continue
            y = particular_integral(L, f)
            assert (L.apply(y) - f).is_zero()


class TestBareSeries:
    def test_overdamped_matches_closed_form(self):
        s = build_bare_series(overdamped_problem())
        A, B, tau = Expr.sym("A"), Expr.sym("B"), Expr.var("tau")
        e = Expr.exp("tau", -1)
        eq33 = A + B * e + Expr.sym("eps") * (-A * tau + B * tau * e)
        assert s.full() == eq33

    def test_eps_zero_is_zeroth_order(self):
        s = build_bare_series(overdamped_problem())
        assert s.full().subs_param("eps", 0) == s.orders[0]

    def test_mathieu_series(self):
        s = build_bare_series(mathieu_problem())
        R = Expr.sym("R")
        c = lambda f, o: Expr.cos({"t": F(f, 2)}, {"theta": o})
        sn = lambda f, o: Expr.sin({"t": F(f, 2)}, {"theta": o})
        want1 = Expr.sym("A") * c(1, 1) + Expr.sym("B") * sn(1, 1) + R * (
            c(3, 1).scale(F(1, 2))
            + Expr.sin({}, {"theta": 2}) * Expr.var("t") * c(1, 1)
            - (Expr.cos({}, {"theta": 2}) + Expr.sym("a1"))
            * Expr.var("t") * sn(1, 1))
        assert s.orders[1] == want1
        assert [(c_.name, c_.order) for c_ in s.constants] == \
            [("R", 0), ("theta", 0), ("A", 1), ("B", 1)]

    def test_kdv_divergent_second_order(self):
        s = build_bare_series(kdv_problem())
        div, _ = classify_divergent(s.orders[2], "th")
        R = Expr.sym("R")
        k4d4 = Expr.from_poly(Poly.sym("k", -4) * Poly.sym("delta", -4))
        want = (R ** 3 * Expr.var("th")
                * (Expr.cos({}, {"phi": 2}).scale(6) - Expr.num(1))
                * Expr.cos({"th": 1}, {"phi": 1}) * k4d4).scale(F(-27, 16))
        assert div == want

    def test_residuals_vanish(self):
        for prob in (overdamped_problem(), overdamped_problem(2), kdv_problem(),
                     mathieu_problem()):
            s = build_bare_series(prob)
            assert all(r.is_zero() for r in prob.residual_orders(s))

    def test_graded_series_matches_the_hand_built_one(self):
        prob = filament_problem()
        series = build_bare_series(prob)
        # the reference: order 1 solved against order 0 cut at total grade 0,
        # as the alpha terms force at grade 3/2, beyond the working order
        L, n, p = prob.operator, prob.operator.order, prob.parameter
        zeroth, infos0, _ = solve_order(L, Expr.zero(), None,
                                        prob.names_for(0, n))
        reduced = grade_truncate(zeroth, prob.grades, p, 0)
        forcing = -prob.apply_perturbation(reduced, 1).collect_order(p, 1)
        first, infos1, _ = solve_order(L, forcing, None, prob.names_for(1, n))
        assert series.orders == [zeroth, first]
        assert series.constants == [
            ConstantInfo(c.name, j, c.kind)
            for j, infos in enumerate((infos0, infos1)) for c in infos]

    def test_graded_residual_catches_a_dropped_term(self):
        prob = filament_problem()
        series = build_bare_series(prob)
        assert all(r.is_zero() for r in prob.residual_orders(series))
        # the grades are what the check relies on: ungraded, the forcing of
        # the alpha terms at order 1 is missing
        assert not replace(prob, grades={}).residual_orders(series)[1] \
            .is_zero()
        # the v^4*cos(v) and v^4*sin(v) terms of order 1
        top = [t for t in series.orders[1].terms if t.vpow("v") == 4]
        assert len(top) == 2
        for t in top:
            rest = Expr([u for u in series.orders[1].terms if u is not t])
            res = prob.residual_orders(
                replace(series, orders=[series.orders[0], rest]))
            assert res[0].is_zero() and not res[1].is_zero()

    def test_constant_count_matches_order(self):
        s = build_bare_series(overdamped_problem())
        assert len([c for c in s.constants if c.order == 0]) == 2
        sk = build_bare_series(kdv_problem())
        # three kernel directions, one pinned to zero average
        assert len([c for c in sk.constants if c.order == 0]) == 2

    def test_nonpolynomial_perturbation_rejected(self):
        L = LinearOperator.make([0, 1, 1], "tau")
        with pytest.raises(ValueError):
            ODEProblem(L, [PertTerm(1, Expr.num(1), ((3, 1),))], "eps", 1)
