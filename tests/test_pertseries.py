"""Hierarchy expansion and exact undetermined-coefficient solves."""

import random
from fractions import Fraction as F

import pytest

from hiddenscale.exprcore import Expr, Poly, classify_divergent
from hiddenscale.pertseries import (LinearOperator, ODEProblem, PertTerm,
                                    SolveError, build_bare_series,
                                    expand_hierarchy, particular_integral,
                                    solve_order)


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
    # D^2 - 1: the search finds both simple roots
    assert LinearOperator.make([-1, 0, 1], "x").char_roots() == [
        (one, 1), (minus_one, 1)]
    # (D + 1)^3: deflation counts the multiplicity
    assert LinearOperator.make([1, 3, 3, 1], "x").char_roots() == [
        (minus_one, 3)]
    # D^2 - 2: irrational roots leave the class
    with pytest.raises(SolveError,
                       match="operator has non-rational characteristic roots"):
        LinearOperator.make([-2, 0, 1], "x").char_roots()


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
