"""Boundary-condition perturbation of the switchback family."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expn

from hiddenscale import cli, switchback
from hiddenscale.exprcore import Expr
from hiddenscale.switchback import (LogClosedForm, SwitchbackProblem,
                                    exp_integral, most_divergent_partial_sum,
                                    most_divergent_sum, second_order_remainder,
                                    sw_antiderivative, sw_atom, sw_diff,
                                    sw_text, switchback_series,
                                    terrible_hidden_scale)
from hiddenscale.numlab import solve_bvp_shooting
from hiddenscale.specfile import parse_spec

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


class TestExpIntegral:
    def test_against_quadrature_oracle(self):
        # oracle: adaptive quadrature of the defining integral; the bound
        # allows for the oracle's own error estimate
        for n, x in [(1, 1.0), (1, 0.01), (2, 0.5), (2, 2.0), (3, 1.5)]:
            want, err = quad(lambda r, nn=n: r ** (-nn) * math.exp(-r),
                             x, np.inf)
            assert abs(exp_integral(n, x) - want) <= 1e-12 * abs(want) \
                + 2 * err

    def test_known_value(self):
        assert abs(exp_integral(1, 1.0) - 0.21938393439552) < 1e-12

    def test_vanishing_tail(self):
        assert exp_integral(1, 50.0) < 1e-20
        assert exp_integral(2, 50.0) < 1e-20

    def test_derivative_identity(self):
        # d/dx e_n(x) = -x^(-n) exp(-x), checked by central differences
        for n in (1, 2, 3):
            for x in (0.3, 1.0, 4.0):
                h = 1e-6
                fd = (exp_integral(n, x + h) - exp_integral(n, x - h)) / (2 * h)
                want = -x ** (-n) * math.exp(-x)
                assert abs(fd - want) < 1e-7 * max(1.0, abs(want))

    def test_equals_scipy_expn(self, monkeypatch):
        # x^(1-n) * scipy.special.expn bit for bit: at every argument the
        # corpus switchback validates (derive included) pass, and on a log
        # grid
        seen = []

        def recording(n, x):
            seen.append((n, np.asarray(x, dtype=float)))
            return exp_integral(n, x)
        monkeypatch.setattr(switchback, "exp_integral", recording)
        for name in ("terrible", "bad"):
            assert cli.run_validate(parse_spec(CORPUS / f"{name}.spec"),
                                    None).ok
        assert {n for n, _ in seen} == {1, 2}
        grid = np.geomspace(1e-4, 100.0, 8000)
        for n, x in seen + [(n, grid) for n in (1, 2, 3)]:
            assert np.array_equal(exp_integral(n, x),
                                  x ** (1 - n) * expn(n, x)), (n, x)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exp_integral(1, 0.0)
        with pytest.raises(ValueError):
            exp_integral(1, -1.0)
        with pytest.raises(ValueError):     # the continued fraction's loop
            exp_integral(1, [2.0, math.nan])  # would not end on NaN
        with pytest.raises(ValueError):
            exp_integral(0, 1.0)


class TestSwBasis:
    def test_antiderivative_rules_verify(self):
        samples = [sw_atom(3, 0, 0), sw_atom(1, 0, -1),
                   sw_atom(2, -1, -1), sw_atom(1, 0, 0, ((1, 1),)),
                   sw_atom(1, 0, -1, ((1, 1),)),
                   sw_atom(1, -1, -1, ((1, 1),))]
        for e in samples:
            F = sw_antiderivative(e)
            assert sw_diff(F) == e

    def test_unknown_pattern_raises(self):
        with pytest.raises(ValueError):
            sw_antiderivative(sw_atom(1, 0, 0, ((1, 3),)))

    def test_second_order_solves_equation(self):
        # construction self-verifies the order-2 equation; smoke call
        u2 = second_order_remainder()
        assert not u2.is_zero()
        assert "e1(x)^2" in sw_text(u2)


class TestSeries:
    def test_unswitched_limit(self):
        p = SwitchbackProblem(2, 1, 1e-4, 1.0, order=2)
        s = switchback_series(p)
        xs = np.array([1e-3, 0.1, 1.0, 5.0])
        assert np.allclose(s.evaluate(xs, a=0.0), 1.0)

    def test_boundary_conditions(self):
        for (n, d) in [(2, 1), (3, 0)]:
            order = 2 if (n, d) == (2, 1) else 1
            p = SwitchbackProblem(n, d, 1e-3, 1.0, order=order)
            s = switchback_series(p)
            assert abs(s.evaluate(1e-3)) < 1e-9
            assert abs(s.evaluate(45.0) - 1.0) < 1e-12

    def test_bad_problem_first_order_form(self):
        p = SwitchbackProblem(3, 0, 1e-2, 1.0, order=1)
        s = switchback_series(p)
        x = 0.7
        want = 1.0 - exp_integral(2, x) / exp_integral(2, 1e-2)
        assert abs(s.evaluate(x) - want) < 1e-12

    def test_unsupported_combination(self):
        with pytest.raises(ValueError):
            switchback_series(SwitchbackProblem(3, 0, 1e-2, 1.0, order=2))


class TestMostDivergentSum:
    def test_partial_sums_converge_to_logarithm(self):
        z = 0.5
        assert abs(most_divergent_partial_sum(z, 60)
                   - math.log1p(z)) < 1e-8

    def test_closed_form_at_a_one(self):
        eps = 1e-4
        cf = most_divergent_sum(SwitchbackProblem(2, 1, eps, 1.0))
        x = 0.02
        want = math.log(math.e + (1 - math.e)
                        * exp_integral(1, x) / exp_integral(1, eps))
        assert abs(cf.evaluate(x) - want) < 1e-12

    def test_radius_of_convergence(self):
        eps = 1e-4
        cf = most_divergent_sum(SwitchbackProblem(2, 1, eps, 1.0))
        assert abs(cf.radius_of_convergence(eps) - 1.0) < 1e-12
        assert cf.radius_of_convergence(1.0) > 1.0


class TestHiddenScaleRoute:
    def test_ft_equations(self):
        _, ft = terrible_hidden_scale(1e-4, 1.0)
        assert ft.equations["B"] == Expr.sym("a") * Expr.sym("B") ** 2
        assert ft.equations["A"] == -Expr.sym("B")

    def test_two_routes_agree(self):
        r1 = most_divergent_sum(SwitchbackProblem(2, 1, 1e-4, 1.0))
        r2, _ = terrible_hidden_scale(1e-4, 1.0)
        assert r1.text() == r2.text()
        assert abs(r1.s - r2.s) <= 1e-12 * abs(r1.s)

    def test_a_to_zero_limit(self):
        r, _ = terrible_hidden_scale(1e-4, 1e-9)
        xs = np.array([1e-3, 0.1, 1.0])
        assert np.allclose(r.evaluate(xs), 1.0, atol=1e-7)


class TestAgainstOracle:
    @pytest.fixture(scope="class")
    def oracle(self):
        def run(eps):
            p = SwitchbackProblem(2, 1, eps, 1.0)
            xi0, xi1 = math.log(eps), math.log(50.0)
            sol = solve_bvp_shooting(p.rhs_log(), xi0, 0.0, xi1, 1.0,
                                     slope_guess=0.1)
            xs = np.exp(np.linspace(xi0, math.log(10.0), 80))
            return xs, np.array([sol(math.log(x)) for x in xs])
        return run

    def test_regularity_at_small_eps(self, oracle):
        eps = 1e-4
        xs, uref = oracle(eps)
        s1 = switchback_series(SwitchbackProblem(2, 1, eps, 1.0, 1))
        s2 = switchback_series(SwitchbackProblem(2, 1, eps, 1.0, 2))
        asy = most_divergent_sum(SwitchbackProblem(2, 1, eps, 1.0))
        e1v = np.max(np.abs(s1.evaluate(xs) - uref))
        e2v = np.max(np.abs(s2.evaluate(xs) - uref))
        eav = np.max(np.abs(asy.evaluate(xs) - uref))
        assert e2v <= 2e-2 and eav <= 2e-2
        assert e2v < e1v          # convergence in a
        assert eav < e2v          # exact asymptotic sum wins at tiny eps

    def test_crossover_at_larger_eps(self, oracle):
        eps = 0.1
        xs, uref = oracle(eps)
        s2 = switchback_series(SwitchbackProblem(2, 1, eps, 1.0, 2))
        asy = most_divergent_sum(SwitchbackProblem(2, 1, eps, 1.0))
        e2v = np.max(np.abs(s2.evaluate(xs) - uref))
        eav = np.max(np.abs(asy.evaluate(xs) - uref))
        assert e2v < eav          # second order takes over
