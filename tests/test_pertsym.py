"""Perturbation symmetries, the Lambert W evaluator and the Burgers flow."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from hiddenscale import pertsym
from hiddenscale.exprcore import Expr
from hiddenscale.pertseries import (LinearOperator, ODEProblem, PertTerm,
                                    build_bare_series)
from hiddenscale.pertsym import (DeterminingError, GeneratorAnsatz,
                                 Log1pProfile, burgers_bare_series,
                                 burgers_closed_form, burgers_ft_solve,
                                 burgers_generator, lambert_w,
                                 lambert_w_exp_arg, solve_determining,
                                 underdamped_uniform, with_switch)


def underdamped_series():
    L = LinearOperator.make([1, 0, 1], "t")
    p = ODEProblem(L, [PertTerm(1, Expr.num(1), ((1, 1),))], "eps", 2,
                   constants_policy="zeroth-only", constant_style="amp-sin",
                   constant_names={0: ["A", "theta"]})
    return build_bare_series(p)


class TestDetermining:
    def test_underdamped_generator(self):
        gen = solve_determining(with_switch(underdamped_series(), "s"),
                                GeneratorAnsatz.oscillator(2), 2)
        t, y, s = Expr.var("t"), Expr.sym("y"), Expr.var("s")
        assert gen.component("y", 1) == (t * y).scale(F(-1, 2))
        assert gen.component("t", 2) == (s * t).scale(F(1, 4))
        assert gen.component("t", 0).is_zero()
        assert gen.component("y", 0).is_zero()
        assert gen.component("t", 1).is_zero()
        assert gen.component("y", 2).is_zero()
        assert gen.free_weights == []

    def test_duplicate_shape_reports_free_weights(self):
        # t*y listed twice: the copy's weights stay free and are set to zero
        ansatz = GeneratorAnsatz.oscillator(2)
        t, y, s = Expr.var("t"), Expr.sym("y"), Expr.var("s")
        for direction in ("t", "y"):
            for shapes in ansatz.directions[direction].values():
                shapes.append(t * y)
        gen = solve_determining(with_switch(underdamped_series(), "s"),
                                ansatz, 2)
        assert gen.component("y", 1) == (t * y).scale(F(-1, 2))
        assert gen.component("t", 2) == (s * t).scale(F(1, 4))
        assert set(gen.components) == {("y", 1), ("t", 2)}
        assert gen.free_weights == [f"w_{d}_{j}_7" for d in "ty"
                                    for j in range(3)]

    def test_zeroth_order_is_identity(self):
        gen = solve_determining(with_switch(underdamped_series(), "s"),
                                GeneratorAnsatz.oscillator(0), 0)
        assert not gen.components

    def test_too_small_span_is_inconsistent(self):
        ys = with_switch(underdamped_series(), "s")
        t = Expr.var("t")
        dirs = {"t": {0: [Expr.num(1)], 1: [Expr.num(1)]},
                "y": {0: [Expr.num(1)], 1: [Expr.num(1), t]},
                "s": {}}
        with pytest.raises(DeterminingError):
            solve_determining(ys, GeneratorAnsatz(dirs), 1)

    def test_switch_takes_no_shapes(self):
        # the switch component is exactly 1; a shape for it is refused
        ansatz = GeneratorAnsatz.oscillator(1)
        ansatz.directions["s"] = {1: [Expr.num(1)]}
        with pytest.raises(DeterminingError, match="s-component is exactly 1"):
            solve_determining(with_switch(underdamped_series(), "s"),
                              ansatz, 1)

    def test_changed_weight_fails_verification(self, monkeypatch):
        seen = []
        monkeypatch.setattr(pertsym, "_verify_generator",
                            lambda *args: seen.append(args))
        gen = solve_determining(with_switch(underdamped_series(), "s"),
                                GeneratorAnsatz.oscillator(2), 2)
        monkeypatch.undo()
        E, sol, parameter, k = seen[0]
        pertsym._verify_generator(E, sol, parameter, k)
        solved = sorted(set(sol) - set(gen.free_weights))
        assert solved
        for w in solved:
            with pytest.raises(DeterminingError,
                               match="generator verification failed"):
                pertsym._verify_generator(E, {**sol, w: sol[w] + F(1, 7)},
                                          parameter, k)

    def test_burgers_generator(self):
        gen = burgers_generator()
        want = Expr.var("t") * Expr.sym("y") * Expr.sym("Ux")
        assert gen.component("x", 1) == want
        assert gen.component("x", 0).is_zero()
        assert gen.free_weights == []


class TestUnderdampedUniform:
    def test_canonical_text(self):
        u = underdamped_uniform(0.1, 1.0, 0.4)
        assert u.text() == "A*exp(-eps*t/2)*sin(t*exp(-eps^2/8) + theta)"

    def test_eps_zero_limit(self):
        u = underdamped_uniform(0.0, 1.3, 0.4)
        ts = np.linspace(0, 10, 50)
        assert np.allclose(u.evaluate(ts), 1.3 * np.sin(ts + 0.4))

    def test_third_order_accuracy(self):
        from hiddenscale.numlab import solve_ivp
        errs = []
        for ev in (0.1, 0.2):
            u = underdamped_uniform(ev, 1.0, 0.4)
            h = 1e-6
            y0 = [u.evaluate(0.0),
                  (u.evaluate(h) - u.evaluate(-h)) / (2 * h)]
            rhs = lambda t, y: [y[1], -y[0] - ev * y[1]]
            grid = np.linspace(0, 20, 101)
            ref = solve_ivp(rhs, y0, (0, 20), "rk4-fixed", step=1e-3,
                            t_eval=grid)
            errs.append(np.max(np.abs(u.evaluate(grid) - ref.states[:, 0])))
        assert 6 <= errs[1] / errs[0] <= 10


class TestLambertW:
    def test_special_values(self):
        assert lambert_w(0.0) == 0.0
        assert abs(lambert_w(math.e) - 1.0) < 1e-14

    def test_fixed_point_oracle_value(self):
        # oracle: damped fixed-point iteration w <- (w + z*exp(-w))/2-ish
        w = 0.5
        for _ in range(200):
            w = 0.5 * (w + math.exp(-w))
        assert abs(lambert_w(1.0) - w) < 1e-12
        assert abs(lambert_w(1.0) - 0.5671432904097838) < 1e-14

    def test_defining_identity_log_spaced(self):
        zs = -1 / math.e + 1e-6 * np.logspace(0, 12.0004, 1000)
        for z in zs:
            w = lambert_w(float(z))
            assert abs(w * math.exp(w) - z) <= 1e-13 * max(1.0, abs(z))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w(-1.0)

    def test_log_argument_variant(self):
        for L in (1.0, 10.0, 650.0, 1200.0, 5e4):
            w = lambert_w_exp_arg(L)
            # w + log(w) = L defines W(exp(L))
            assert abs(w + math.log(w) - L) < 1e-10 * max(1.0, L)


class TestBurgersFlow:
    def test_identity_at_time_zero(self):
        prof = Log1pProfile()
        assert burgers_ft_solve(prof, 0.0, 2.0, 0.1) == float(prof.U(2.0))

    def test_closed_form_agrees_with_root_finder(self):
        prof = Log1pProfile()
        rng = np.random.default_rng(42)
        for _ in range(100):
            t = float(rng.uniform(0.5, 20.0))
            x = float(rng.uniform(0.0, 5.0))
            u1 = burgers_ft_solve(prof, t, x, 0.1)
            u2 = burgers_closed_form(t, x, 0.1)
            assert abs(u1 - u2) <= 1e-10

    def test_implicit_relation_form(self):
        # for U = log(1+x) the relation is [z^2/2 + z] from e^u - 1 to x
        prof = Log1pProfile()
        t, x, eps = 3.0, 1.2, 0.1
        u = burgers_ft_solve(prof, t, x, eps)
        lhs = (x ** 2 / 2 + x) - ((math.exp(u) - 1) ** 2 / 2
                                  + (math.exp(u) - 1))
        assert abs(lhs - eps * t * u) < 1e-10

    def test_bare_series_value(self):
        x = np.array([0.0, 1.0])
        u = burgers_bare_series(2.0, x, 0.1)
        want = np.log1p(x) - 0.1 * 2.0 * np.log1p(x) / (1 + x) ** 2
        assert np.allclose(u, want)
