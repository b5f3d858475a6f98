"""Painting, flow-equation derivation, orbits and uniform solutions."""

import dataclasses
import random
import re
from fractions import Fraction as F
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiddenscale import cli, filament, ftflow, numlab
from hiddenscale.exprcore import (Expr, LinEq, OutOfClassError, Poly, Term,
                                 div_exact, evaluator_rhs,
                                 solve_linear_system)
from hiddenscale.ftflow import (FTInconsistent, FTSystem, FTUnderdetermined,
                                _verify_ft, assemble_uniform, cgo_rg_equation,
                                derive_ft_system, integrate_orbits,
                                most_divergent_filter, paint)
from hiddenscale.pertseries import (ConstantInfo, LinearOperator, ODEProblem,
                                    PertTerm, PerturbationSeries,
                                    build_bare_series)
from hiddenscale.specfile import ode_problem, parse_spec
from hiddenscale.textform import parse_expr

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# kdv's start values: R from the parameter A1, the phase from 0
KDV_STARTS = {"R": Expr.sym("A1"), "phi": Expr.zero()}


def flow_rhs(ft: FTSystem, env: dict):
    """The flows' rhs f(mu, y) at the values ``env``, as the numeric flows
    build it."""
    names = ft.unknown_names()
    return evaluator_rhs([ft.equations[n] for n in names], ft.mu, names, env)


def overdamped_series(order=1):
    L = LinearOperator.make([0, 1, 1], "tau")
    prob = ODEProblem(L, [PertTerm(1, Expr.num(1), ((0, 1),))], "eps", order,
                      constants_policy="zeroth-only",
                      constant_names={0: ["A", "B"]})
    return build_bare_series(prob)


def mathieu_series():
    L = LinearOperator.make([F(1, 4), 0, 1], "t")
    coeff = Expr.sym("a1") + Expr.cos({"t": 1}).scale(2)
    prob = ODEProblem(L, [PertTerm(1, coeff, ((0, 1),))], "eps", 1,
                      constants_policy="fresh-per-order",
                      constant_style="amp-cos",
                      constant_names={0: ["R", "theta"], 1: ["A", "B"]})
    return build_bare_series(prob)


def kdv_series():
    L = LinearOperator.make([0, 1, 0, 1], "th")
    beta = Expr.from_poly(Poly.sym("k", -2) * Poly.sym("delta", -2)).scale(9)
    prob = ODEProblem(L, [PertTerm(1, beta, ((0, 1), (1, 1)))], "eps", 2,
                      constant_style="amp-sin",
                      constant_names={0: ["c0", "R", "phi"]},
                      fixed_constants={"c0": 0})
    return build_bare_series(prob)


class TestPainting:
    def test_round_trip(self):
        s = overdamped_series()
        ps = paint(s, n_derivs=1)
        assert ps.restored() == s.full()

    def test_painted_form(self):
        s = overdamped_series()
        ps = paint(s, n_derivs=1)
        A, B, mu = Expr.sym("A"), Expr.sym("B"), Expr.var("mu")
        e = Expr.exp("tau", -1)
        want = A + B * e + Expr.sym("eps") * (-A * mu + B * mu * e)
        assert ps.painted == want

    def test_identity_painting(self):
        s = PerturbationSeries([Expr.sym("A") + Expr.sym("B")
                                * Expr.exp("tau", -1)],
                               [ConstantInfo("A", 0, "param"),
                                ConstantInfo("B", 0, "param")], "eps", "tau")
        ps = paint(s, 1)
        assert ps.painted == s.full()

    def test_mathieu_painting_targets_secular_terms_only(self):
        s = mathieu_series()
        ps = paint(s, n_derivs=0)
        painted_terms = [t for t in ps.painted.terms if t.vpow("mu")]
        assert len(painted_terms) == 4   # two secular atoms, conjugate pairs
        assert all(t.vpow("t") == 0 for t in ps.painted.terms)

    def test_special_solution_has_no_divergent_term(self):
        for s in (overdamped_series(), mathieu_series(),
                  most_divergent_filter(kdv_series())):
            ps = paint(s, 1)
            special = ps.special_solution()
            assert all(t.vpow("mu") == 0 and t.vpow(s.variable) == 0
                       for t in special.terms)

    def test_derivatives_painted_after_differentiation(self):
        s = overdamped_series()
        ps = paint(s, n_derivs=1)
        dy = s.full().diff("tau")
        B, mu = Expr.sym("B"), Expr.var("mu")
        e = Expr.exp("tau", -1)
        want = -B * e + Expr.sym("eps") * (-Expr.sym("A") + B * e
                                           - B * mu * e)
        assert ps.painted_derivs[0] == want


class TestMostDivergent:
    def test_keeps_fastest_growth_per_order(self):
        tau = Expr.var("tauv")
        A, B = Expr.sym("A"), Expr.sym("B")
        orders = [Expr.num(1), A + B * tau,
                  (B ** 2 * tau ** 2).scale(F(-1, 2)) + B * tau + A]
        s = PerturbationSeries(orders, [ConstantInfo("A", 1, "param"),
                                        ConstantInfo("B", 1, "param")],
                               "a", "tauv")
        f = most_divergent_filter(s)
        assert f.orders[2] == (B ** 2 * tau ** 2).scale(F(-1, 2))

    def test_single_term_unchanged(self):
        s = PerturbationSeries([Expr.sym("A")],
                               [ConstantInfo("A", 0, "param")], "a", "x")
        assert most_divergent_filter(s).orders[0] == Expr.sym("A")

    def test_kdv_drops_bounded_second_order(self):
        s = kdv_series()
        f = most_divergent_filter(s)
        assert all(t.vpow("th") == 1 for t in f.orders[2].terms)
        assert f.orders[1] == s.orders[1]


class TestDeriveFT:
    def test_overdamped_flows(self):
        ps = paint(overdamped_series(), 1)
        ft = derive_ft_system(ps, 1)
        eps = Expr.sym("eps")
        assert ft.equations["A"] == eps * Expr.sym("A")
        assert ft.equations["B"] == -(eps * Expr.sym("B"))

    def test_overdamped_second_order_flows(self):
        ps = paint(overdamped_series(2), 1)
        ft = derive_ft_system(ps, 2)
        eps = Expr.sym("eps")
        want = (eps + eps ** 2) * Expr.sym("A")
        assert ft.equations["A"] == want

    def test_mathieu_flows(self):
        ps = paint(mathieu_series(), 1)
        ft = derive_ft_system(ps, 1)
        R, eps = Expr.sym("R"), Expr.sym("eps")
        assert ft.equations["R"] == -(eps * R * Expr.sin({}, {"theta": 2}))
        assert ft.equations["theta"] == -(eps * (Expr.cos({}, {"theta": 2})
                                                 + Expr.sym("a1")))

    def test_kdv_flows(self):
        ps = paint(most_divergent_filter(kdv_series()), 1)
        ft = derive_ft_system(ps, 2)
        R = Expr.sym("R")
        k4d4 = Expr.from_poly(Poly.sym("k", -4) * Poly.sym("delta", -4))
        want = (Expr.sym("eps") ** 2 * R ** 2 * k4d4
                * (Expr.cos({}, {"phi": 2}).scale(6) - Expr.num(1))
                ).scale(F(27, 16))
        assert ft.equations["phi"] == want
        assert ft.equations["R"].is_zero()

    def test_flows_kill_all_determined_orders(self):
        ps = paint(overdamped_series(), 1)
        ft = derive_ft_system(ps, 1)
        chain = {c.name: c.name + "'" for c in ft.unknowns}
        for e in ps.exprs():
            res = e.diff("mu", chain)
            for c in ft.unknowns:
                res = res.subs_param(c.name + "'", ft.equations[c.name])
            for m in range(2):
                assert res.collect_order("eps", m).is_zero()

    def test_inconsistent_painting_detected(self):
        # painting only the series (not the derivative) of an expression
        # whose derivative carries an incompatible secular structure
        tau = Expr.var("tau")
        A = Expr.sym("A")
        orders = [A, A * tau * Expr.exp("tau", -1) + A * tau]
        s = PerturbationSeries(orders, [ConstantInfo("A", 0, "param")],
                               "eps", "tau")
        ps = paint(s, 1)
        with pytest.raises((FTInconsistent, FTUnderdetermined)):
            derive_ft_system(ps, 1)

    @pytest.mark.parametrize("case", [overdamped_series, mathieu_series,
                                      "filament"])
    def test_changed_flow_fails_verification(self, case):
        # a term added to one flow is caught at every checked part, and
        # not looked at above them: eps**m * x at the orders m <= top, and
        # for the graded filament flows at the grades <= 1
        if case == "filament":
            spec = parse_spec(CORPUS / "filament.spec")
            ft = filament.derive(ode_problem(spec)).ft
            v, delta, a = Expr.var("v"), Expr.sym("delta"), Expr.sym("alpha1")
            changes = [(a * v, True), (delta * v, True),
                       (delta * a * v, False)]
        else:
            ft = derive_ft_system(paint(case(), 1), 1)
            top = min(ft.order, min(ft.determined_orders.values()) + 1)
            changes = [(Expr.sym("eps", m) * Expr.var(ft.variable), m <= top)
                       for m in range(top + 2)]
        name = ft.unknowns[0].name
        for change, caught in changes:
            changed = dataclasses.replace(
                ft, equations={**ft.equations,
                               name: ft.equations[name] + change})
            if caught:
                with pytest.raises(FTInconsistent,
                                   match="flow verification failed"):
                    _verify_ft(changed)
            else:
                _verify_ft(changed)

    @pytest.mark.parametrize("case", [overdamped_series, mathieu_series,
                                      kdv_series, "filament"])
    def test_prime_split_matches_chained_coeff_linear(self, case):
        # the one-pass split of each flow equation against one coeff_linear
        # per prime, as the primes were split before it
        if case == "filament":
            ft = filament.derive(ode_problem(
                parse_spec(CORPUS / "filament.spec"))).ft
        else:
            ft = derive_ft_system(paint(most_divergent_filter(case()), 1), 1)
        primes = [c.name + "'" for c in ft.unknowns]
        for eq in ft.raw_equations:
            want, rest = {}, eq
            for p in primes:
                c, rest = rest.coeff_linear(p)
                if not c.is_zero():
                    want[p] = c
            assert ftflow._split_linear_in_primes(eq, primes) == (want, rest)
        # a prime squared, or two primes in one monomial, is refused
        p, q = (Expr.sym(s) for s in primes[:2])
        for bad in (p * p, p * q + Expr.num(1)):
            with pytest.raises(OutOfClassError, match="does not occur"):
                ftflow._split_linear_in_primes(bad, primes)


class TestOrbits:
    def test_overdamped_exponential_flows(self):
        ps = paint(overdamped_series(), 1)
        ft = derive_ft_system(ps, 1)
        flows = integrate_orbits(ft, "tau")
        A = flows.flows["A"]
        assert A.kind == "exp"
        assert A.value0 == Expr.sym("A~") * Expr.exp("tau",
                                                     Poly.sym("eps").scale(-1))
        B = flows.flows["B"]
        assert B.value0 == Expr.sym("B~") * Expr.exp("tau", Poly.sym("eps"))

    def test_identity_at_start_point(self):
        ps = paint(mathieu_series(), 1)
        ft = derive_ft_system(ps, 1)
        flows = integrate_orbits(ft, "t")
        env = {"eps": 0.15, "a1": 1.2, "R~": 1.0, "theta~": 0.3}
        v0 = flows.values(0.0, env)
        assert abs(v0["R"] - 1.0) < 1e-9 and abs(v0["theta"] - 0.3) < 1e-9

    def test_numeric_flow_matches_direct_integration(self):
        ps = paint(mathieu_series(), 1)
        ft = derive_ft_system(ps, 1)
        flows = integrate_orbits(ft, "t")
        env = {"eps": 0.15, "a1": 1.2, "R~": 1.0, "theta~": 0.3}
        vals = flows.values(6.0, env)
        from hiddenscale.numlab import solve_ivp
        f = flow_rhs(ft, env)
        direct = solve_ivp(f, [1.0, 0.3], (6.0, 0.0), "rk45-adaptive",
                           tol=1e-12)
        assert abs(vals["R"] - direct.states[-1, 0]) < 1e-8
        assert abs(vals["theta"] - direct.states[-1, 1]) < 1e-8

    @pytest.mark.parametrize("system", ["mathieu", "mu-dependent", "kdv"])
    def test_rhs_callable_matches_reference(self, system):
        # repeated and decreasing mu give exactly the reference values
        if system == "mathieu":
            ft = derive_ft_system(paint(mathieu_series(), 1), 1)
            env = {"eps": 0.15, "a1": 1.2, "R~": 1.0, "theta~": 0.3}
        elif system == "kdv":
            # phase terms in delta^-4*k^-4
            ft = derive_ft_system(
                paint(most_divergent_filter(kdv_series()), 1), 2)
            env = {"eps": 0.14, "k": 1.0, "delta": 3 ** 0.5}
        else:
            ft = FTSystem("mu", "x", "eps", 1, [ConstantInfo("A", 0, "param")],
                          {"A": Expr.sym("eps") * Expr.var("mu")
                           * Expr.sym("A")}, {"A": 1})
            env = {"eps": 0.1, "A~": 1.5}
        names = ft.unknown_names()
        exprs = [ft.equations[n] for n in names]

        def reference(mu_val, y):
            e = dict(env)
            e[ft.mu] = float(mu_val)
            e.update({n: float(v) for n, v in zip(names, y)})
            return np.array([x.eval(e).real for x in exprs])
        f = flow_rhs(ft, env)
        rng = np.random.default_rng(23)
        mus = np.repeat(rng.uniform(-10.0, 40.0, 50), 2)
        for mu in mus.tolist():
            y = rng.uniform(-3.0, 3.0, len(names))
            assert np.array_equal(f(mu, y), reference(mu, y)), mu

    def test_exp_overflow_is_a_solver_error(self):
        # cmath.exp raises OverflowError where np.exp gives inf; the numeric
        # flow reports either as a non-finite rhs
        ft = FTSystem("mu", "x", "eps", 1, [ConstantInfo("A", 0, "param")],
                      {"A": Expr.sym("eps") * Expr.exp("A", 1)}, {"A": 1})
        f = flow_rhs(ft, {"eps": 0.1})
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(numlab.SolverError,
                              match=r"^NaN/Inf in rhs at t=0.0$"):
            numlab.solve_ivp(f, [800.0], (0.0, 1.0), "rk45-adaptive")

    @pytest.mark.parametrize("start", [Expr.sym("A1"), Expr.num(1)],
                             ids=["A1", "1"])
    def test_phase_start_value_must_be_zero(self, start):
        ps = paint(most_divergent_filter(kdv_series()), 1)
        ft = derive_ft_system(ps, 2)
        with pytest.raises(OutOfClassError, match="only 0 stays in class"):
            integrate_orbits(ft, "th", tilde_values={"R": Expr.sym("A1"),
                                                     "phi": start})


def _pipeline(tmp_path, operator, perturbation, order, extra=""):
    """A spec in y(t) with the given equation, and its pipeline's flows."""
    path = tmp_path / "orbit.spec"
    path.write_text(
        "name = orbit\nkind = ode-hidden-scale\nsymbols.variable = t\n"
        f"symbols.parameter = eps\nequation.operator = {operator}\n"
        f"equation.perturbation = {perturbation}\nmethod.order = {order}\n"
        + extra)
    spec = parse_spec(path)
    return spec, cli.hidden_scale_pipeline(spec)[4]


def _flow_texts(flows):
    return {n: (f.kind, f.text("t")) for n, f in flows.flows.items()}


class TestOrbitPatterns:
    """Closed orbits outside the expression class and the quadratures."""

    def test_power_law_and_log_quadrature(self, tmp_path):
        # y'' + eps*y'^2 = 0: A2' = eps*A2^2 and A1' = -A2
        spec, flows = _pipeline(
            tmp_path, "D2", "eps*Dy^2", 1,
            "params.eps = 0.1\noptions.tilde_A1 = 1\noptions.tilde_A2 = 0.5\n"
            "validate.grid = 0 20 201\n")
        assert _flow_texts(flows) == {
            "A2": ("powerlaw", "A2~/(1 + (eps)*A2~*t)"),
            "A1": ("quad", "A1~ + (eps^-1)*log(1 + (A2~*eps)*t)")}
        ts = np.array([0.0, 5.0, 20.0])
        vals = flows.values(ts, {"eps": 0.1, "A1~": 1.0, "A2~": 0.5})
        np.testing.assert_allclose(vals["A2"], 0.5 / (1 + 0.05 * ts),
                                   rtol=1e-15)
        np.testing.assert_allclose(vals["A1"], 1 + 10 * np.log1p(0.05 * ts),
                                   rtol=1e-15)
        text = cli.run_validate(spec, None).text()
        sup = float(re.search(r"sup error vs oracle: (\S+)", text).group(1))
        assert sup <= 1e-8

    def test_power_law_prints_its_start_value(self, tmp_path):
        # a start value named by a parameter replaces the tilde in the text,
        # in the power law and in the logarithm quadrature against it
        ft = _pipeline(tmp_path, "D2", "eps*Dy^2", 1)[1].ft
        flows = integrate_orbits(ft, "t", tilde_values={"A2": Expr.sym("B0")})
        assert _flow_texts(flows) == {
            "A2": ("powerlaw", "B0/(1 + (eps)*B0*t)"),
            "A1": ("quad", "A1~ + (eps^-1)*log(1 + (B0*eps)*t)")}
        ts = np.array([0.0, 5.0, 20.0])
        vals = flows.values(ts, {"eps": 0.1, "A1~": 1.0, "B0": 0.5})
        np.testing.assert_allclose(vals["A2"], 0.5 / (1 + 0.05 * ts),
                                   rtol=1e-15)
        np.testing.assert_allclose(vals["A1"], 1 + 10 * np.log1p(0.05 * ts),
                                   rtol=1e-15)

    def test_most_divergent_filter_keeps_order_zero(self, tmp_path):
        # the zeroth order A1 + A2*t is secular; filtering it would drop A1
        errors = {}
        for flag in ("true", "false"):
            spec, _flows = _pipeline(
                tmp_path, "D2", "eps*Dy^2", 1,
                f"method.most_divergent = {flag}\nparams.eps = 0.1\n"
                "options.tilde_A1 = 1\noptions.tilde_A2 = 0.5\n"
                "validate.grid = 0 20 201\n")
            lines = cli.run_validate(spec, None).lines
            errors[flag] = [ln for ln in lines
                            if ln.startswith("sup error vs oracle: ")]
            if flag == "true":
                assert "A2(0) = A2~/(1 + (eps)*A2~*t)" in lines
        # the same error as without the filter
        assert len(errors["true"]) == 1
        assert errors["true"] == errors["false"]

    def test_const_and_quadrature_through_solved_orbits(self, tmp_path):
        _spec, flows = _pipeline(tmp_path, "D2", "eps*cos(t)*y", 1)
        assert _flow_texts(flows) == {
            "A2": ("const", "A2~"),
            "A1": ("quad-expr", "A1~ + (A2~ + 2*A2~*eps)*t")}

    def test_frozen_amplitude_has_a_closed_value(self, tmp_path):
        _spec, flows = _pipeline(tmp_path, "D2 + D1", "eps*Dy", 2)
        assert _flow_texts(flows) == {
            "A2": ("exp", "A2~*exp(-eps*t)"),
            "A1": ("frozen", "A1~ + A2~*eps^2*t")}


class TestUniform:
    def test_overdamped_closed_form(self):
        ps = paint(overdamped_series(), 1)
        ft = derive_ft_system(ps, 1)
        uni = assemble_uniform(ps, integrate_orbits(ft, "tau"))
        want = Expr.sym("A~") * Expr.exp("tau", Poly.sym("eps").scale(-1)) \
            + Expr.sym("B~") * Expr.exp("tau", Poly.sym("eps") - Poly.num(1))
        assert uni.symbolic == want

    def test_no_divergence_gives_back_series(self):
        s = PerturbationSeries(
            [Expr.sym("A") + Expr.sym("B") * Expr.exp("tau", -1)],
            [ConstantInfo("A", 0, "param"), ConstantInfo("B", 0, "param")],
            "eps", "tau")
        ps = paint(s, 1)
        ft = derive_ft_system(ps, 1)
        uni = assemble_uniform(ps, integrate_orbits(ft, "tau"))
        want = s.full().rename("A", "A~").rename("B", "B~")
        assert uni.symbolic == want

    def test_kdv_strained_coordinate_exponent(self):
        ps = paint(most_divergent_filter(kdv_series()), 1)
        ft = derive_ft_system(ps, 2)
        flows = integrate_orbits(ft, "th", tilde_values=KDV_STARTS)
        uni = assemble_uniform(ps, flows)
        q = (Poly.sym("A1", 2) * Poly.sym("eps", 2) * Poly.sym("k", -4)
             * Poly.sym("delta", -4)).scale(F(135, 16))
        freqs = {dict(t.phases()).get("th") for t in uni.symbolic.terms
                 if dict(t.phases()).get("th") is not None}
        assert (Poly.num(1) - q) in freqs

    def test_symbolic_evaluator_agreement(self):
        # scalar and grid evaluation against per-point Expr.eval
        ps = paint(overdamped_series(), 1)
        ft = derive_ft_system(ps, 1)
        uni = assemble_uniform(ps, integrate_orbits(ft, "tau"))
        rng = np.random.default_rng(5)
        for _ in range(20):
            env = {"eps": float(rng.uniform(0.01, 0.3)),
                   "A~": float(rng.uniform(-2, 2)),
                   "B~": float(rng.uniform(-2, 2))}
            x = float(rng.uniform(0, 10))
            direct = uni.symbolic.eval({**env, "tau": x}).real
            assert abs(uni.evaluate(x, env) - direct) < 1e-12
        ps = paint(most_divergent_filter(kdv_series()), 1)
        ft = derive_ft_system(ps, 2)
        kdv = assemble_uniform(ps, integrate_orbits(
            ft, "th", tilde_values=KDV_STARTS))
        grid = np.linspace(0.0, 60.0, 601)
        for u, var, env in (
                (uni, "tau", {"eps": 0.2, "A~": 1.3, "B~": -0.7}),
                (kdv, "th", {"eps": 0.14, "A1": 0.5, "k": 1.0,
                             "delta": 1.7320508075688772})):
            direct = np.array([u.symbolic.eval({**env, var: float(x)}).real
                               for x in grid])
            got = u.evaluate(grid, env)
            assert got.shape == grid.shape
            assert np.max(np.abs(got - direct)) \
                <= 1e-13 * np.max(np.abs(direct))

    def _mathieu_uniform(self):
        ps = paint(mathieu_series(), 1)
        return assemble_uniform(ps, integrate_orbits(
            derive_ft_system(ps, 1), "t"))

    def test_numeric_grid_matches_points(self):
        env = {"eps": 0.15, "a1": 1.2, "R~": 1.0, "theta~": 0.3,
               "A": 0.0, "B": 0.0}
        grid = np.linspace(0.0, 30.0, 301)
        got = self._mathieu_uniform().evaluate(grid, env)
        uni = self._mathieu_uniform()
        points = np.array([uni.evaluate(float(t), env) for t in grid])
        assert got.shape == grid.shape
        assert np.max(np.abs(got - points)) < 1e-9

    def test_numeric_grid_integrates_once_per_env(self, monkeypatch):
        calls = []
        solve = numlab.solve_ivp

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)
        monkeypatch.setattr(numlab, "solve_ivp", counted)
        uni = self._mathieu_uniform()
        grid = np.linspace(0.0, 30.0, 301)
        for ev in (0.15, 0.075):
            env = {"eps": ev, "a1": 1.2, "R~": 1.0, "theta~": 0.3,
                   "A": 0.0, "B": 0.0}
            before = len(calls)
            uni.evaluate(grid, env)
            assert len(calls) == before + 1

    def test_nonautonomous_numeric_flow_on_a_grid(self):
        # A' = eps*mu*A depends on mu, so each start point x is integrated
        # from mu = x down to 0: A(0) = A~*exp(-eps*x^2/2)
        ft = FTSystem("mu", "x", "eps", 1, [ConstantInfo("A", 0, "param")],
                      {"A": Expr.sym("eps") * Expr.var("mu") * Expr.sym("A")},
                      {"A": 1})
        flows = integrate_orbits(ft, "x")
        assert flows.flows["A"].kind == "numeric"
        env = {"eps": 0.1, "A~": 1.5}
        grid = np.linspace(0.0, 4.0, 9)
        got = flows.values(grid, env)["A"]
        assert got.shape == grid.shape
        np.testing.assert_allclose(got, 1.5 * np.exp(-0.1 * grid ** 2 / 2),
                                   rtol=1e-9, atol=0)
        points = [flows.values(float(x), env)["A"] for x in grid]
        assert all(isinstance(v, float) for v in points)
        assert np.array_equal(got, points)

    def test_uniform_residual_scales_with_truncation(self):
        # finite-difference residual of the uniform solution in the full ODE
        ps = paint(overdamped_series(), 1)
        ft = derive_ft_system(ps, 1)
        uni = assemble_uniform(ps, integrate_orbits(ft, "tau"))
        cs = []
        for ev in (0.05, 0.1, 0.2):
            env = {"eps": ev, "A~": 1.0, "B~": 1.0}
            h = 1e-4
            grid = np.linspace(0.5, 10.0, 41)
            res = []
            for x in grid:
                y = [uni.evaluate(float(x + d), env) for d in (-h, 0, h)]
                d1 = (y[2] - y[0]) / (2 * h)
                d2 = (y[2] - 2 * y[1] + y[0]) / h ** 2
                res.append(abs(d2 + d1 + ev * y[1]))
            cs.append(max(res) / ev ** 2)
        assert max(cs) / min(cs) < 3.0


class TestCGO:
    def _split(self, sval):
        A, B, eps = Expr.sym("A"), Expr.sym("B"), Expr.sym("eps")
        tau, tau0 = Expr.var("tau"), Expr.var("tau0")
        e_t, e_t0 = Expr.exp("tau", -1), Expr.exp("tau0", -1)
        sv = Expr.num(sval) if not isinstance(sval, str) else Expr.sym(sval)
        return (A + B * e_t + eps * (-(A * (tau - tau0))
                + B * (tau * e_t - sv * tau0 * e_t0
                       - (Expr.num(1) - sv) * tau0 * e_t)))

    def test_zero_splitting_gives_determined_pair(self):
        y = self._split(0)
        res = cgo_rg_equation(y, [y.diff("tau")], "tau", "tau0", ["A", "B"],
                              truncate_order=1, parameter="eps")
        A, B, eps = Expr.sym("A"), Expr.sym("B"), Expr.sym("eps")
        Ap, Bp = Expr.sym("A'"), Expr.sym("B'")
        e_t0 = Expr.exp("tau0", -1)
        assert res.equations[0] == Ap + Bp * e_t0 + eps * (A - B * e_t0)
        assert res.equations[1] == -(Bp * e_t0) + eps * B * e_t0
        assert not res.underdetermined

    def test_general_splitting_underdetermined(self):
        res = cgo_rg_equation(self._split("s"), [], "tau", "tau0",
                              ["A", "B"], truncate_order=1, parameter="eps")
        assert res.underdetermined
        assert "s" in res.diagnostic

    def test_no_divergence_constant_flows(self):
        # with no secular term the equations are the flows alone, which
        # the truncation at order 1 keeps whole
        A, B = Expr.sym("A"), Expr.sym("B")
        y = A + B * Expr.exp("tau", -1)
        res = cgo_rg_equation(y, [y.diff("tau")], "tau", "tau0", ["A", "B"],
                              truncate_order=1, parameter="eps")
        assert res.equations[0] == Expr.sym("A'") \
            + Expr.sym("B'") * Expr.exp("tau0", -1)
        assert not res.underdetermined


class TestLinearSolver:
    def test_div_exact_single_term(self):
        num = Expr.sym("A") * Expr.var("mu", 2)
        den = Expr.var("mu")
        assert div_exact(num, den) == Expr.sym("A") * Expr.var("mu")

    def test_div_exact_multi_term(self):
        q = Expr.sym("A") + Expr.var("mu")
        den = Expr.num(2) + Expr.sym("B")
        assert div_exact(q * den, den) == q

    def test_inexact_division_raises(self):
        with pytest.raises(OutOfClassError):
            div_exact(Expr.sym("A"), Expr.var("mu"))

    # exact quotients of phase sums, where dividing the first or last atom
    # of the remainder by the first or last atom of the divisor does not
    # reach the quotient
    @pytest.mark.parametrize("q", ["R + A*cos(2*phi)", "cos(phi) + sin(3*phi)"])
    @pytest.mark.parametrize("den", ["sin(2*phi)", "A + R*sin(2*phi)",
                                     "B + cos(2*phi)"])
    def test_div_exact_trig(self, q, den):
        q, den = parse_expr(q, ["phi"]), parse_expr(den, ["phi"])
        assert div_exact(q * den, den) == q

    def test_overdetermined_consistent_system(self):
        x, y = ("x",), ("y",)
        eqs = [LinEq({x: Expr.num(1)}, -Expr.sym("A")),
               LinEq({y: Expr.num(2)}, Expr.num(4)),
               LinEq({x: Expr.num(1), y: Expr.num(1)},
                     -Expr.sym("A") + Expr.num(2))]
        sol, free, leftovers = solve_linear_system(eqs)
        assert sol[x] == Expr.sym("A")
        assert sol[y] == Expr.num(-2)
        assert free == []
        assert not leftovers


# ---------------------------------------------------------------------------
# The block solve against the generic solve of the whole flow system.

ODE_SPECS = sorted(p.stem for p in CORPUS.glob("*.spec")
                   if "kind = ode-hidden-scale" in p.read_text())


@pytest.mark.parametrize("name", ODE_SPECS)
def test_derive_computes_each_intermediate_once(monkeypatch, name):
    # calls counted over the parse and two derives of one parsed spec: the
    # roots and the zero-start elimination are the operator's, computed
    # once (the parse checks each operator it reads, a scripted spec's
    # text too); each scalar equation is split into primes once, and no
    # label is printed where nothing fails
    from hiddenscale import pertseries, specfile, textform
    counts = dict.fromkeys(("ops", "roots", "elim", "scalar", "split",
                            "text"), 0)
    inside = [0]

    def counting(key, f, size=lambda out: 1, only_inside=False):
        def wrapped(*args, **kwargs):
            out = f(*args, **kwargs)
            if inside[0] or not only_inside:
                counts[key] += size(out)
            return out
        return wrapped

    def derive_ft_system(*args, **kwargs):
        inside[0] += 1
        try:
            return derive(*args, **kwargs)
        finally:
            inside[0] -= 1
    derive = ftflow.derive_ft_system
    monkeypatch.setattr(ftflow, "derive_ft_system", derive_ft_system)
    monkeypatch.setattr(np, "roots", counting("roots", np.roots))
    monkeypatch.setattr(specfile, "parse_operator",
                        counting("ops", specfile.parse_operator))
    monkeypatch.setattr(pertseries, "Elimination",
                        counting("elim", pertseries.Elimination))
    monkeypatch.setattr(ftflow, "_scalar_equations",
                        counting("scalar", ftflow._scalar_equations, len))
    monkeypatch.setattr(ftflow, "_split_linear_in_primes", counting(
        "split", ftflow._split_linear_in_primes, only_inside=True))
    monkeypatch.setattr(textform, "expr_text", counting(
        "text", textform.expr_text, only_inside=True))
    spec = parse_spec(CORPUS / f"{name}.spec")
    parsed = dict(counts)
    cli.run_derive(spec, False)
    once = dict(counts)
    cli.run_derive(spec, False)
    n = spec.operator.order
    zero_start = spec.constants_policy == "fresh-at-zeroth-order"
    assert 0 < parsed["roots"] <= n * parsed["ops"]
    assert counts["roots"] == parsed["roots"]
    assert once["elim"] == counts["elim"] == int(zero_start)
    assert once["split"] == once["scalar"] > 0
    assert counts["split"] == counts["scalar"] == 2 * once["scalar"]
    assert counts["text"] == 0
    assert name != "kdv" or zero_start


def test_verify_ft_splits_what_it_is_not_given():
    # a caller with only the FTSystem gets the split of its raw equations
    ft = derive_ft_system(paint(most_divergent_filter(kdv_series()), 1), 1)
    primes = [c.name + "'" for c in ft.unknowns]
    splits = [ftflow._split_linear_in_primes(eq, primes)
              for eq in ft.raw_equations]
    _verify_ft(ft)
    _verify_ft(ft, splits)
    name = ft.unknowns[0].name
    changed = dataclasses.replace(
        ft, equations={**ft.equations,
                       name: ft.equations[name] + Expr.var(ft.variable)})
    for args in ((changed,), (changed, splits)):
        with pytest.raises(FTInconsistent, match="flow verification failed"):
            _verify_ft(*args)


def _flow_entry(rng: random.Random) -> Expr:
    # numbers, single terms and, rarely, a sum that no entry divides
    r = rng.random()
    if r < 0.2:
        return Expr.zero()
    if r < 0.65:
        return Expr.num(F(rng.randint(-3, 3), rng.randint(1, 2)))
    if r < 0.8:
        return Expr.sym("A", rng.randint(1, 2)) * rng.randint(1, 2)
    if r < 0.95:
        return Expr.exp("x", -1) * rng.randint(1, 2)
    return Expr.exp("x", -1) + Expr.num(rng.randint(1, 2))


def _random_flow_rows(rng: random.Random, graded: bool):
    """(rows, flow parts, unit) in ``derive_ft_system``'s row form, grades
    in sixths (unit 6) with a declared grade of 1/2: a random
    order-0 block, singular at times (a zero entry, a zero row, fewer rows
    than constants), random higher blocks, sometimes a coefficient at a
    grade no part solves, and constants made for a random solution, then
    at times perturbed or drawn at random."""
    names = [f"C{i}" for i in range(rng.randint(1, 3))]
    k = rng.randint(0, 1 if graded else 2)
    unit = 6
    lattice = ftflow._grade_lattice({"a": 3} if graded else {}, k * unit)
    off = [2] if graded and rng.random() < 0.2 else []
    rows = []
    for r in range(rng.randint(1, len(names) + 1)):
        zero_row = rng.random() < 0.15
        parts = {}
        for c in names:
            if rng.random() < 0.1:
                continue
            parts[c] = [{h: _flow_entry(rng) for h in lattice + off
                         if j * unit + h <= k * unit and (j, h) != (0, 0)
                         and rng.random() < 0.5} for j in range(k + 1)]
            if not zero_row:
                parts[c][0][0] = _flow_entry(rng)
        rows.append(((r, Term(Poly.num(1)), "re"), parts,
                     [{} for _ in range(k + 1)]))
    flow_parts = ftflow._flow_parts(lattice, k, unit)
    values: dict = {}
    for _label, parts, consts in rows:
        for m, g in flow_parts:
            if rng.random() < 0.1:
                consts[m][g] = _flow_entry(rng)
                continue
            b = Expr.zero()
            for key, c in ftflow._part_coeffs(parts, m, g).items():
                if key not in values:
                    values[key] = _flow_entry(rng)
                b = b - c * values[key]
            if rng.random() < 0.1:
                b = b + Expr.num(1)
            consts[m][g] = b
    return rows, flow_parts, unit


def _flow_outcome(rows, flow_parts, unit):
    try:
        return ftflow._solve_flow_rows(rows, flow_parts, unit)
    except (FTInconsistent, FTUnderdetermined, OutOfClassError) as err:
        return f"{type(err).__name__}: {err}"


@hypothesis.seed(34)
@given(st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=200, deadline=None)
def test_block_solve_matches_generic_solve(seed, graded):
    # derive_ft_system's solve, block by block, against the same solve with
    # the block path off: the solution, or the exception's type and message
    rows, flow_parts, unit = _random_flow_rows(random.Random(seed), graded)
    fast = _flow_outcome(rows, flow_parts, unit)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ftflow, "_block_solve", lambda *args: None)
        slow = _flow_outcome(rows, flow_parts, unit)
    assert fast == slow


def test_random_flow_systems_take_both_paths():
    # with and without grades, the systems above reach the block solve,
    # its fallback with a solution, and the generic solve's exceptions
    kinds = set()
    for seed in range(100):
        for graded in (False, True):
            rows, flow_parts, unit = _random_flow_rows(random.Random(seed),
                                                       graded)
            block = ftflow._block_solve(rows, flow_parts, unit) is not None
            out = _flow_outcome(rows, flow_parts, unit)
            kinds.add((graded, block, out.split(":")[0]
                       if isinstance(out, str) else "solution"))
    for graded in (False, True):
        assert {(graded, True, "solution"), (graded, False, "solution"),
                (graded, False, "FTInconsistent"),
                (graded, False, "FTUnderdetermined")} <= kinds
