"""Problem-spec grammar lock and validation diagnostics."""

from fractions import Fraction as F
from pathlib import Path

import pytest

from hiddenscale import cli
from hiddenscale.exprcore import Expr
from hiddenscale.specfile import (SpecError, ode_problem, parse_operator,
                                  parse_spec)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def write_spec(tmp_path, text):
    p = tmp_path / "case.spec"
    p.write_text(text)
    return p


MINIMAL = """\
name = case
kind = ode-hidden-scale
symbols.variable = tau
symbols.parameter = eps
symbols.constants = A B
equation.operator = D2 + D1
equation.perturbation = eps*y
method.order = 1
method.constants.order0 = A B
params.eps = 0.2
"""


FILAMENT_METHOD = ("options.scripted = filament derives only with "
                   "method.order = 1, method.derivatives = 1")


class TestGrammar:
    def test_minimal_spec_parses(self, tmp_path):
        spec = parse_spec(write_spec(tmp_path, MINIMAL))
        assert spec.kind == "ode-hidden-scale"
        assert spec.params["eps"] == 0.2
        assert spec.operator.coeffs == (F(0), F(1), F(1))
        prob = ode_problem(spec)
        assert prob.perturbations[0].eps_power == 1

    def test_comments_and_blank_lines(self, tmp_path):
        spec = parse_spec(write_spec(tmp_path,
                                     "# header\n\n" + MINIMAL + "\n# tail\n"))
        assert spec.name == "case"

    def test_operator_with_rational_coefficient(self):
        L = parse_operator("D2 + 1/4*D0", "t")
        assert L.coeffs == (F(1, 4), F(0), F(1))

    def test_operator_with_minus(self):
        L = parse_operator("D4 - 2*D2 + D0", "t")
        assert L.coeffs == (F(1), F(0), F(-2), F(0), F(1))

    def test_undeclared_symbol_is_named_with_line(self, tmp_path):
        bad = MINIMAL.replace("eps*y", "eps*gamma*y")
        with pytest.raises(SpecError) as exc:
            parse_spec(write_spec(tmp_path, bad))
        assert "gamma" in str(exc.value)
        assert "line 7" in str(exc.value)

    def test_malformed_number(self, tmp_path):
        bad = MINIMAL.replace("params.eps = 0.2", "params.eps = zero.two")
        with pytest.raises(SpecError) as exc:
            parse_spec(write_spec(tmp_path, bad))
        assert "zero.two" in str(exc.value)

    @pytest.mark.parametrize("order", ["two", "-3", "0"])
    def test_bad_method_order_rejected(self, tmp_path, order):
        bad = MINIMAL.replace("method.order = 1", f"method.order = {order}")
        with pytest.raises(SpecError) as exc:
            parse_spec(write_spec(tmp_path, bad))
        assert str(exc.value).startswith("line 8: method.order")
        assert repr(order) in str(exc.value)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(SpecError) as exc:
            parse_spec(write_spec(tmp_path, MINIMAL + "mystery.key = 1\n"))
        assert "mystery.key" in str(exc.value)

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(SpecError):
            parse_spec(write_spec(tmp_path, MINIMAL + "params.eps = 0.3\n"))

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(SpecError):
            parse_spec(write_spec(tmp_path,
                                  MINIMAL.replace("ode-hidden-scale", "pde")))

    def test_missing_file(self):
        with pytest.raises(SpecError):
            parse_spec("/nonexistent/nope.spec")

    def test_perturbation_needs_eps_power(self, tmp_path):
        bad = MINIMAL.replace("eps*y", "y")
        with pytest.raises(SpecError):
            parse_spec(write_spec(tmp_path, bad))

    def test_nonpolynomial_dependence_rejected(self, tmp_path):
        bad = MINIMAL.replace("eps*y", "eps*y^-1")
        with pytest.raises(SpecError):
            parse_spec(write_spec(tmp_path, bad))

    def test_undeclared_constant_name(self, tmp_path):
        bad = MINIMAL.replace("method.constants.order0 = A B",
                              "method.constants.order0 = A C")
        with pytest.raises(SpecError) as exc:
            parse_spec(write_spec(tmp_path, bad))
        assert "C" in str(exc.value)

    @pytest.mark.parametrize("eps", ["0", "-1e-4"])
    def test_switchback_inner_radius_must_be_positive(self, tmp_path, eps):
        text = (CORPUS / "terrible.spec").read_text().replace(
            "params.eps = 1e-4", f"params.eps = {eps}")
        with pytest.raises(SpecError) as exc:
            parse_spec(write_spec(tmp_path, text))
        assert str(exc.value).startswith("line 10: params.eps")
        assert "positive" in str(exc.value)

    def test_validate_keys_need_the_parameter_value(self, tmp_path):
        text = MINIMAL.replace("params.eps = 0.2\n", "") \
            + "validate.grid = 0 15 301\n"
        with pytest.raises(SpecError) as exc:
            parse_spec(write_spec(tmp_path, text))
        assert str(exc.value) == \
            "line 10: validate.grid needs params.eps, which is missing"
        # derive alone needs no value
        parse_spec(write_spec(tmp_path, MINIMAL.replace("params.eps = 0.2\n",
                                                        "")))

    @pytest.mark.parametrize("old, new, message", [
        ("= D2 + D1", "= D2 - 2*D0", "line 6: equation.operator: operator "
         "has non-rational characteristic roots"),
        ("= D2 + D1", "= 0*D1", "line 6: equation.operator has no nonzero "
         "term"),
        ("= D2 + D1", "= D0", "line 6: equation.operator has order 0: there "
         "is no integration constant to flow"),
        ("order0 = A B", "order0 = A", "line 9: method.constants.order0 needs "
         "2 constant names for the order-2 operator, got 1"),
        ("order0 = A B", "orderx = A B", "line 9: bad key "
         "'method.constants.orderx'"),
    ])
    def test_operator_errors_exit_2(self, tmp_path, capsys, old, new,
                                    message):
        path = write_spec(tmp_path, MINIMAL.replace(old, new))
        assert cli.main(["derive", str(path)]) == 2
        assert capsys.readouterr().err == f"spec error: {message}\n"

    @pytest.mark.parametrize("name, old, new, message", [
        ("burgers", "options.profile = log1p", "options.profile = tanh",
         "line 9: options.profile = tanh is not implemented; the only value "
         "is log1p"),
        ("filament", "alpha2:1/2", "alpha2:bogus",
         "line 20: options.order_assumptions = alpha1:1/2 alpha2:bogus is "
         "not implemented; the only value is alpha1:1/2 alpha2:1/2"),
        ("filament", "alpha1:1/2 ", "alpha1:1 ",
         "line 20: options.order_assumptions = alpha1:1 alpha2:1/2 is not "
         "implemented; the only value is alpha1:1/2 alpha2:1/2"),
    ], ids=["profile", "order-assumptions-bogus", "order-assumptions-1"])
    def test_unimplemented_option_values_exit_2(self, tmp_path, capsys, name,
                                                old, new, message):
        text = (CORPUS / f"{name}.spec").read_text()
        assert old in text
        path = write_spec(tmp_path, text.replace(old, new))
        for command in ("derive", "validate"):
            assert cli.main([command, str(path)]) == 2
            assert capsys.readouterr().err == f"spec error: {message}\n"
        # the implemented values parse
        parse_spec(CORPUS / f"{name}.spec")

    @pytest.mark.parametrize("old, new, message", [
        ("derivatives = 1", "derivatives = x",
         "line 14: method.derivatives must be an integer >= 0, got 'x'"),
        ("derivatives = 1", "derivatives = -1",
         "line 14: method.derivatives must be an integer >= 0, got '-1'"),
        ("= zeroth-only", "= bogus",
         "line 15: method.constants_policy = bogus is not implemented; the "
         "values are fresh-at-zeroth-order, fresh-per-order, zeroth-only"),
        ("method.derivatives = 1", "method.constant_style = bogus",
         "line 14: method.constant_style = bogus is not implemented; the "
         "values are rect, amp-cos, amp-sin"),
        ("method.derivatives = 1", "method.most_divergent = yes",
         "line 14: method.most_divergent = yes is not implemented; the "
         "values are false, true"),
        ("cgo_compare = true", "cgo_compare = yes",
         "line 28: options.cgo_compare = yes is not implemented; the values "
         "are false, true"),
    ], ids=["derivatives-x", "derivatives-negative", "policy", "style",
            "most-divergent", "cgo-compare"])
    def test_malformed_method_values_exit_2(self, tmp_path, capsys, old, new,
                                            message):
        text = (CORPUS / "overdamped.spec").read_text()
        assert old in text
        path = write_spec(tmp_path, text.replace(old, new))
        for command in ("derive", "validate"):
            assert cli.main([command, str(path)]) == 2
            assert capsys.readouterr() == ("", f"spec error: {message}\n")

    @pytest.mark.parametrize("name, old, new, message", [
        # the closed form printed is that of y'' + eps*y' + y = 0
        ("underdamped", "= eps*Dy", "= eps*y",
         "line 10: kind = perturbation-symmetry derives only "
         "equation.operator = D2 + D0 with equation.perturbation = eps*Dy"),
        # the filament derivation builds its own series
        ("filament", "= -delta*v*Dy - 1/2*delta*v^2*D2y", "= -delta*v*Dy",
         "line 11: options.scripted = filament derives only "
         "equation.operator = D4 + 2*D2 + D0 with equation.perturbation = "
         "-delta*v*Dy - 1/2*delta*v^2*D2y"),
        ("filament", "= D4 + 2*D2 + D0", "= D4 - 2*D2 + D0",
         "line 10: options.scripted = filament derives only "
         "equation.operator = D4 + 2*D2 + D0 with equation.perturbation = "
         "-delta*v*Dy - 1/2*delta*v^2*D2y"),
        # and only at the order and painting it is written for
        ("filament", "method.order = 1", "method.order = 2",
         f"line 13: {FILAMENT_METHOD}"),
        ("filament", "method.derivatives = 1", "method.derivatives = 2",
         f"line 14: {FILAMENT_METHOD}"),
        # amplitude-phase constants need simple oscillatory roots
        ("filament", "method.derivatives = 1",
         "method.constant_style = amp-cos", "line 14: "
         "method.constant_style = amp-cos needs simple oscillatory roots; "
         "equation.operator = D4 + 2*D2 + D0 has a repeated one"),
    ], ids=["underdamped-perturbation", "filament-perturbation",
            "filament-operator", "filament-order", "filament-derivatives",
            "filament-style"])
    def test_scripted_kinds_take_only_their_equation(self, tmp_path, capsys,
                                                     name, old, new, message):
        text = (CORPUS / f"{name}.spec").read_text()
        assert old in text
        path = write_spec(tmp_path, text.replace(old, new))
        for command in ("derive", "validate"):
            assert cli.main([command, str(path)]) == 2
            assert capsys.readouterr().err == f"spec error: {message}\n"

    @pytest.mark.parametrize("changes, renamed", [
        # the grading follows the secular partners, whatever their names
        ([("A1 A2 alpha1 alpha2", "B1 B2 beta1 beta2"),
          ("options.order_assumptions = alpha1:1/2 alpha2:1/2\n", "")],
         {"A1": "B1", "A2": "B2"}),
        ([("method.constants_policy = fresh-per-order\n", "")], {}),
        ([("fresh-per-order", "zeroth-only")], {}),
        # the exact checks and the grading line name the spec's parameter
        ([("delta", "eps")], {"delta": "eps"}),
    ], ids=["renamed-constants", "default-policy", "zeroth-only",
            "parameter-eps"])
    def test_filament_derives_from_its_spec(self, tmp_path, capsys, changes,
                                            renamed):
        text = (CORPUS / "filament.spec").read_text()
        for old, new in changes:
            assert old in text
            text = text.replace(old, new)
        path = write_spec(tmp_path, text)

        def amplitude_lines(report):
            return [line for line in report.splitlines()
                    if "'' = " in line or line.startswith("-- declared")]
        want = amplitude_lines(
            (CORPUS / "golden" / "filament.golden.txt").read_text())
        for old, new in renamed.items():
            want = [line.replace(old, new) for line in want]
        assert len(want) == 3
        for command in ("derive", "validate"):
            assert cli.main([command, str(path)]) == 0
            assert amplitude_lines(capsys.readouterr().out) == want

    @pytest.mark.parametrize("name, old, new", [
        ("underdamped", "= eps*Dy", "= Dy*eps"),
        ("filament", "= -delta*v*Dy - 1/2*delta*v^2*D2y",
         "= -1/2*delta*v^2*D2y - v*delta*Dy"),
    ])
    def test_scripted_equation_written_another_way(self, tmp_path, name, old,
                                                   new):
        text = (CORPUS / f"{name}.spec").read_text()
        spec = parse_spec(write_spec(tmp_path, text.replace(old, new)))
        assert spec.perturbations \
            == parse_spec(CORPUS / f"{name}.spec").perturbations

    def test_ics_keys(self, tmp_path):
        spec = parse_spec(write_spec(tmp_path,
                                     MINIMAL + "ics.y = 3\nics.Dy = 1\n"))
        assert spec.ics == {0: F(3), 1: F(1)}


class TestCorpus:
    @pytest.mark.parametrize("name,kind", [
        ("overdamped", "ode-hidden-scale"), ("mathieu", "ode-hidden-scale"),
        ("kdv", "ode-hidden-scale"), ("filament", "ode-hidden-scale"),
        ("terrible", "switchback"), ("bad", "switchback"),
        ("underdamped", "perturbation-symmetry"), ("burgers", "burgers")])
    def test_corpus_specs_parse(self, name, kind):
        spec = parse_spec(CORPUS / f"{name}.spec")
        assert spec.kind == kind

    def test_overdamped_values(self):
        spec = parse_spec(CORPUS / "overdamped.spec")
        assert spec.params["eps"] == 0.2
        assert spec.ics == {0: F(3), 1: F(1)}

    def test_kdv_values(self):
        spec = parse_spec(CORPUS / "kdv.spec")
        assert spec.params["eps"] == 0.14
        assert spec.ics[1] == "A1"
        assert spec.params["A1"] == 0.5
        assert spec.most_divergent

    def test_every_corpus_spec_has_a_golden_file(self):
        for spec_path in sorted(CORPUS.glob("*.spec")):
            golden = CORPUS / "golden" / f"{spec_path.stem}.golden.txt"
            assert golden.exists(), f"missing golden for {spec_path.name}"
