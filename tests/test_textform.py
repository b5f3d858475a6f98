"""Canonical text form: printing and the locked parse grammar."""

from fractions import Fraction as F

import pytest

from hiddenscale.exprcore import Expr, OutOfClassError, Poly
from hiddenscale.textform import ExprSyntaxError, expr_text, parse_expr


CANONICAL_SAMPLES = [
    "A + B*exp(-tau)",
    "A + B*exp(-tau) - A*eps*tau + B*eps*tau*exp(-tau)",
    "R*cos(1/2*t + theta)",
    "1/2*R*eps*cos(3/2*t + theta)",
    "-9/4*R^2*delta^-2*k^-2*cos(2*phi)",
    "B~*exp((-1 + eps)*tau) + A~*exp(-eps*tau)",
    "A1*sin((1 - 135/16*A1^2*delta^-4*eps^2*k^-4)*th)",
    "-1/2*y*t",
]


@pytest.mark.parametrize("text", CANONICAL_SAMPLES)
def test_print_parse_round_trip(text):
    variables = {"tau", "t", "th", "x", "v", "s"}
    e = parse_expr(text, variables)
    assert expr_text(e) == text
    assert parse_expr(expr_text(e), variables) == e


def test_exact_rationals_survive():
    e = parse_expr("135/16*A1^2*eps^2*k^-4", ())
    pows, (re, im, den) = e.terms[0].coeff.single()
    assert (F(re, den), im) == (F(135, 16), 0)


def test_deterministic_ordering():
    a = parse_expr("A + B*exp(-tau)", {"tau"})
    b = parse_expr("B*exp(-tau) + A", {"tau"})
    assert expr_text(a) == expr_text(b)


def test_unknown_token_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("A + $", ())


def test_trailing_garbage_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("A + B)", ())


def test_exp_argument_must_be_linear():
    with pytest.raises(OutOfClassError):
        parse_expr("exp(tau^2)", {"tau"})


def test_nested_exponentials_rejected():
    with pytest.raises(OutOfClassError):
        parse_expr("exp(exp(tau))", {"tau"})


def test_negative_variable_power_rejected():
    with pytest.raises(OutOfClassError):
        parse_expr("tau^-1", {"tau"})


def test_sin_cos_build_conjugate_pairs():
    e = parse_expr("sin(t + theta)", {"t"})
    assert len(e.terms) == 2
    assert e == Expr.sin({"t": 1}, {"theta": 1})


def test_non_real_prints_with_imaginary_unit():
    e = Expr.cis({"t": 1})
    txt = expr_text(e)
    assert txt == "cos(t) + i*sin(t)"
    assert parse_expr(txt, {"t"}) == e


def test_parenthesised_powers():
    e = parse_expr("(A + B)^2", ())
    assert e == Expr.sym("A", 2) + (Expr.sym("A") * Expr.sym("B")).scale(2) \
        + Expr.sym("B", 2)
