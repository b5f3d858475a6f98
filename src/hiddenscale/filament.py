"""Amplitude equations for the buckled-filament pattern equation.

(1 + d^2/dy^2)^2 W = delta * (y^2/2 * W')', delta << 1.  The zeroth order
carries four constants.  The secular partner alpha_i of a resonant constant
A_i multiplies v times its basis function, and carries the grading
alpha_i = O(delta^(1/2)) of the method of multiple scales.  The series and
flows built by that grading reduce to the amplitude equations
A_i'' = (delta/16)*(2*mu^2 + 1)*A_i; the grading is verified a posteriori.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .exprcore import Expr
from .pertseries import (ODEProblem, PerturbationSeries, build_bare_series,
                         complementary, grade_truncate)
from . import ftflow


@dataclass
class FilamentDerivation:
    series: PerturbationSeries
    ft: ftflow.FTSystem           # the graded flow equations
    amplitude_rhs: dict           # A_i'' = rhs
    grades: dict                  # {alpha_i: 1/2}


def derive(prob: ODEProblem) -> FilamentDerivation:
    """The amplitude equations from the spec's problem at first order.

    Each order-0 constant A whose basis function times the variable is that
    of another, s, is paired with s, and s is graded 1/2.  The series and
    the flows are built by that grading.
    """
    names = prob.names_for(0, prob.operator.order)
    cf, _, _ = complementary(prob.operator, names, prob.constant_style)
    basis = {c: cf.coeff_linear(c)[0] for c in names}
    v = Expr.var(prob.variable)
    partners = {a: s for a in names for s in names if basis[s] == v * basis[a]}
    grades = {s: Fraction(1, 2) for s in partners.values()}
    series = build_bare_series(replace(prob, grades=grades))
    ft = ftflow.derive_ft_system(ftflow.paint(series, n_derivs=1), prob.order,
                                 grades)
    # the amplitude reduction: A' = -s at leading grade, so A'' = -s'
    amplitude = {}
    for a, s in partners.items():
        lead = grade_truncate(ft.equations[a], grades, prob.parameter,
                              grades[s])
        if lead != -Expr.sym(s):
            raise ftflow.FTInconsistent(
                f"leading flow for {a} is not -{s}: {lead!r}")
        amplitude[a] = -ft.equations[s]
    return FilamentDerivation(series, ft, amplitude, grades)


def amplitude_target(name: str, parameter: str) -> Expr:
    """(parameter/16)*(2*mu^2 + 1)*name."""
    mu2 = Expr.var("mu") ** 2
    return (Expr.sym(parameter) * Expr.sym(name)
            * (mu2.scale(2) + Expr.num(1))).scale(Fraction(1, 16))


def verify_order_assumption():
    """Fit the scaling exponent of |A'|/|A| against delta.

    Integrates the solved amplitude flow A'' = (delta/16)*(2*mu^2+1)*A along
    its growing characteristic direction over the window 0 <= mu <= 2 for
    delta = 1e-2, 1e-3, 1e-4 and fits the rate of variation against delta;
    consistency with the declared grading A' = O(delta^(1/2)) means an
    exponent near 1/2.
    """
    from .numlab import convergence_order, solve_ivp
    mu_max = 2.0
    ratios = []
    for d in (1e-2, 1e-3, 1e-4):
        def rhs(mu, y):
            return [y[1], d / 16.0 * (2 * mu * mu + 1) * y[0]]
        lam0 = (d / 16.0) ** 0.5
        sol = solve_ivp(rhs, [1.0, lam0], (0.0, mu_max), "rk45-adaptive",
                        tol=1e-12)
        grid = np.linspace(0.0, mu_max, 101)
        a = sol(grid, 0)
        ap = sol(grid, 1)
        ratios.append((d, float(np.max(np.abs(ap)) / np.max(np.abs(a)))))
    return convergence_order(ratios)
