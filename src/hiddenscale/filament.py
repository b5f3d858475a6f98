"""Amplitude equations for the buckled-filament pattern equation.

(1 + d^2/dy^2)^2 W = delta * (y^2/2 * W')', delta << 1.  The zeroth order
carries four constants (two resonant); painting and the flow equations with
the user-declared grading alpha_i = O(delta^(1/2)) reduce the system to the
amplitude equations A_i'' = (delta/16)*(2*mu^2 + 1)*A_i.  The declared
grading is verified a posteriori against the solved flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exprcore import Expr
from .pertseries import (ConstantInfo, ODEProblem, PerturbationSeries,
                         solve_order)
from . import ftflow


@dataclass
class FilamentDerivation:
    series: PerturbationSeries
    ft: ftflow.FTSystem           # the graded flow equations
    amplitude_rhs: dict           # A_i'' = rhs


def derive(prob: ODEProblem, grades: dict) -> FilamentDerivation:
    """The amplitude equations from the spec's problem at first order.

    ``grades`` is the declared grading, {alpha_i: 1/2}.  Order 0 keeps all
    four constants.  Order 1 is solved against order 0 truncated at grade 0:
    the forcing of the alpha terms is of grade 3/2, beyond the working
    order.  The flows are solved by grade up to total order 1.
    """
    p = prob.parameter
    L, n = prob.operator, prob.operator.order
    zeroth, infos0, _ = solve_order(L, Expr.zero(), None, prob.names_for(0, n))
    reduced = ftflow.grade_truncate(zeroth, grades, p, 0)
    forcing = -prob.apply_perturbation(reduced, 1).collect_order(p, 1)
    first, infos1, _ = solve_order(L, forcing, None, prob.names_for(1, n))
    constants = [ConstantInfo(c.name, j, c.kind)
                 for j, infos in enumerate((infos0, infos1)) for c in infos]
    series = PerturbationSeries([zeroth, first], constants, p, prob.variable)
    ft = ftflow.derive_ft_system(ftflow.paint(series, n_derivs=1), 1, grades)
    # the amplitude reduction: A_i' = -alpha_i at leading grade, so
    # A_i'' = -alpha_i'
    amplitude = {}
    for i in ("1", "2"):
        alpha = f"alpha{i}"
        a_rhs = ftflow.grade_truncate(ft.equations[f"A{i}"], grades, p,
                                      grades[alpha])
        if a_rhs != -Expr.sym(alpha):
            raise AssertionError(
                f"leading flow for A{i} is not -{alpha}: {a_rhs!r}")
        amplitude[f"A{i}"] = -ft.equations[alpha]
    return FilamentDerivation(series, ft, amplitude)


def amplitude_target(i: str) -> Expr:
    """(delta/16)*(2*mu^2 + 1)*A_i."""
    mu2 = Expr.var("mu") ** 2
    return (Expr.sym("delta") * Expr.sym(f"A{i}")
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
            return np.array([y[1], d / 16.0 * (2 * mu * mu + 1) * y[0]])
        lam0 = (d / 16.0) ** 0.5
        sol = solve_ivp(rhs, [1.0, lam0], (0.0, mu_max), "rk45-adaptive",
                        tol=1e-12)
        grid = np.linspace(0.0, mu_max, 101)
        a = sol(grid, 0)
        ap = sol(grid, 1)
        ratios.append((d, float(np.max(np.abs(ap)) / np.max(np.abs(a)))))
    return convergence_order(ratios)
