"""Command-line driver: derive, validate and sweep over problem specs.

``derive`` runs the symbolic pipeline and prints (or checks against a golden
file) the canonical text of every stage.  ``validate`` additionally runs the
numeric oracles, writes CSV tables and evaluates the spec's tolerance checks.
``sweep`` validates at each value of a parameter list, doing the work that
does not read ``params.*`` once for all of them.  Exit code 0 means every
check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import filament as filament_mod
from . import exprcore, ftflow, numlab, pertsym, switchback, textform
from .exprcore import Expr, Poly
from .pertseries import build_bare_series
from .specfile import (ProblemSpec, SpecError, ode_problem, parse_float,
                       parse_spec)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class Report:
    def __init__(self, spec: ProblemSpec):
        self.lines = []
        self.checks = []        # (name, passed, detail)
        digest = hashlib.sha256(Path(spec.path).read_bytes()).hexdigest()[:16]
        self.add(f"spec {spec.name} ({spec.kind}) sha256:{digest}")

    def add(self, line: str = ""):
        self.lines.append(line)

    def check(self, name: str, passed: bool, detail: str = ""):
        self.checks.append((name, bool(passed), detail))
        status = "PASS" if passed else "FAIL"
        self.add(f"[{status}] {name}" + (f": {detail}" if detail else ""))

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    @property
    def ok(self) -> bool:
        return all(p for _, p, _ in self.checks)


def _write_csv(csv_dir, name, header, rows):
    if csv_dir is None:
        return None
    path = Path(csv_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


# (test, what a value failing it needs): the ranges _numbers refuses
_ABOVE_0 = (lambda v: v > 0, "must be above 0")
_ALL_ABOVE_0 = (lambda vs: all(v > 0 for v in vs), "must all be above 0")
_GRID = (lambda v: v[2] >= 2, "needs a count of at least 2")
_FIT = (lambda vs: len(vs) >= 3, "needs at least 3 values to fit an error "
       "order")


def _numbers(spec: ProblemSpec, key: str, default: str, kinds=None,
             need=None):
    """The numbers of ``key`` (e.g. "validate.grid"), or of ``default`` when
    the spec gives none: a list of floats, or one value per letter of
    ``kinds`` ("f" a float, "i" a whole number; one letter gives the value
    itself).  A malformed value is a SpecError that names its line, and so
    is one that fails the test of ``need`` (e.g. ``_ABOVE_0``), which a
    default passes."""
    text, line = spec.raw.get(key, ("", 0))
    vals = [parse_float(s, key, line) for s in (text or default).split()]
    if kinds is not None:
        if len(vals) != len(kinds) or any(
                k == "i" and not v.is_integer() for k, v in zip(kinds, vals)):
            want = " ".join("<number>" if k == "f" else "<count>"
                            for k in kinds)
            raise SpecError(f"line {line}: {key} takes {want}, got {text!r}")
        vals = [int(v) if k == "i" else v for k, v in zip(kinds, vals)]
        vals = vals[0] if len(kinds) == 1 else vals
    if need and not need[0](vals):
        raise SpecError(f"line {line}: {key} = {text} {need[1]}")
    return vals


# ---------------------------------------------------------------------------
# The hidden-scale pipeline for ODE specs.

def _start_values(spec: ProblemSpec, series):
    """Start-point constant values implied by the initial conditions, as
    exact Exprs: a parameter or a number for the amplitude, 0 for the
    phase."""
    if not spec.ics or spec.constant_style == "rect":
        return None
    zeroth = [c for c in series.constants if c.order == min(
        cc.order for cc in series.constants)]
    amp = [c.name for c in zeroth if c.kind == "param"]
    off = [c.name for c in zeroth if c.kind == "offset"]
    if len(amp) != 1 or len(off) != 1:
        return None
    roots = [z for z, _m in spec.operator.char_roots() if z[1] > 0]
    if len(roots) != 1:
        return None
    omega = Fraction(roots[0][1], roots[0][2])
    alpha, beta = spec.ics.get(0), spec.ics.get(1)
    if spec.constant_style == "amp-sin" and alpha == 0 and beta is not None:
        value, factor = beta, 1 / omega
    elif spec.constant_style == "amp-cos" and beta == 0 and alpha is not None:
        value, factor = alpha, 1
    else:
        return None
    start = Expr.sym(value) if isinstance(value, str) else Expr.num(value)
    return {amp[0]: start.scale(factor), off[0]: Expr.zero()}


def hidden_scale_pipeline(spec: ProblemSpec):
    """Series -> (filter) -> paint -> flow equations -> orbits -> uniform."""
    prob = ode_problem(spec)
    series = build_bare_series(prob)
    work = ftflow.most_divergent_filter(series) if spec.most_divergent \
        else series
    painted = ftflow.paint(work, n_derivs=spec.derivatives)
    ft = ftflow.derive_ft_system(painted, spec.order)
    tilde_values = _start_values(spec, series)
    flows = ftflow.integrate_orbits(ft, spec.variable,
                                    tilde_values=tilde_values)
    uniform = ftflow.assemble_uniform(painted, flows)
    return prob, series, painted, ft, flows, uniform


def derive_ode(spec: ProblemSpec, rep: Report):
    prob, series, painted, ft, flows, uniform = hidden_scale_pipeline(spec)
    dep = spec.dependent
    rep.add("-- bare series --")
    for j, o in enumerate(series.orders):
        rep.add(f"{dep}({j}) = {textform.expr_text(o)}")
    if spec.most_divergent:
        rep.add("-- most-divergent filter: asymptotic-only --")
    rep.add("-- painted series --")
    rep.add(f"{dep} = {textform.expr_text(painted.painted)}")
    rep.add("-- finite transformation system (d/dmu) --")
    for n in ft.unknown_names():
        rep.add(f"{n}' = {textform.expr_text(ft.equations[n])}"
                f"   (to order {ft.determined_orders[n]})")
    rep.add("-- flows at mu = 0 --")
    for n, f in flows.flows.items():
        rep.add(f"{n}(0) = {f.text(spec.variable)}")
    rep.add("-- uniform solution --")
    rep.add(f"{dep} = {uniform.text()}")
    if spec.options.get("cgo_compare") == "true":
        _derive_cgo_comparison(spec, rep, painted, ft)
    return prob, series, painted, ft, flows, uniform


def _derive_cgo_comparison(spec: ProblemSpec, rep: Report, painted, ft):
    """Side-by-side comparison with the split-and-renormalize equation."""
    x0 = spec.variable + "0"
    split = ftflow.split_from_painted(painted, x0)
    names = ft.unknown_names()
    res = ftflow.cgo_rg_equation(split, [split.diff(spec.variable)],
                                 spec.variable, x0, names,
                                 truncate_order=spec.order,
                                 parameter=spec.parameter)
    rep.add(f"-- comparison: split series at {x0} with the limit "
            f"{spec.variable} -> {x0} --")
    for e in res.equations:
        rep.add(f"0 = {textform.expr_text(e)}")
    rep.add(res.diagnostic if res.underdetermined
            else "determined with series and first derivative")


def derive_filament(spec: ProblemSpec, rep: Report):
    d = filament_mod.derive(ode_problem(spec))
    grading = " ".join(f"{s}:{g}" for s, g in d.grades.items())
    given, line = spec.raw.get("options.order_assumptions", (grading, 0))
    if given.split() != grading.split():
        raise SpecError(f"line {line}: options.order_assumptions = {given} "
                        f"is not implemented; the only value is {grading}")
    rep.add("-- bare series --")
    for j, o in enumerate(d.series.orders):
        rep.add(f"W({j}) = {textform.expr_text(o)}")
    rep.add("-- flow equations (exact, graded by the order assumptions) --")
    for n in d.ft.unknown_names():
        rep.add(f"{n}' = {textform.expr_text(d.ft.equations[n])}")
    rep.add("-- amplitude equations --")
    for a, rhs in d.amplitude_rhs.items():
        rep.add(f"{a}'' = {textform.expr_text(rhs)}")
    rep.add(f"-- declared order assumption: alpha_i = "
            f"O({spec.parameter}^(1/2)) --")
    return d


def _ode_rhs(spec: ProblemSpec, params: dict):
    """First-order system for the full perturbed ODE at numeric parameters.

    When every perturbation term is linear in the derivatives with a
    coefficient free of the variable, the system is constant-coefficient
    linear and comes back as a ``numlab.LinearRHS`` whose columns are the
    closure's values at the unit vectors.
    """
    prob = ode_problem(spec)
    n = prob.operator.order
    if any(m >= n for pt in prob.perturbations for m, _q in pt.deriv_powers):
        raise SpecError("validate needs an explicit equation: the "
                        "perturbation contains the top derivative of "
                        f"{spec.dependent} (order {n})")
    coeffs = [float(c) for c in prob.operator.coeffs]
    epsv = params[spec.parameter]
    var = spec.variable
    # A coefficient free of the variable is a number, folded with eps**p;
    # one that depends on it (e.g. 2*eps*cos(t)) is evaluated per call.
    terms = [(pt.coeff, epsv ** pt.eps_power, pt.deriv_powers)
             if var in pt.coeff.symbols()
             else (None, pt.coeff.eval(params).real * epsv ** pt.eps_power,
                   pt.deriv_powers)
             for pt in prob.perturbations]
    rhs = exprcore.explicit_ode_rhs(coeffs, terms, var, params)
    if all(c is None and sum(q for _m, q in dp) == 1 for c, _f, dp in terms):
        return numlab.LinearRHS(np.column_stack(
            [rhs(0.0, e) for e in np.eye(n).tolist()])), n
    return rhs, n


def _uniform_env(spec: ProblemSpec, params):
    """Numeric environment: parameter values plus tilde start values."""
    env = dict(params)
    for key in spec.options:
        if key.startswith("tilde_"):
            env[key[len("tilde_"):] + ftflow.TILDE_SUFFIX] = _numbers(
                spec, "options." + key, "", "f")
    return env


def _jet(evaluate, x0: float) -> list:
    """[f, f', f''] at x0 from one 3-point central stencil (h = 1e-6)."""
    h = 1e-6
    lo, mid, hi = evaluate(np.array([x0 - h, x0, x0 + h]))
    return [mid, (hi - lo) / (2 * h), (hi - 2 * mid + lo) / h ** 2]


def _ic_floats(spec: ProblemSpec, nord: int):
    """The declared y(0), y'(0), ... as floats, an absent one 0 and a name
    read from params.*; None when a name has no value there."""
    vals = [spec.ics.get(m, 0) for m in range(nord)]
    if any(isinstance(v, str) and v not in spec.params for v in vals):
        return None
    return [float(spec.params[v] if isinstance(v, str) else v) for v in vals]


def _ic_vector(spec, uniform, env, x0: float, nord: int):
    """Oracle initial state: declared ics when numeric, else from the uniform."""
    declared = _ic_floats(spec, nord) if spec.ics else None
    if declared is not None:
        return declared
    if nord > 3:
        raise SpecError("numeric initial conditions required for order > 3")
    return _jet(lambda x: uniform.evaluate(x, env), x0)[:nord]


def validate_ode(spec: ProblemSpec, rep: Report, derived, csv_dir,
                 shared: dict):
    prob, series, painted, ft, flows, uniform = derived
    grid = np.linspace(*_numbers(spec, "validate.grid", "0 15 301", "ffi",
                                 _GRID))
    if "scaling_order" in spec.validate:
        return _validate_scaling(spec, rep, csv_dir, grid, series, shared)
    params = dict(spec.params)
    env = _uniform_env(spec, params)
    missing = [(f.name, s) for f in flows.flows.values()
               for s in sorted(f.start.symbols() - env.keys())]
    if missing:
        raise SpecError("validate needs start values: " + ", ".join(
            f"options.tilde_{n} for {s}" if s == n + ftflow.TILDE_SUFFIX
            else f"params.{s} for {n}{ftflow.TILDE_SUFFIX}"
            for n, s in missing))
    for c in series.constants:
        if c.name not in [u.name for u in ft.unknowns]:
            env.setdefault(c.name, 0.0)

    def oracle_run(ev):
        """The oracle's y and the uniform solution on the grid at eps = ev."""
        p, e = {**params, spec.parameter: ev}, {**env, spec.parameter: ev}
        rhs, nord = _ode_rhs(spec, p)
        ref = numlab.solve_ivp(
            rhs, _ic_vector(spec, uniform, e, float(grid[0]), nord),
            (float(grid[0]), float(grid[-1])), "rk45-adaptive", tol=1e-11,
            t_eval=grid)
        return ref.states[:, 0], uniform.evaluate(grid, e)

    epsv = params[spec.parameter]
    yref, uvals = oracle_run(epsv)
    abs_err = np.abs(yref - uvals)
    sup = float(abs_err.max())
    rep.add(f"sup error vs oracle: {_fmt(sup)}")
    _write_csv(csv_dir, f"{spec.name}_uniform.csv",
               [spec.variable, "y_numeric", "y_uniform", "abs_error"],
               np.column_stack([grid, yref, uvals, abs_err]))

    if "c_drift_max" in spec.validate:
        cmax = _numbers(spec, "validate.c_drift_max", "", "f")
        kk = spec.order + 1        # uniform solutions are O(eps^(k+1))
        y2, u2 = oracle_run(epsv / 2)
        c_full = sup / epsv ** kk
        c_half = float(np.max(np.abs(u2 - y2))) / (epsv / 2) ** kk
        drift = max(c_full, c_half) / min(c_full, c_half)
        rep.check("error constant stable under eps halving", drift <= cmax,
                  f"C values {_fmt(c_full)}, {_fmt(c_half)}, "
                  f"drift {drift:.2f} <= {cmax}")
        rep.check(f"sup error within the halving-calibrated C*eps^{kk}",
                  sup <= cmax * c_half * epsv ** kk,
                  f"{_fmt(sup)} <= {cmax} * {_fmt(c_half)} "
                  f"* eps^{kk}")
    if "textbook_ratio_max" in spec.validate:
        _validate_kdv_textbook(spec, rep, csv_dir, grid, painted, flows,
                               env, yref, uvals, sup)


def _fit_to_ics(names, env, values, ics) -> dict:
    """The constants ``names`` that fit [y(0), y'(0)] = ``ics``.

    The solution is linear in them: column n of the matrix is ``values(e)``,
    the [y(0), y'(0)] at ``env`` with n = 1 and every other constant 0.
    """
    cols = [values({**env, **{m: float(m == n) for m in names}})
            for n in names]
    return dict(zip(names, np.linalg.solve(np.array(cols).T,
                                           np.array(ics))))


def _validate_scaling(spec, rep, csv_dir, grid, series, shared: dict):
    """Error-order fit for the overdamped family.

    The scaling bands refer to the solution one order higher than the
    displayed closed form, so the pipeline is re-run at
    validate.scaling_order before fitting the convergence order.  That
    pipeline and, per eps and initial state, the oracle and the uniform
    values are kept in ``shared``: none of them reads params.*.
    """
    if "scaling" not in shared:
        shared["scaling"] = hidden_scale_pipeline(dataclasses.replace(
            spec, order=_numbers(spec, "validate.scaling_order", "", "i")))[-1]
    uniform2 = shared["scaling"]
    if uniform2.symbolic is None:
        # the fit below takes the solution as linear in its tilde constants
        raise ftflow.FTError(
            f"validate.scaling_order = {spec.validate['scaling_order']} "
            f"needs a closed-form uniform solution; at that order it is "
            f"{uniform2.text()}")
    epsv = spec.params[spec.parameter]
    ics = _ic_floats(spec, 2)
    if ics is None:
        raise SpecError("validate.scaling_order needs ics.* values that "
                        "are numbers or have params.*")
    sweep = _numbers(spec, "validate.sweep", "0.05 0.1 0.2", need=_FIT)
    step = _numbers(spec, "validate.oracle_step", "1e-3", "f", _ABOVE_0)
    bare = series.full()
    dbare = bare.diff(spec.variable)
    tildes = sorted(n for n in uniform2.symbolic.symbols()
                    if n.endswith(ftflow.TILDE_SUFFIX))
    errs = []
    table_rows = None
    bare_end = uni_end = None
    for ev in sorted(set(sweep + [epsv])):
        key = ("oracle", ev, *ics)
        if key not in shared:
            env = {spec.parameter: ev}
            env.update(_fit_to_ics(tildes, env, lambda e: _jet(
                lambda x: uniform2.evaluate(x, e), 0.0)[:2], ics))
            rhs, _n = _ode_rhs(spec, {spec.parameter: ev})
            yref = numlab.solve_ivp(
                rhs, ics, (float(grid[0]), float(grid[-1])), "rk4-fixed",
                step=step, t_eval=grid).states[:, 0]
            shared[key] = yref, uniform2.evaluate(grid, env)
        yref, uvals = shared[key]
        sup = float(np.max(np.abs(uvals - yref)))
        if ev in sweep:
            errs.append((ev, sup))
        if abs(ev - epsv) < 1e-15:
            # bare-series constants from the same initial conditions
            benv = {spec.parameter: ev, spec.variable: 0.0}
            benv.update(_fit_to_ics(
                [c.name for c in series.constants], benv,
                lambda e: [bare.eval(e).real, dbare.eval(e).real], ics))
            bvals = bare.eval({**benv, spec.variable: grid}).real
            table_rows = np.column_stack(
                [grid, yref, bvals, uvals, np.abs(bvals - yref),
                 np.abs(uvals - yref)])
            bare_end = abs(bvals[-1] - yref[-1])
            uni_end = abs(uvals[-1] - yref[-1])
    _write_csv(csv_dir, f"{spec.name}_reference_curve.csv",
               [spec.variable, "y_numeric", "y_bare", "y_uniform",
                "err_bare", "err_uniform"], table_rows)
    by_eps = _check_eps_sweep(spec, rep, errs, "uniform-solution error order",
                              "1.7 2.3")
    for ehat in (0.05, 0.1):
        if ehat in by_eps and 2 * ehat in by_eps:
            r = by_eps[2 * ehat] / by_eps[ehat]
            rep.check(f"doubling ratio at eps = {ehat}", 3.2 <= r <= 5.0,
                      f"err({2*ehat:g})/err({ehat:g}) = {r:.2f}")
    ratio_min = _numbers(spec, "validate.bare_ratio_min", "10", "f")
    rep.check("bare series diverges at the far end",
              bare_end >= ratio_min * uni_end,
              f"bare {_fmt(bare_end)} >= {ratio_min} x uniform "
              f"{_fmt(uni_end)}")


def _check_eps_sweep(spec, rep, errs, name: str, band: str) -> dict:
    """Print the (eps, sup error) list and check its fitted order against
    validate.order_band (default ``band``); the errors come back by eps."""
    rep.add("eps sweep: " + "; ".join(f"eps={e}: {_fmt(s)}" for e, s in errs))
    p = numlab.convergence_order(errs)
    lo_p, hi_p = _numbers(spec, "validate.order_band", band, "ff")
    rep.check(name, lo_p <= p <= hi_p, f"p = {p:.3f} in [{lo_p}, {hi_p}]")
    return dict(errs)


def _validate_kdv_textbook(spec, rep, csv_dir, grid, painted, flows, env,
                           yref, uvals, sup):
    """Compare against the strained coordinate with the textbook exponent."""
    qp = (Poly.sym("A1", 2) * Poly.sym("eps", 2) * Poly.sym("k", -5)
          * Poly.sym("delta", -4)).scale(Fraction(27, 16))
    phi = dataclasses.replace(flows.flows["phi"], drift_poly=-qp)
    textbook = ftflow.assemble_uniform(painted, dataclasses.replace(
        flows, flows={**flows.flows, "phi": phi}))
    tvals = textbook.evaluate(grid, env)
    terr = float(np.max(np.abs(tvals - yref)))
    ratio_max = _numbers(spec, "validate.textbook_ratio_max", "0.5", "f")
    rep.add(f"textbook-exponent sup error: {_fmt(terr)}")
    _write_csv(csv_dir, f"{spec.name}_fig5.csv",
               [spec.variable, "W_numeric", "W_hidden", "W_textbook"],
               np.column_stack([grid, yref, uvals, tvals]))
    rep.check("hidden-scale error at most half the textbook error",
              sup <= ratio_max * terr,
              f"{_fmt(sup)} <= {ratio_max} * {_fmt(terr)}")


def validate_filament(spec: ProblemSpec, rep: Report, d, csv_dir,
                      shared: dict):
    for a, rhs in d.amplitude_rhs.items():
        target = filament_mod.amplitude_target(a, spec.parameter)
        rep.check(f"amplitude equation {a}'' exact", rhs == target)
    lo, hi = _numbers(spec, "validate.exponent_band", "0.3 0.7", "ff")
    exponent = filament_mod.verify_order_assumption()
    rep.check("declared order assumption verified a posteriori",
              lo <= exponent <= hi,
              f"fitted exponent {exponent:.3f} in [{lo}, {hi}] (declared 1/2)")


# ---------------------------------------------------------------------------
# Switchback specs.

def _switchback_problem(spec: ProblemSpec):
    n = _numbers(spec, "options.n", "2", "i")
    delta = _numbers(spec, "options.delta", "1", "i")
    field = switchback.outside_family(n, delta, spec.order)
    if field:       # never a default, so the spec has the key
        key = {"n": "options.n", "delta": "options.delta",
               "order": "method.order"}[field]
        text, line = spec.raw[key]
        raise SpecError(f"line {line}: {key} = {text} is outside the "
                        f"switchback family: {switchback.FAMILY}")
    return switchback.SwitchbackProblem(
        n, delta, spec.params.get("eps", 1e-4), spec.params.get("a", 1.0),
        spec.order)


def derive_switchback(spec: ProblemSpec, rep: Report):
    p = _switchback_problem(spec)
    series = switchback.switchback_series(p)
    rep.add("-- boundary-condition series in a --")
    rep.add("u(0) = 1")
    m = p.n - 1
    rep.add(f"u(1) = A + B*e{m}(x) with A = 0, B = -1/e{m}(eps)")
    if p.order >= 2:
        rep.add(f"u(2) = {switchback.sw_text(series.orders[2])}")
    if p.n == 2 and p.delta == 1:
        closed = switchback.most_divergent_sum(p)
        rep.add("-- most-divergent sum --")
        rep.add(f"u = {closed.text()}")
        rep.add(f"radius of convergence: a* = e1(eps)/e1(x)")
        hs, ftsys = switchback.terrible_hidden_scale(p.eps, p.a)
        rep.add("-- hidden-scale route in tau = e1(x) --")
        for n in ftsys.unknown_names():
            rep.add(f"{n}' = {textform.expr_text(ftsys.equations[n])}")
        rep.add(f"u = {hs.text()}")
        rep.check("two routes agree canonically",
                  hs.text() == closed.text()
                  and abs(hs.s - closed.s) <= 1e-12 * abs(closed.s),
                  f"s = {_fmt(closed.s)}")
    return p, series


def validate_switchback(spec: ProblemSpec, rep: Report, derived, csv_dir,
                        shared: dict):
    p, series = derived
    # the profiles run from eps to 10 and the shooting to x_max; below 10
    # they would extrapolate the shooting's last interval
    x_max = _numbers(spec, "validate.x_max", "50", "f",
                     (lambda v: v >= 10, "must be at least 10, where the "
                      "profiles end"))
    npts = _numbers(spec, "validate.grid_points", "100", "i",
                    (lambda n: n >= 2, "must be at least 2"))
    tol = _numbers(spec, "validate.tolerance", "2e-2", "f")

    def oracle(eps, a):
        xi0, xi1 = math.log(eps), math.log(x_max)
        rhs = dataclasses.replace(p, eps=eps, a=a).rhs_log()
        sol = numlab.solve_bvp_shooting(rhs, xi0, 1.0 - a, xi1,
                                        1.0, slope_guess=0.1)
        xs = np.exp(np.linspace(xi0, math.log(10.0), npts))
        return xs, sol(np.log(xs))

    xs, uref = oracle(p.eps, p.a)
    u1 = switchback.switchback_series(
        dataclasses.replace(p, order=1)).evaluate(xs)
    rows = [xs, uref, u1]
    header = ["x", "u_numeric", "u_order1"]
    e1 = float(np.max(np.abs(u1 - uref)))
    rep.add(f"sup error order 1: {_fmt(e1)}")
    if p.n == 2 and p.delta == 1 and p.order >= 2:
        u2 = series.evaluate(xs)
        ua = switchback.most_divergent_sum(p).evaluate(xs)
        e2 = float(np.max(np.abs(u2 - uref)))
        ea = float(np.max(np.abs(ua - uref)))
        rows += [u2, ua, np.abs(u1 - uref), np.abs(u2 - uref),
                 np.abs(ua - uref)]
        header += ["u_order2", "u_asymptotic", "err_order1", "err_order2",
                   "err_asymptotic"]
        rep.add(f"sup error order 2: {_fmt(e2)}; asymptotic: {_fmt(ea)}")
        rep.check("second order within oracle tolerance", e2 <= tol,
                  f"{_fmt(e2)} <= {tol}")
        rep.check("asymptotic form within oracle tolerance", ea <= tol,
                  f"{_fmt(ea)} <= {tol}")
        rep.check("series converges in a (order 2 beats order 1)", e2 < e1,
                  f"{_fmt(e2)} < {_fmt(e1)}")
        rep.check("asymptotic form best at small eps", ea < e2,
                  f"{_fmt(ea)} < {_fmt(e2)}")
        cross_eps = _numbers(spec, "validate.crossover_eps", "0.1", "f",
                             _ABOVE_0)
        xs2, uref2 = oracle(cross_eps, p.a)
        p2 = dataclasses.replace(p, eps=cross_eps, order=2)
        u22 = switchback.switchback_series(p2).evaluate(xs2)
        ua2 = switchback.most_divergent_sum(p2).evaluate(xs2)
        e22 = float(np.max(np.abs(u22 - uref2)))
        ea2 = float(np.max(np.abs(ua2 - uref2)))
        rep.check(f"second order best at eps = {cross_eps}", e22 < ea2,
                  f"{_fmt(e22)} < {_fmt(ea2)}")
    else:
        rep.check("first order within oracle tolerance", e1 <= tol,
                  f"{_fmt(e1)} <= {tol}")
    _write_csv(csv_dir, f"{spec.name}_profiles.csv", header,
               np.column_stack(rows))


# ---------------------------------------------------------------------------
# Perturbation-symmetry and Burgers specs.

def derive_pertsym(spec: ProblemSpec, rep: Report):
    prob = ode_problem(spec)
    series = build_bare_series(prob)
    rep.add("-- bare series --")
    for j, o in enumerate(series.orders):
        rep.add(f"{spec.dependent}({j}) = {textform.expr_text(o)}")
    ys = pertsym.with_switch(series, "s")
    ansatz = pertsym.GeneratorAnsatz.oscillator(spec.order, spec.variable,
                                                spec.dependent, "s")
    gen = pertsym.solve_determining(ys, ansatz, spec.order, spec.parameter)
    rep.add("-- perturbation-symmetry generator (unit s-component) --")
    for (d, j), e in sorted(gen.components.items()):
        rep.add(f"xi_{d}({j}) = {textform.expr_text(e)}")
    if gen.free_weights:
        rep.add(f"free weights: {', '.join(gen.free_weights)}")
    rep.add("-- finite transformation of the s-flow --")
    rep.add(f"{spec.dependent} = {pertsym.ExpStrainedForm.text()}")


def validate_pertsym(spec: ProblemSpec, rep: Report, derived, csv_dir,
                     shared: dict):
    """Closed-form error order over validate.sweep.  The errors read no
    params.*, so a sweep's points share them through ``shared``."""
    if "errors" not in shared:
        shared["errors"] = _pertsym_errors(spec)
    by_eps = _check_eps_sweep(spec, rep, shared["errors"],
                              "closed-form error order", "2.6 3.4")
    if 0.1 in by_eps and 0.2 in by_eps:
        lo_r, hi_r = _numbers(spec, "validate.ratio_band", "6 10", "ff")
        r = by_eps[0.2] / by_eps[0.1]
        rep.check("halving ratio consistent with third-order error",
                  lo_r <= r <= hi_r, f"err(0.2)/err(0.1) = {r:.2f}")


def _pertsym_errors(spec: ProblemSpec) -> list:
    """(eps, sup error of the closed form against the oracle) per sweep
    value."""
    grid = np.linspace(*_numbers(spec, "validate.grid", "0 20 201", "ffi",
                                 _GRID))
    amp = _numbers(spec, "options.amplitude", "1", "f")
    off = _numbers(spec, "options.offset", "0.4", "f")
    sweep = _numbers(spec, "validate.sweep", "0.05 0.1 0.2", need=_FIT)
    step = _numbers(spec, "validate.oracle_step", "1e-4", "f", _ABOVE_0)
    # one stacked fixed-step integration covers the whole sweep
    uforms = [pertsym.underdamped_uniform(ev, amp, off) for ev in sweep]
    y0 = []
    for u in uforms:
        y0 += _jet(u.evaluate, 0.0)[:2]
    # the spec's equation per sweep value, one diagonal block each
    blocks = [_ode_rhs(spec, {spec.parameter: ev})[0].M for ev in sweep]
    n = len(blocks[0])
    M = np.zeros((n * len(blocks),) * 2)
    for i, b in enumerate(blocks):
        M[i * n:(i + 1) * n, i * n:(i + 1) * n] = b
    rhs = numlab.LinearRHS(M)
    ref = numlab.solve_ivp(rhs, y0, (grid[0], grid[-1]), "rk4-fixed",
                           step=step, t_eval=grid)
    return [(ev, float(np.max(np.abs(u.evaluate(grid)
                                     - ref.states[:, 2 * i]))))
            for i, (ev, u) in enumerate(zip(sweep, uforms))]


def derive_burgers(spec: ProblemSpec, rep: Report):
    gen = pertsym.burgers_generator()
    rep.add("-- perturbation symmetry acting on (x, s) --")
    for (d, j), e in sorted(gen.components.items()):
        rep.add(f"xi_{d}({j}) = {textform.expr_text(e)}")
    rep.add("-- finite transformation --")
    rep.add("integral from H(u) to x of dz/U'(z) = eps*t*u")
    rep.add("-- closed form for U = log(1+x) --")
    rep.add("u = (x+1)^2/(2*eps*t) - W[(1/(eps*t))*exp((x+1)^2/(eps*t))]/2")


def validate_burgers(spec: ProblemSpec, rep: Report, derived, csv_dir,
                     shared: dict):
    epsv = spec.params.get("eps", 0.1)
    times = _numbers(spec, "validate.times", "1 10 20", need=_ALL_ABOVE_0)
    lo, hi, npts = _numbers(spec, "validate.x_range", "0 5 201", "ffi", _GRID)
    xs = np.linspace(lo, hi, npts)
    prof = pertsym.Log1pProfile()

    rng = np.random.default_rng(7)
    agree_tol = _numbers(spec, "validate.agree_tol", "1e-10", "f")
    worst = 0.0
    for _ in range(100):
        t_ = float(rng.uniform(0.5, 20.0))
        x_ = float(rng.uniform(lo, hi))
        worst = max(worst, abs(pertsym.burgers_ft_solve(prof, t_, x_, epsv)
                               - pertsym.burgers_closed_form(t_, x_, epsv)))
    rep.check("closed form agrees with the implicit-relation root",
              worst <= agree_tol, f"worst |diff| = {worst:.2e}")

    field = numlab.solve_burgers_mol(lambda x: np.log1p(x), epsv, times,
                                     np.linspace(lo, hi, 401))
    sup_tol = _numbers(spec, "validate.sup_tol", "5e-2", "f")
    last_sym = last_bare = None
    for i, t_ in enumerate(times):
        uref = np.interp(xs, field["x"], field["u"][i])
        usym = np.array([pertsym.burgers_closed_form(t_, float(x), epsv)
                         for x in xs])
        ubare = pertsym.burgers_bare_series(t_, xs, epsv)
        es = float(np.max(np.abs(usym - uref)))
        eb = float(np.max(np.abs(ubare - uref)))
        rep.add(f"t = {t_:g}: symmetry sup err {_fmt(es)}, bare {_fmt(eb)}")
        rep.check(f"symmetry solution within tolerance at t = {t_:g}",
                  es <= sup_tol, f"{_fmt(es)} <= {sup_tol}")
        _write_csv(csv_dir, f"burgers_t{t_:g}.csv",
                   ["x", "u_numeric", "u_bare", "u_symmetry"],
                   np.column_stack([xs, uref, ubare, usym]))
        last_sym, last_bare = es, eb
    # Diverging means leaving the band the symmetry solution stays inside.
    # No fixed ratio is asked for: both errors are O((eps*t)^2) and the
    # first-order symmetry improves only the constant.
    rep.check("bare series diverges at the last time",
              last_sym <= sup_tol < last_bare,
              f"symmetry {_fmt(last_sym)} <= {sup_tol} < bare {_fmt(last_bare)}"
              f" (ratio {last_bare / last_sym:.2f})")


# ---------------------------------------------------------------------------
# Command drivers.

# spec kind, or the scripted derivation named by options.scripted ->
# (derive(spec, rep) -> derived,
#  check(spec, rep, derived, csv_dir, shared),
#  whether derive reads params.*, so that a sweep derives at every point)
HANDLERS = {
    "ode-hidden-scale": (derive_ode, validate_ode, False),
    "filament": (derive_filament, validate_filament, False),
    "switchback": (derive_switchback, validate_switchback, True),
    "perturbation-symmetry": (derive_pertsym, validate_pertsym, False),
    "burgers": (derive_burgers, validate_burgers, False),
}


def _handlers(spec: ProblemSpec):
    key = spec.options.get("scripted", spec.kind)
    if key not in HANDLERS:
        raise SpecError(f"unknown options.scripted {key!r}")
    return HANDLERS[key]


def run_derive(spec: ProblemSpec, check: bool) -> Report:
    rep = Report(spec)
    _handlers(spec)[0](spec, rep)
    if check:
        golden = Path(spec.path).parent / "golden" / f"{spec.name}.golden.txt"
        if not golden.exists():
            rep.check("golden file exists", False, str(golden))
        else:
            rep.check("golden file matches", golden.read_text() == rep.text(),
                      str(golden))
    return rep


def run_validate(spec: ProblemSpec, csv_dir, shared=None) -> Report:
    """The validate report.  With ``shared``, a dict that a sweep passes to
    each of its points, the work that does not read params.* is kept there
    for the next call: the derive (value, report lines and checks) unless
    the kind's derive reads them, and what the checks keep there."""
    shared = {} if shared is None else shared
    derive, check, per_point = _handlers(spec)
    rep = Report(spec)
    if per_point or "derive" not in shared:
        shared["derive"] = derive(spec, rep), rep.lines[:], rep.checks[:]
    derived, lines, checks = shared["derive"]
    rep.lines, rep.checks = lines[:], checks[:]
    rep.add("-- validation --")
    check(spec, rep, derived, csv_dir, shared)
    return rep


def sweep_reports(spec: ProblemSpec, csv_dir, sweep):
    """(value, run_validate's report at that value of the parameter) for
    each value of ``sweep``; the points share one ``shared``."""
    shared = {}
    for ev in sweep:
        yield ev, run_validate(dataclasses.replace(
            spec, params={**spec.params, spec.parameter: ev}), csv_dir,
            shared)


def run_sweep(spec: ProblemSpec, csv_dir) -> Report:
    rep = Report(spec)
    sweep = _numbers(spec, "validate.sweep", "")
    if not sweep:
        rep.check("sweep list present", False,
                  "spec has no validate.sweep entry")
        return rep
    rep.add(f"sweep over {spec.parameter}: "
            + " ".join(_fmt(s) for s in sweep))
    for ev, subrep in sweep_reports(spec, csv_dir, sweep):
        status = "PASS" if subrep.ok else "FAIL"
        rep.add(f"{spec.parameter} = {ev:g}: {status}")
        rep.checks.append((f"sweep point {ev:g}", subrep.ok, ""))
    return rep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="hiddenscale",
        description="Derive and validate uniformly valid solutions of "
                    "singularly perturbed ODEs via hidden scale symmetries.")
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in ("derive", "validate", "sweep"):
        p = sub.add_parser(cmd)
        p.add_argument("spec", help="problem-spec file")
        if cmd == "derive":
            p.add_argument("--check", action="store_true",
                           help="compare against the golden file")
        else:
            p.add_argument("--csv-dir", default=None,
                           help="directory for CSV tables")
    args = ap.parse_args(argv)
    try:
        spec = parse_spec(args.spec)
        _handlers(spec)
        if args.command == "derive":
            rep = run_derive(spec, args.check)
        elif args.command == "validate":
            rep = run_validate(spec, args.csv_dir)
        else:
            rep = run_sweep(spec, args.csv_dir)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except (ftflow.FTError, pertsym.DeterminingError,
            exprcore.OutOfClassError) as exc:
        print(f"method does not apply: {exc}", file=sys.stderr)
        return 3
    except numlab.SolverError as exc:
        print(f"oracle error: the numeric check could not run: {exc}",
              file=sys.stderr)
        return 3
    sys.stdout.write(rep.text())
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
