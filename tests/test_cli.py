"""Command driver: golden comparison, determinism, CSV output, exit codes."""

import collections
import dataclasses
import filecmp
import hashlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hiddenscale import cli, numlab, pertsym
from hiddenscale.exprcore import Expr
from hiddenscale.ftflow import FTInconsistent
from hiddenscale.pertsym import DeterminingError
from hiddenscale.specfile import KINDS, ode_problem, parse_spec
import specgrid

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
ALL_SPECS = sorted(p.stem for p in CORPUS.glob("*.spec"))


def run_cli(*args, timeout=None):
    return subprocess.run([sys.executable, "-m", "hiddenscale.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("name", ALL_SPECS)
def test_derive_matches_golden(name):
    spec = parse_spec(CORPUS / f"{name}.spec")
    rep = cli.run_derive(spec, check=True)
    failed = [c for c in rep.checks if not c[1]]
    assert not failed, rep.text()


def test_derive_is_deterministic():
    spec = parse_spec(CORPUS / "mathieu.spec")
    a = cli.run_derive(spec, check=False).text()
    b = cli.run_derive(spec, check=False).text()
    assert a == b


def _at_order(tmp_path, name, order, extra=""):
    """The path of a copy of a corpus spec with ``method.order`` changed and
    the lines ``extra`` appended."""
    text = (CORPUS / f"{name}.spec").read_text()
    assert "method.order = " in text
    path = tmp_path / f"{name}{order}.spec"
    path.write_text(re.sub(r"(?m)^method\.order = .*$",
                           f"method.order = {order}", text) + extra)
    return path


# sha256 of the derive text at higher orders, pinned so that what the exact
# kernel leaves out (orders above the checked ones) never shows in a report;
# mathieu at order 5 (1.3-1.6 s) is left out to keep this test short
HIGHER_ORDERS = {
    ("mathieu", 2):
        "99e8c81028ce69f6f7184c2dd241ea36ad715e7ca9f461ae59609f646cdb70c3",
    ("mathieu", 3):
        "987db849c37d74bb3a121a5dbbacc1eee27659851fae660b95f989c14e68bf76",
    ("mathieu", 4):
        "2ec870fd17f6d5df0a4833f41afc6e8abbeba42f3bf6dd44a5a761e4d912ab33",
    # ends "underdetermined: inexact expression division (free symbols
    # present: eps)"
    ("overdamped", 5):
        "35c32aa75d4b84ac019830f0390f87bfa32cea5e622d7ae932457a7a1ea459b6",
    # grid specs (GRID_ORDERS); which unknowns the solver's pivot order
    # leaves free shows in these
    ("duffing", 3):
        "4c0131e36dcf22635827c75d37517938dc45b5491100ba25dc23514b57b5993a",
    ("vanderpol", 3):
        "37e40c178f000fd282a358523b12b4f3f7328859ddd8b076d47e9c2f29608454",
}
# name -> (operator, perturbation) of a grid spec with amp-cos-A0 start values
GRID_ORDERS = {"duffing": ("D2 + D0", "eps*y^3"),
               "vanderpol": ("D2 + D0", "eps*Dy - eps*y^2*Dy")}


def test_higher_order_derives_are_pinned(tmp_path):
    for (name, order), want in HIGHER_ORDERS.items():
        if name in GRID_ORDERS:
            path = tmp_path / f"{name}{order}.spec"
            path.write_text(specgrid.spec_text(*GRID_ORDERS[name],
                                               "amp-cos-A0", order, False))
        else:
            path = _at_order(tmp_path, name, order)
        spec = parse_spec(path)
        text = cli.run_derive(spec, False).text()
        assert hashlib.sha256(text.encode()).hexdigest() == want, (name, order)


@pytest.mark.parametrize("name, error, match", [
    # every division here is exact: one, 8 atoms by 2, has a 7-atom quotient
    ("kdv", FTInconsistent, r"^no hidden-scale symmetry for this painting: "
     r"residual equation expr 0, basis cos\(th\) - i\*sin\(th\) \[re\] "
     r"@order 2 does not vanish$"),
    ("underdamped", DeterminingError, r"\(residual 1/16\)$"),
])
def test_higher_order_failures_are_pinned(tmp_path, capsys, name, error,
                                         match):
    # reachable at order 3; the command line reports it in one line
    path = _at_order(tmp_path, name, 3)
    with pytest.raises(error, match=match):
        cli.run_derive(parse_spec(path), False)
    assert cli.main(["derive", str(path)]) == 3
    out = capsys.readouterr()
    prefix = "method does not apply: "
    assert out.out == "" and out.err.startswith(prefix)
    assert re.search(match, out.err[len(prefix):].removesuffix("\n"))
    assert out.err.count("\n") == 1 and out.err.endswith("\n")


@pytest.mark.parametrize("order, free", [(2, "A, B, a1, eps"),
                                         (3, "A, B, C1, C2, a1, eps")])
def test_mathieu_cgo_comparison_ends(tmp_path, order, free):
    # exact division always ends; the timeout fails a hang instead of
    # stalling the suite
    path = _at_order(tmp_path, "mathieu", order, "options.cgo_compare = true\n")
    r = run_cli("derive", str(path), timeout=30)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == (
        "underdetermined: inexact expression division "
        f"(free symbols present: {free})")


def test_validate_is_deterministic():
    spec = parse_spec(CORPUS / "terrible.spec")
    a = cli.run_validate(spec, None).text()
    b = cli.run_validate(spec, None).text()
    assert a == b


def test_exit_codes(tmp_path):
    r = run_cli("derive", str(CORPUS / "overdamped.spec"), "--check")
    assert r.returncode == 0, r.stdout + r.stderr
    r2 = run_cli("derive", "/nonexistent.spec")
    assert r2.returncode == 2
    r3 = run_cli("derive", str(CORPUS / "overdamped.spec"), "--csv-dir", "x")
    assert r3.returncode == 2
    odd = tmp_path / "odd.spec"
    odd.write_text((CORPUS / "overdamped.spec").read_text()
                   + "options.scripted = nosuch\n")
    r4 = run_cli("validate", str(odd))
    assert r4.returncode == 2
    assert r4.stderr == "spec error: unknown options.scripted 'nosuch'\n"
    # validate without the parameter's value; a dangling "^"
    overdamped = (CORPUS / "overdamped.spec").read_text()
    noeps = tmp_path / "noeps.spec"
    noeps.write_text(overdamped.replace("params.eps = 0.2\n", ""))
    r5 = run_cli("validate", str(noeps))
    assert r5.returncode == 2
    assert r5.stderr == ("spec error: line 21: validate.grid needs "
                         "params.eps, which is missing\n")
    caret = tmp_path / "caret.spec"
    caret.write_text(overdamped.replace("= eps*y\n", "= eps*y^\n"))
    r6 = run_cli("derive", str(caret))
    assert r6.returncode == 2
    assert r6.stderr == ("spec error: line 11: cannot parse "
                         "equation.perturbation: dangling '^' at column 6 "
                         "of 'eps*y^'\n")
    # an initial value that is no number and no declared name; validate
    # without the value of a start value's parameter
    for value in ("B0", "3*eps"):
        case = tmp_path / "case.spec"
        case.write_text(overdamped.replace("ics.y = 3\n",
                                           f"ics.y = {value}\n"))
        r7 = run_cli("derive", str(case))
        message = f"line 19: malformed number {value!r} for ics.y"
        assert (r7.returncode, r7.stdout, r7.stderr) \
            == (2, "", f"spec error: {message}\n")
    noa1 = tmp_path / "noa1.spec"
    noa1.write_text((CORPUS / "kdv.spec").read_text()
                    .replace("params.A1 = 0.5\n", ""))
    r8 = run_cli("validate", str(noa1))
    assert (r8.returncode, r8.stdout, r8.stderr) == (
        2, "", "spec error: validate needs start values: params.A1 for R~\n")
    # the scaling fit starts its oracles from the ics, here a name with no
    # params.* value
    named = tmp_path / "named.spec"
    named.write_text(overdamped.replace("ics.y = 3\n", "ics.y = A0\n")
                     .replace("symbols.constants = A B\n",
                              "symbols.constants = A B\nsymbols.extra = A0\n"))
    r9 = run_cli("validate", str(named))
    assert (r9.returncode, r9.stdout, r9.stderr) == (
        2, "", "spec error: validate.scaling_order needs ics.* values that "
        "are numbers or have params.*\n")
    # malformed numbers where a command reads them: derive prints the
    # underdamped closed form without reading options.amplitude
    amp = tmp_path / "amp.spec"
    amp.write_text((CORPUS / "underdamped.spec").read_text().replace(
        "options.amplitude = 1.0", "options.amplitude = abc"))
    r10 = run_cli("derive", str(amp))
    assert r10.returncode == 0, r10.stderr
    for grid, message in (
            ("0 15 x", "malformed number 'x' for validate.grid"),
            ("0 15", "validate.grid takes <number> <number> <count>, "
                     "got '0 15'")):
        path = tmp_path / "grid.spec"
        path.write_text(overdamped.replace("validate.grid = 0 15 301",
                                           f"validate.grid = {grid}"))
        r11 = run_cli("validate", str(path))
        assert (r11.returncode, r11.stdout, r11.stderr) == (
            2, "", f"spec error: line 22: {message}\n")
    r12 = run_cli("validate", str(amp))
    assert (r12.returncode, r12.stdout, r12.stderr) == (
        2, "", "spec error: line 18: malformed number 'abc' for "
        "options.amplitude\n")
    # an oracle that cannot integrate the equation: one line, exit 3
    stiff = tmp_path / "stiff.spec"
    stiff.write_text(specgrid.spec_text("D2", "eps*y^2", "amp-cos-options", 1,
                                        False))
    r13 = run_cli("validate", str(stiff))
    assert (r13.returncode, r13.stdout, r13.stderr) == (
        3, "", "oracle error: the numeric check could not run: adaptive "
        "integration failed: Required step size is less than spacing "
        "between numbers.\n")
    # amplitude-phase constants on a repeated oscillatory root
    repeated = tmp_path / "repeated.spec"
    repeated.write_text(specgrid.spec_text("D4 + 2*D2 + D0", "eps*y",
                                           "amp-cos-A0", 1, False))
    r13 = run_cli("derive", str(repeated))
    assert (r13.returncode, r13.stdout, r13.stderr) == (
        2, "", "spec error: line 11: method.constant_style = amp-cos needs "
        "simple oscillatory roots; equation.operator = D4 + 2*D2 + D0 has "
        "a repeated one\n")
    # filament fixing an order-0 constant; fixing an order-1 one derives
    filament = (CORPUS / "filament.spec").read_text()
    fixed = tmp_path / "fixed.spec"
    for name in ("A1", "alpha2"):
        fixed.write_text(filament + f"method.fix.{name} = 0\n")
        r14 = run_cli("validate", str(fixed))
        assert (r14.returncode, r14.stdout, r14.stderr) == (
            2, "", "spec error: line 23: options.scripted = filament derives "
            "a flow for every order-0 constant; "
            f"method.fix.{name} fixes {name}\n")
    fixed.write_text(filament + "method.fix.c1 = 0\n")
    r15 = run_cli("derive", str(fixed))
    assert r15.returncode == 0, r15.stderr
    # a well-formed validate.* value out of its range, refused where it is
    # read: one line naming it, exit 2
    count, above = "needs a count of at least 2", "must be above 0"
    fit = "needs at least 3 values to fit an error order"
    profiles = "must be at least 10, where the profiles end"
    for name, key, value, need in (
            ("overdamped", "validate.grid", "0 15 1", count),
            ("mathieu", "validate.grid", "0 30 0", count),
            ("overdamped", "validate.sweep", "0.05 0.1", fit),
            ("underdamped", "validate.sweep", "0.1 0.2", fit),
            ("bad", "validate.grid_points", "0", "must be at least 2"),
            ("terrible", "validate.x_max", "-1", profiles),
            ("terrible", "validate.x_max", "5", profiles),
            ("terrible", "validate.x_max", "1e-5", profiles),
            ("terrible", "validate.crossover_eps", "0", above),
            ("overdamped", "validate.oracle_step", "0", above),
            ("underdamped", "validate.oracle_step", "-1e-4", above),
            ("burgers", "validate.x_range", "0 5 1", count),
            ("burgers", "validate.times", "0 10", "must all be above 0")):
        lines = (CORPUS / f"{name}.spec").read_text().splitlines()
        n = next((i for i, text in enumerate(lines, 1)
                  if text.startswith(key + " = ")), len(lines) + 1)
        lines[n - 1:n] = [f"{key} = {value}"]     # replaced or appended
        path = tmp_path / "range.spec"
        path.write_text("\n".join(lines) + "\n")
        r16 = run_cli("validate", str(path))
        assert (r16.returncode, r16.stdout, r16.stderr) == (
            2, "", f"spec error: line {n}: {key} = {value} {need}\n")


def test_every_kind_has_handlers():
    for kind in KINDS:
        derive, check, per_point = cli.HANDLERS[kind]
        assert callable(derive) and callable(check)
        # only the switchback derive reads params.*
        assert per_point is (kind == "switchback")


# rhs calls of each validate's oracles: the step control and the
# derivatives at the t_eval nodes of every plain rhs (an accepted step reuses
# its last stage); a LinearRHS is advanced in closed form
RHS_CALLS = {"kdv": 36750, "terrible": 35008, "mathieu": 17012,
             "bad": 12582, "filament": 270}


@pytest.mark.parametrize("name", ALL_SPECS)
def test_validate_report_extends_the_derive_report(name, monkeypatch):
    # run_validate alone derives; every check only appends after the marker
    spec = parse_spec(CORPUS / f"{name}.spec")
    derived = cli.run_derive(spec, check=False).lines
    calls = [0]
    solve = numlab.solve_ivp

    def counted(rhs, *args, **kwargs):
        def counting(t, y):
            calls[0] += 1
            return rhs(t, y)
        if isinstance(rhs, numlab.LinearRHS):
            return solve(rhs, *args, **kwargs)
        return solve(counting, *args, **kwargs)
    monkeypatch.setattr(numlab, "solve_ivp", counted)
    lines = cli.run_validate(spec, None).lines
    assert lines[:len(derived) + 1] == derived + ["-- validation --"]
    # a faster oracle takes the same steps
    assert calls[0] == RHS_CALLS.get(name, 0)


def test_csv_emission(tmp_path):
    spec = parse_spec(CORPUS / "overdamped.spec")
    rep = cli.run_validate(spec, str(tmp_path))
    out = tmp_path / "overdamped_reference_curve.csv"
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == "tau,y_numeric,y_bare,y_uniform,err_bare,err_uniform"
    assert rep.ok


def test_burgers_csv_columns(tmp_path):
    spec = parse_spec(CORPUS / "burgers.spec")
    rep = cli.run_validate(spec, str(tmp_path))
    out = tmp_path / "burgers_t1.csv"
    assert out.exists()
    assert out.read_text().splitlines()[0] == "x,u_numeric,u_bare,u_symmetry"
    assert rep.ok


def test_switchback_csv_columns(tmp_path):
    spec = parse_spec(CORPUS / "terrible.spec")
    cli.run_validate(spec, str(tmp_path))
    out = tmp_path / "terrible_profiles.csv"
    header = out.read_text().splitlines()[0]
    for col in ("x", "u_numeric", "u_order1", "u_order2", "u_asymptotic",
                "err_order1", "err_order2", "err_asymptotic"):
        assert col in header.split(",")


def test_sweep_command():
    for name in ("overdamped", "underdamped"):
        rep = cli.run_sweep(parse_spec(CORPUS / f"{name}.spec"), None)
        assert rep.lines[1:] == ["sweep over eps: 0.05 0.1 0.2",
                                 "eps = 0.05: PASS", "eps = 0.1: PASS",
                                 "eps = 0.2: PASS"], name
        assert rep.ok, name


# every corpus spec with a sweep, its own where it has one, and burgers with
# its failing point first: a check of one point must not reach the next
SWEPT = [(name, "0.05 0.1 0.2") for name in ALL_SPECS] \
    + [("burgers", "0.2 0.05 0.1")]


def _swept_copy(tmp_path, name, sweep):
    text = (CORPUS / f"{name}.spec").read_text()
    if "validate.sweep" not in text:
        text += f"validate.sweep = {sweep}\n"
    path = tmp_path / f"{name}.spec"
    path.write_text(text)
    return parse_spec(path)


@pytest.mark.parametrize("name, sweep", SWEPT)
def test_sweep_points_equal_validate(tmp_path, name, sweep):
    # a sweep derives and integrates once for all its points; each point
    # still reports and writes what run_validate does at that point
    spec = _swept_copy(tmp_path, name, sweep)
    values = [float(v) for v in spec.validate["sweep"].split()]
    fast, slow = tmp_path / "fast", tmp_path / "slow"
    got = cli.run_sweep(spec, str(fast))
    want = cli.Report(spec)
    want.add(f"sweep over {spec.parameter}: "
             + " ".join(cli._fmt(v) for v in values))
    points = cli.sweep_reports(spec, None, values)
    for ev, (ev2, rep) in zip(values, points):
        ref = cli.run_validate(dataclasses.replace(
            spec, params={**spec.params, spec.parameter: ev}), str(slow))
        assert ev2 == ev and (rep.lines, rep.checks) == (ref.lines,
                                                         ref.checks), ev
        want.add(f"{spec.parameter} = {ev:g}: {'PASS' if ref.ok else 'FAIL'}")
        want.checks.append((f"sweep point {ev:g}", ref.ok, ""))
    assert (got.lines, got.checks) == (want.lines, want.checks)
    names = sorted(p.name for p in fast.glob("*"))
    assert names == sorted(p.name for p in slow.glob("*"))
    assert filecmp.cmpfiles(fast, slow, names, shallow=False)[0] == names


def _count_calls(monkeypatch, owner, attr, counts, when=None):
    fn = getattr(owner, attr)

    def counted(*args, **kwargs):
        counts[attr] += when is None or when(*args, **kwargs)
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, attr, counted)


def test_sweep_runs_point_independent_work_once(tmp_path, monkeypatch):
    counts = collections.Counter()
    _count_calls(monkeypatch, pertsym, "solve_determining", counts)
    _count_calls(monkeypatch, cli, "hidden_scale_pipeline", counts)
    _count_calls(monkeypatch, numlab, "solve_ivp", counts,
                 lambda *args, **kwargs: args[3:4] == ("rk4-fixed",))
    _count_calls(monkeypatch, cli, "_switchback_problem", counts)
    # underdamped: one determining-equation solve and one stacked oracle,
    # which read no params.*; overdamped: the pipeline at its order 1 and at
    # the scaling order 2, and one oracle per eps, not per eps and point;
    # the switchback derive reads params.eps, so it runs at every point
    for name, want in [("underdamped", {"solve_determining": 1,
                                        "solve_ivp": 1}),
                       ("overdamped", {"hidden_scale_pipeline": 2,
                                       "solve_ivp": 3}),
                       ("bad", {"_switchback_problem": 3})]:
        counts.clear()
        assert cli.run_sweep(_swept_copy(tmp_path, name, "0.005 0.01 0.02"),
                             None).ok, name
        assert +counts == want, name


def test_ode_rhs_linear_only_when_constant_coefficient():
    # overdamped: y'' + y' + eps*y = 0 is constant-coefficient linear
    spec = parse_spec(CORPUS / "overdamped.spec")
    rng = np.random.default_rng(3)
    for ev in (0.05, 0.2):
        rhs, n = cli._ode_rhs(spec, {"eps": ev})
        assert isinstance(rhs, numlab.LinearRHS) and n == 2
        for _ in range(20):
            t, y = rng.uniform(0.0, 15.0), rng.uniform(-3.0, 3.0, 2).tolist()
            np.testing.assert_allclose(rhs(t, y), [y[1], -(y[1] + ev * y[0])],
                                       rtol=0, atol=1e-12)
    # mathieu's 2*eps*cos(t)*y depends on t; kdv's y*Dy is nonlinear
    y = [0.7, -0.4, 0.3]
    mathieu = parse_spec(CORPUS / "mathieu.spec")
    rhs, _n = cli._ode_rhs(mathieu, dict(mathieu.params))
    assert not isinstance(rhs, numlab.LinearRHS)
    assert rhs(0.0, y[:2])[1] != rhs(1.0, y[:2])[1]
    kdv = parse_spec(CORPUS / "kdv.spec")
    rhs, _n = cli._ode_rhs(kdv, dict(kdv.params))
    assert not isinstance(rhs, numlab.LinearRHS)
    assert rhs(0.0, [2 * v for v in y])[2] != 2 * rhs(0.0, y)[2]


def _ode_rhs_reference(spec, params):
    """The oracle rhs on numpy scalars with a fresh env per call: the
    reference for ``cli._ode_rhs``'s closure on Python floats."""
    prob = ode_problem(spec)
    coeffs = [float(c) for c in prob.operator.coeffs]
    epsv = params[spec.parameter]
    var = spec.variable
    pert = [(pt.eps_power,
             pt.coeff if var in pt.coeff.symbols()
             else pt.coeff.eval(params).real * epsv ** pt.eps_power,
             pt.deriv_powers)
            for pt in prob.perturbations]

    def rhs(t, y):
        top = 0.0
        for m, c in enumerate(coeffs[:-1]):
            top += c * y[m]
        env = dict(params)
        env[var] = float(t)
        for p, coeff, dp in pert:
            if isinstance(coeff, Expr):
                val = coeff.eval(env).real * epsv ** p
            else:
                val = coeff
            for m, q in dp:
                val *= y[m] ** q
            top += val
        out = np.empty_like(y)
        out[:-1] = y[1:]
        out[-1] = -top / coeffs[-1]
        return out
    return rhs


def _with_perturbation(tmp_path, perturbation):
    """mathieu's spec with another ``equation.perturbation``."""
    text = (CORPUS / "mathieu.spec").read_text()
    path = tmp_path / "pert.spec"
    path.write_text(re.sub(r"(?m)^equation\.perturbation = .*$",
                           f"equation.perturbation = {perturbation}", text))
    return parse_spec(path)


@pytest.mark.parametrize("name", ["kdv", "mathieu", "power-and-cos",
                                  "cube-and-sin"])
def test_ode_rhs_matches_reference(tmp_path, name):
    # repeated and decreasing t give exactly the reference values
    if name == "power-and-cos":
        spec = _with_perturbation(tmp_path, "eps*y^2 + 2*eps*cos(t)*Dy")
    elif name == "cube-and-sin":
        # y**3 rounds unlike y*y*y
        spec = _with_perturbation(tmp_path, "eps*y^3 + eps*sin(2*t)*Dy^2")
    else:
        spec = parse_spec(CORPUS / f"{name}.spec")
    rhs, n = cli._ode_rhs(spec, dict(spec.params))
    ref = _ode_rhs_reference(spec, dict(spec.params))
    rng = np.random.default_rng(17)
    ts = np.repeat(rng.uniform(-5.0, 60.0, 50), 2)    # random order, pairs
    for t in ts.tolist():
        y = rng.uniform(-3.0, 3.0, n)
        assert np.array_equal(rhs(t, y.tolist()), ref(t, y)), (name, t)


def test_ode_rhs_overflow_is_a_solver_error(tmp_path):
    # a Python float power raises OverflowError where a numpy scalar's
    # gives inf; the oracle reports either as a non-finite rhs
    spec = _with_perturbation(tmp_path, "eps*y^2")
    rhs, _n = cli._ode_rhs(spec, dict(spec.params))
    with pytest.raises(numlab.SolverError, match=r"^NaN/Inf in rhs at t="):
        numlab.solve_ivp(rhs, [1e200, 0.0], (0.0, 1.0), "rk45-adaptive")


TOP_DERIVATIVE = """\
name = topd
kind = ode-hidden-scale
symbols.variable = t
symbols.parameter = eps
symbols.constants = A
equation.operator = D1 + D0
equation.perturbation = eps*Dy
method.order = 1
method.constants.order0 = A
params.eps = 0.1
options.tilde_A = 1
validate.grid = 0 5 51
"""


@pytest.mark.parametrize("text, message", [
    # mathieu without options.tilde_*: no start values for the flows
    ("\n".join(line for line in (CORPUS / "mathieu.spec").read_text()
               .splitlines() if not line.startswith("options.tilde_")),
     "validate needs start values: options.tilde_R for R~, "
     "options.tilde_theta for theta~"),
    (TOP_DERIVATIVE, "validate needs an explicit equation: the perturbation "
                     "contains the top derivative of y (order 1)"),
], ids=["no-start-values", "top-derivative"])
def test_spec_errors_during_validate_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "case.spec"
    path.write_text(text)
    assert cli.main(["derive", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["validate", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"spec error: {message}\n"


@pytest.mark.parametrize("perturbation", ["eps*y^2", "eps*y^3"])
def test_scaling_order_needs_a_closed_form(tmp_path, capsys, perturbation):
    # the scaling check fits the tilde constants as if the solution were
    # linear in them; at order 2 these flows are numeric
    path = tmp_path / "case.spec"
    path.write_text(re.sub(r"(?m)^equation\.perturbation = .*$",
                           f"equation.perturbation = {perturbation}",
                           (CORPUS / "overdamped.spec").read_text()))
    assert cli.main(["derive", str(path)]) == 0
    capsys.readouterr()
    for command in ("validate", "sweep"):
        assert cli.main([command, str(path)]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            "method does not apply: validate.scaling_order = 2 needs a "
            "closed-form uniform solution; at that order it is <numeric "
            "uniform solution: A=numeric, B=numeric>\n")


@pytest.mark.parametrize("name, key, value, line", [
    ("bad", "options.n", "4", 6),
    ("bad", "options.n", "1", 6),
    ("bad", "options.delta", "2", 7),
    ("bad", "method.order", "2", 8),
    ("terrible", "method.order", "3", 8),
])
def test_switchback_outside_the_family_exits_2(tmp_path, capsys, name, key,
                                               value, line):
    path = tmp_path / "case.spec"
    path.write_text(re.sub(rf"(?m)^{re.escape(key)} = .*$", f"{key} = {value}",
                           (CORPUS / f"{name}.spec").read_text()))
    assert cli.main(["derive", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        f"spec error: line {line}: {key} = {value} is outside the switchback "
        "family: n = 2 or 3, delta = 0 or 1, order 1, or order 2 at n = 2, "
        "delta = 1\n")


def test_mathieu_validate_integrates_six_times(monkeypatch):
    # per eps: the oracle, then one numeric-flow trajectory for the initial
    # state and one grown once for the whole grid
    calls = []
    solve = numlab.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)
    monkeypatch.setattr(numlab, "solve_ivp", counted)
    rep = cli.run_validate(parse_spec(CORPUS / "mathieu.spec"), None)
    assert rep.ok and len(calls) == 6


NO_SCIPY = """
import sys
from pathlib import Path
from hiddenscale import cli
from hiddenscale.specfile import parse_spec
specs = {p.stem: parse_spec(p) for p in Path(sys.argv[1]).glob("*.spec")}
assert len(specs) == 8
for spec in specs.values():
    assert cli.run_derive(spec, check=True).ok
    assert cli.run_validate(spec, None).ok
for name in ("overdamped", "underdamped"):
    assert cli.run_sweep(specs[name], None).ok
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_derive_imports_no_scipy():
    # numpy is the only runtime dependency: no derive, validate or sweep of
    # the corpus loads scipy
    r = subprocess.run([sys.executable, "-c", NO_SCIPY, str(CORPUS)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


TRACED = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import tracer
from hiddenscale import cli
from hiddenscale.specfile import parse_spec
tr = tracer.Tracer()
tracer.install(tr)
tr.begin_pass(0)
for name in ("overdamped", "mathieu", "bad"):
    tr.op = ("cli.run_validate", name)
    cli.run_validate(parse_spec(Path(sys.argv[2]) / f"{name}.spec"), None)
tr.op = ("cli.run_sweep", "overdamped")
cli.run_sweep(parse_spec(Path(sys.argv[2]) / "overdamped.spec"), None)
counts = tr.end_pass()
for key in sys.argv[3:]:
    print(key, counts[key])
"""


def test_benchmark_tracer_finds_what_it_wraps():
    # perfbench/tracer.py wraps functions by name; a renamed one would
    # leave these counters at zero or fail the install
    keys = ["numlab.solve_ivp.rk4-fixed.steps",
            "cli.run_validate.overdamped.rk4_steps",
            "ftflow.flows.numeric", "cli.run_validate.mathieu.numeric_flows",
            "numlab.solve_bvp_shooting.iterations",
            "cli.run_validate.bad.shoot_iterations",
            "cli.run_sweep.overdamped.validate_calls"]
    perfbench = CORPUS.parent / "perfbench"
    r = subprocess.run([sys.executable, "-c", TRACED, str(perfbench),
                        str(CORPUS), *keys], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    counts = dict(line.split() for line in r.stdout.splitlines())
    assert sorted(counts) == sorted(keys)
    assert all(float(v) > 0 for v in counts.values()), counts
    # every sweep point runs through run_validate
    assert counts["cli.run_sweep.overdamped.validate_calls"] == "3"


def test_ics_start_values_reach_numeric_flows(tmp_path, capsys):
    # mathieu's flows fall back to numerics; ics y = 1, Dy = 0 (amp-cos)
    # fix R~ = 1 and theta~ = 0 without options.tilde_*
    text = (CORPUS / "mathieu.spec").read_text()
    ics = tmp_path / "ics.spec"
    ics.write_text(text.replace("options.tilde_R = 1.0", "ics.y = 1")
                   .replace("options.tilde_theta = 0.3", "ics.Dy = 0"))
    tilde = tmp_path / "tilde.spec"
    tilde.write_text(text.replace("options.tilde_theta = 0.3",
                                  "options.tilde_theta = 0"))
    # the checks' outcome is not asserted: the tilde copy fails its drift
    # check (3.09 > 3)
    assert cli.main(["validate", str(ics)]) in (0, 1)
    out = capsys.readouterr()
    assert "spec error" not in out.err and "-- validation --" in out.out
    ts = np.array([0.0, 10.0, 30.0])
    values = []
    for path in (ics, tilde):
        spec = parse_spec(path)
        flows = cli.hidden_scale_pipeline(spec)[4]
        assert all(f.kind == "numeric" for f in flows.flows.values())
        values.append(flows.values(ts, cli._uniform_env(spec, spec.params)))
    for n in ("R", "theta"):
        assert np.max(np.abs(values[0][n] - values[1][n])) <= 1e-12


def test_ics_win_over_tilde_options(tmp_path):
    # mathieu's numeric flows start from ics y = 1, Dy = 0 (R~ = 1,
    # theta~ = 0) whatever options.tilde_* say, as the oracle does
    text = (CORPUS / "mathieu.spec").read_text()
    both = tmp_path / "both.spec"
    both.write_text(text.replace("options.tilde_R = 1.0",
                                 "options.tilde_R = 2.0\nics.y = 1\n"
                                 "ics.Dy = 0"))
    ics = tmp_path / "ics.spec"
    ics.write_text(text.replace("options.tilde_R = 1.0",
                                "ics.y = 1\nics.Dy = 0")
                   .replace("options.tilde_theta = 0.3\n", ""))
    tails = [cli.run_validate(parse_spec(p), None).text()
             .split("-- validation --\n")[1] for p in (both, ics)]
    assert tails[0] == tails[1]
    assert "sup error vs oracle: 0.278465074234\n" in tails[0]


@pytest.mark.parametrize("value, amplitude", [("0.7", "7/10"),
                                              ("1/2", "1/2")])
def test_numeric_start_values_stay_exact(tmp_path, value, amplitude):
    # y'' + y + eps*y = 0 with y(0) = 0, y'(0) = value (amp-sin)
    path = tmp_path / "amp.spec"
    path.write_text(specgrid.spec_text("D2 + D0", "eps*y", "amp-sin-0.7", 1,
                                       False).replace("ics.Dy = 0.7",
                                                      f"ics.Dy = {value}"))
    text = cli.run_derive(parse_spec(path), False).text()
    assert f"\nC0(0) = {amplitude}\nC1(0) = (1/2*eps)*t\n" in text


@pytest.mark.parametrize("operator, amplitude", [("D2 + 1/4*D0", "2*A0"),
                                                 ("D2 + 4*D0", "1/2*A0")])
def test_named_slope_starts_the_amplitude(tmp_path, operator, amplitude):
    # y'' + omega^2*y + eps*y' = 0 with y(0) = 0, y'(0) = A0 (amp-sin):
    # the amplitude starts from A0/omega, the phase from 0
    path = tmp_path / "slope.spec"
    path.write_text(specgrid.spec_text(operator, "eps*Dy", "amp-sin-A0", 1,
                                       False))
    text = cli.run_validate(parse_spec(path), None).text()
    assert f"\nC0(0) = {amplitude}*exp(-1/2*eps*t)\nC1(0) = 0\n" in text
    sup = float(re.search(r"sup error vs oracle: (\S+)", text).group(1))
    assert sup <= 2e-2
