"""Command driver: golden comparison, determinism, CSV output, exit codes."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hiddenscale import cli, numlab
from hiddenscale.specfile import KINDS, parse_spec

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
ALL_SPECS = sorted(p.stem for p in CORPUS.glob("*.spec"))


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hiddenscale.cli", *args],
                          capture_output=True, text=True)


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


def test_every_kind_has_handlers():
    for kind in KINDS:
        derive, validate = cli.HANDLERS[kind]
        assert callable(derive) and callable(validate)


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
    spec = parse_spec(CORPUS / "underdamped.spec")
    rep = cli.run_sweep(spec, None)
    assert any(name.startswith("sweep point") for name, _ok, _d in rep.checks)


def test_ode_rhs_linear_only_when_constant_coefficient():
    # overdamped: y'' + y' + eps*y = 0 is constant-coefficient linear
    spec = parse_spec(CORPUS / "overdamped.spec")
    rng = np.random.default_rng(3)
    for ev in (0.05, 0.2):
        rhs, n = cli._ode_rhs(spec, {"eps": ev})
        assert isinstance(rhs, numlab.LinearRHS) and n == 2
        for _ in range(20):
            t, y = rng.uniform(0.0, 15.0), rng.uniform(-3.0, 3.0, 2)
            np.testing.assert_allclose(rhs(t, y), [y[1], -(y[1] + ev * y[0])],
                                       rtol=0, atol=1e-12)
    # mathieu's 2*eps*cos(t)*y depends on t; kdv's y*Dy is nonlinear
    y = np.array([0.7, -0.4, 0.3])
    mathieu = parse_spec(CORPUS / "mathieu.spec")
    rhs, _n = cli._ode_rhs(mathieu, dict(mathieu.params))
    assert not isinstance(rhs, numlab.LinearRHS)
    assert rhs(0.0, y[:2])[1] != rhs(1.0, y[:2])[1]
    kdv = parse_spec(CORPUS / "kdv.spec")
    rhs, _n = cli._ode_rhs(kdv, dict(kdv.params))
    assert not isinstance(rhs, numlab.LinearRHS)
    assert rhs(0.0, 2 * y)[2] != 2 * rhs(0.0, y)[2]


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
