"""Command driver: golden comparison, determinism, CSV output, exit codes."""

import subprocess
import sys
from pathlib import Path

import pytest

from hiddenscale import cli
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
