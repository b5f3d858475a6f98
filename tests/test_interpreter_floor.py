"""The declared interpreter floor: ``pyproject.toml`` says
``requires-python = ">=3.10"``, so every module of the package, its tests
and its benchmark must parse with Python 3.10's grammar.  This checks
grammar only; a regex or library feature newer than 3.10 is out of its
reach."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert 'requires-python = ">=3.10"' in pyproject
    paths = sorted(p for d in ("src", "tests", "perfbench")
                   for p in (ROOT / d).rglob("*.py"))
    failed = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path),
                      feature_version=(3, 10))
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert paths and not failed, "\n".join(failed)
    # the check tells the grammars apart: an exception group is 3.11's
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
