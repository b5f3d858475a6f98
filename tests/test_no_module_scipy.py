"""No scipy under ``src/``: numpy is the package's only runtime dependency,
and scipy is a test-only reference, as sympy is."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_scipy_import_under_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                mods = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {m}" for m in mods
                      if m == "scipy" or m.startswith("scipy.")]
    assert not found, "scipy imported under src/:\n" + "\n".join(found)
