"""Start-up guard: an AST scan of ``src/hiddenscale`` for scipy imports.

scipy is imported only inside the functions that run a numeric oracle, so a
process that only derives never pays for it.  Fails on any ``import scipy...``
or ``from scipy... import`` that runs when its module is imported: at module
level, in a class body or under a module-level ``if``/``try``, anywhere but
inside a function.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hiddenscale"


def _import_time_nodes(node):
    """The nodes below ``node`` that run when the module is imported."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        yield child
        yield from _import_time_nodes(child)


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module]
    return []


def test_no_module_level_scipy_import():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _import_time_nodes(tree):
            for mod in _imported_modules(node):
                if mod == "scipy" or mod.startswith("scipy."):
                    found.append(f"{path.name}:{node.lineno}: {mod}")
    assert not found, "scipy imported at module level:\n" + "\n".join(found)


def test_scan_sees_module_level_imports():
    tree = ast.parse("import scipy.linalg\n"
                     "try:\n    from scipy import special\nexcept: pass\n"
                     "def f():\n    from scipy.integrate import solve_ivp\n")
    mods = [m for node in _import_time_nodes(tree)
            for m in _imported_modules(node)]
    assert mods == ["scipy.linalg", "scipy"]
