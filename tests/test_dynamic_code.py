"""Source guard: an AST scan of ``src/hiddenscale`` for ``exec``, ``eval``
and ``compile``.

Generated code is allowed only where the allowlist below names the function
that runs it, with the reason.  Any other use of these builtins, called or
only named, fails, and so does an allowlist entry that no longer matches.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hiddenscale"
BUILTINS = {"exec", "eval", "compile"}

# module.function -> why it runs generated code
ALLOWED = {
    "exprcore.compile_function": "builds the numeric evaluators once, from "
                                 "generated names and bound values only",
}


def _uses(tree, module: str):
    """(enclosing function, builtin, line) for every use in ``tree``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{where}.{child.name}"
            if isinstance(child, ast.Name) and child.id in BUILTINS:
                found.append((where, child.id, child.lineno))
            visit(child, inner)
    visit(tree, module)
    return found


def test_generated_code_runs_only_where_allowed():
    used, stray = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for where, name, line in _uses(tree, path.stem):
            if where in ALLOWED:
                used.add(where)
            else:
                stray.append(f"{path.name}:{line}: {name} in {where}")
    assert not stray, "exec/eval/compile outside the allowlist:\n" \
        + "\n".join(stray)
    assert used == set(ALLOWED), "allowlist entries with no use"
    assert all(why and "\n" not in why for why in ALLOWED.values())


def test_scan_sees_every_use():
    tree = ast.parse("x = eval('1')\n"
                     "class C:\n    def m(self):\n        run = exec\n"
                     "def f():\n    def g():\n        compile('', '', 'exec')\n"
                     "    return re.compile('a')\n")
    assert _uses(tree, "mod") == [("mod", "eval", 1), ("mod.C.m", "exec", 4),
                                  ("mod.f.g", "compile", 7)]
