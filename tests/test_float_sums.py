"""Source guard: an AST scan of every module of ``src/hiddenscale`` for
the builtin ``sum``.

From Python 3.12 on, ``sum`` adds floats with compensation, so a float total
computed by ``sum`` is not the left-to-right total that 3.11 computes.  The
float paths (the oracles, ``Expr.eval`` and the evaluators built from it)
write their sums as left folds, with ``functools.reduce(operator.add, ...)``,
generated code or a loop, which every interpreter computes the same way.  A
``sum`` of exact values is the same everywhere; the allowlist names the
function of each such use, with the reason.  Any other use of ``sum``,
called or only named, fails, and so does an allowlist entry that no longer
matches.
"""

import ast
import math
from pathlib import Path

from hiddenscale import numlab
from hiddenscale.exprcore import Expr

SRC = Path(__file__).resolve().parent.parent / "src" / "hiddenscale"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))

# module.function -> why its sum is exact
ALLOWED = {
    "cli._ode_rhs": "adds a term's int exponents",
    "exprcore.product_upto": "adds the factors' lowest int exponents",
    "ftflow.derive_ft_system": "adds the exact Exprs of a flow's orders",
    "pertseries.LinearOperator.char_roots": "adds the roots' int "
                                            "multiplicities",
    "pertseries._grade_parts": "adds a monomial's int grade units",
}


def _uses(tree, module: str):
    """(enclosing function, line) for every use of the name ``sum``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{where}.{child.name}"
            if isinstance(child, ast.Name) and child.id == "sum":
                found.append((where, child.lineno))
            visit(child, inner)
    visit(tree, module)
    return found


def test_float_sums_are_left_folds_in_the_source():
    used, stray = set(), []
    for module in MODULES:
        path = SRC / f"{module}.py"
        for where, line in _uses(ast.parse(path.read_text()), module):
            if where in ALLOWED:
                used.add(where)
            else:
                stray.append(f"{path.name}:{line}: sum in {where}")
    assert not stray, "builtin sum outside the allowlist:\n" + "\n".join(stray)
    assert used == set(ALLOWED), "allowlist entries with no use"
    assert all(why and "\n" not in why for why in ALLOWED.values())


def test_scan_sees_every_use():
    tree = ast.parse("x = sum([1])\n"
                     "class C:\n    def m(self):\n        add = sum\n"
                     "def f():\n    def g():\n        return sum(a, 0j)\n"
                     "    return np.sum(a)\n")
    assert _uses(tree, "mod") == [("mod", 1), ("mod.C.m", 4), ("mod.f.g", 7)]


def test_left_fold_values():
    # a compensated sum (math.fsum here; the builtin sum compensates float
    # sums from Python 3.12 on) gives 1.0000000000000002 for the first sum
    # of squares and 2.0 for the second sum of terms
    squares = [x * x for x in (1.0, 1e-8, 1e-8)]
    assert math.fsum(squares) == 1.0000000000000002
    assert numlab._rms([1.0, 1e-8, 1e-8]) == math.sqrt(1.0) / 3 ** 0.5
    big = Expr.num(10 ** 100)
    e = Expr.var("a") + big * Expr.var("b") + Expr.var("c") \
        - big * Expr.var("d")
    env = dict.fromkeys("abcd", 1.0)
    assert [t.eval(env) for t in e.terms] == [1, 1e100, 1, -1e100]
    assert math.fsum(t.eval(env).real for t in e.terms) == 2.0
    assert e.eval(env) == 0.0
