"""A grid of generated ode-hidden-scale specs and their outcomes.

The grid crosses 8 operators, 12 perturbations, 7 start setups, orders 1
and 2 and the most-divergent filter on and off: 2688 specs in y(t) with
parameter eps = 0.05, the extra symbol A0 = 0.7 and the constants C0..C(n-1)
at order 0.  An outcome is the report's text, or the exception's type and
message.

Run as a script to write every spec's outcome to a JSON file, and to
compare two such files, say of a parent tree and of a change, spec by
spec::

    PYTHONPATH=src python tests/specgrid.py derive out.json
    PYTHONPATH=src python tests/specgrid.py validate out.json
    PYTHONPATH=src python tests/specgrid.py compare PARENT.json CHANGE.json

``compare`` prints each (operator, perturbation, setup) class whose
outcomes differ, with its count of differing specs, then a total, and
exits 1 on any difference (a spec missing from one file differs).
"""

from __future__ import annotations

import itertools
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from hiddenscale import cli
from hiddenscale.specfile import parse_spec

OPERATORS = ("D2 + D0", "D2 + 1/4*D0", "D2 + 2*D1 + 2*D0", "D3 + D1",
             "D4 + 2*D2 + D0", "D2 + 4*D0", "D2", "D2 + D1")
PERTURBATIONS = ("eps*y", "eps*Dy", "eps*y^2", "eps*y^3", "eps*Dy^2",
                 "eps*y*Dy", "eps*cos(t)*y", "eps*y + eps*y^2", "eps*Dy^3",
                 "eps*y^2*Dy", "eps*sin(2*t)*y", "eps*Dy - eps*y^2*Dy")
TILDE_OPTIONS = {"tilde_C0": "2", "tilde_C1": "0.3"}
# name -> (constant style, ics by derivative order, options)
SETUPS = {
    "amp-sin-A0": ("amp-sin", {0: "0", 1: "A0"}, {}),
    "amp-cos-A0": ("amp-cos", {0: "A0", 1: "0"}, {}),
    "amp-sin-0.7": ("amp-sin", {1: "0.7"}, {}),
    "amp-cos-1.3": ("amp-cos", {0: "1.3"}, {}),
    "amp-cos-1.3-options": ("amp-cos", {0: "1.3"}, TILDE_OPTIONS),
    "amp-cos-options": ("amp-cos", {}, TILDE_OPTIONS),
    "rect-1-0": ("rect", {0: "1", 1: "0"}, {}),
}
ORDERS = (1, 2)


def _ic_key(m: int) -> str:
    return "ics." + ("y" if m == 0 else "Dy" if m == 1 else f"D{m}y")


def spec_text(operator: str, perturbation: str, setup: str, order: int,
              most_divergent: bool) -> str:
    n = max(int(tok[1:]) for tok in operator.replace("*", " ").split()
            if tok.startswith("D"))
    style, ics, options = SETUPS[setup]
    names = " ".join(f"C{i}" for i in range(n))
    lines = ["name = grid", "kind = ode-hidden-scale",
             "symbols.variable = t", "symbols.parameter = eps",
             f"symbols.constants = {names}", "symbols.extra = A0",
             f"equation.operator = {operator}",
             f"equation.perturbation = {perturbation}",
             f"method.order = {order}",
             f"method.most_divergent = {str(most_divergent).lower()}",
             f"method.constant_style = {style}",
             f"method.constants.order0 = {names}"]
    if ics:
        lines += [f"{_ic_key(m)} = {ics.get(m, '0')}" for m in range(n)]
    lines += [f"options.{k} = {v}" for k, v in options.items()]
    lines += ["params.eps = 0.05", "params.A0 = 0.7",
              "validate.grid = 0 20 201"]
    return "\n".join(lines) + "\n"


def grid():
    """(key, spec text) for every spec of the grid, in a fixed order."""
    for op, pert, setup, order, md in itertools.product(
            OPERATORS, PERTURBATIONS, SETUPS, ORDERS, (False, True)):
        key = f"{op} | {pert} | {setup} | order {order} | md {md}"
        yield key, spec_text(op, pert, setup, order, md)


def outcome(path: Path, command: str) -> str:
    """The report of ``derive`` or ``validate`` on the spec at ``path``, or
    the exception's type and message."""
    try:
        spec = parse_spec(path)
        rep = (cli.run_derive(spec, False) if command == "derive"
               else cli.run_validate(spec, None))
        return rep.text()
    except Exception as exc:        # the outcome is whatever was raised
        return f"{type(exc).__name__}: {exc}"


def compare(parent: Path, change: Path) -> int:
    """Print the classes whose outcomes differ between two outcome files,
    each with its count of differing specs; 1 on any difference."""
    a, b = (json.loads(p.read_text()) for p in (parent, change))
    keys = set(a) | set(b)
    differ = Counter(" | ".join(key.split(" | ")[:3]) for key in keys
                     if a.get(key) != b.get(key))
    for cls, n in sorted(differ.items()):
        print(f"{cls}: {n}")
    classes = {" | ".join(key.split(" | ")[:3]) for key in keys}
    print(f"{sum(differ.values())} of {len(keys)} outcomes differ, in "
          f"{len(differ)} of {len(classes)} classes")
    return 1 if differ else 0


def main(argv) -> int:
    if argv[0] == "compare":
        return compare(Path(argv[1]), Path(argv[2]))
    command, out = argv[0], Path(argv[1])
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.spec"
        for key, text in grid():
            path.write_text(text)
            results[key] = outcome(path, command)
    out.write_text(json.dumps(results, indent=0, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
