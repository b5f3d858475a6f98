"""The benchmark's workloads: operations per pass and the correctness gate.

An operation is one command on one spec or one kernel identity check.  Its
gate returns the reasons it failed; an empty list means it passed.  It
fails when it raises, when a derive report is not byte-identical to its
golden file, when a check that passed at the seed commit fails or is gone
(``expected.json``), or when a battery identity does not hold.  A check that
was FAIL at the seed commit may pass.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, NamedTuple

EXPECTED = Path(__file__).resolve().parent / "expected.json"

# specs that keep the tiny size (the smoke test's) under a second per pass
TINY_DERIVE = ("bad", "burgers", "filament", "overdamped", "terrible")
TINY_VALIDATE = ("bad", "burgers", "filament")
# identity checks per battery pass: criterion 9's 4000/3000/3000/1000 over
# 20, so that a run holds enough passes for its fastest one to repeat
BATTERY = (("distributive", 200), ("leibniz", 150), ("truncate", 150),
           ("eval_fd", 50))


class Op(NamedTuple):
    """One timed ``call``; ``gate(result)`` lists what failed, untimed.

    ``command`` names the called function as the tracer's spans do."""

    command: str
    spec: str
    call: Callable
    gate: Callable

    @property
    def label(self):
        return f"{self.command.rsplit('.', 1)[-1]} {self.spec}"


def load_expected(path=EXPECTED):
    return json.loads(Path(path).read_text())


def check_statuses(checks, expected):
    """Failures among ``(name, passed, detail)`` against the seed's
    ``{name: "PASS" | "FAIL"}``."""
    got = {name: ok for name, ok, _ in checks}
    out = []
    for name, status in expected.items():
        if name not in got:
            out.append(f"check missing: {name}")
        elif status == "PASS" and not got[name]:
            out.append(f"PASS at seed, FAIL now: {name}")
    return out


def check_golden(text, golden_path):
    """The report, less the golden check line it ends with, must equal the
    golden file byte for byte."""
    golden = Path(golden_path).read_text()
    if not text.startswith(golden) \
            or text.count("\n") != golden.count("\n") + 1:
        return [f"report differs from {golden_path}"]
    return []


def corpus_ops(workload, specs, expected, known_fail, size="full"):
    """Operations of one pass over the corpus, in corpus order.

    ``known_fail`` collects one line per run of a check expected to FAIL,
    saying whether it still does."""
    from hiddenscale import cli

    def gate(command, spec):
        want = expected[command][spec.name]
        known = [k["check"] for k in expected["known_fail"]
                 if k["command"] == command and k["spec"] == spec.name]

        def check(rep):
            got = {name: ok for name, ok, _ in rep.checks}
            for name in known:
                known_fail.add(f"{command} {spec.name}: {name!r} "
                               + ("now passes" if got.get(name)
                                  else "still fails (expected)"))
            out = check_statuses(rep.checks, want)
            if command == "derive":
                golden = Path(spec.path).parent / "golden" \
                    / f"{spec.name}.golden.txt"
                out += check_golden(rep.text(), golden)
            return out
        return check

    def op(command, name, call):
        spec = specs[name]
        return Op("cli.run_" + command, name, lambda: call(spec),
                  gate(command, spec))

    if workload == "derive-corpus":
        names = TINY_DERIVE if size == "tiny" else sorted(specs)
        return [op("derive", n, lambda s: cli.run_derive(s, check=True))
                for n in names]
    names = TINY_VALIDATE if size == "tiny" else sorted(specs)
    ops = [op("validate", n, lambda s: cli.run_validate(s, None))
           for n in names]
    if size != "tiny":
        ops += [op("sweep", n, lambda s: cli.run_sweep(s, None))
                for n in sorted(specs) if specs[n].validate.get("sweep")]
    return ops


# ---------------------------------------------------------------------------
# Kernel battery: criterion 9's generator, seeded by the benchmark's seed.

def rand_expr(rng: random.Random):
    from hiddenscale.exprcore import Expr as E
    out = E.zero()
    for _ in range(rng.randint(1, 3)):
        t = E.num(F(rng.randint(-4, 4), rng.randint(1, 3)))
        if rng.random() < 0.6:
            t = t * E.sym("eps", rng.randint(1, 2))
        if rng.random() < 0.5:
            t = t * E.var("x", rng.randint(1, 2))
        if rng.random() < 0.5:
            t = t * E.exp("x", rng.choice([-1, 1, F(1, 2)]))
        if rng.random() < 0.4:
            t = t * E.cos({"x": F(rng.randint(1, 2), 2)}, {"th": 1})
        out = out + t
    return out


ENV = {"eps": 0.3, "x": 0.7, "th": 1.1}
H = 1e-6


def _distributive(a, b, c):
    return a * (b + c) == a * b + a * c


def _leibniz(a, b):
    return (a * b).diff("x") == a.diff("x") * b + a * b.diff("x")


def _truncate(e):
    return e.truncate_order("eps", 6) == e


def _eval_fd(e):
    fd = (e.eval({**ENV, "x": ENV["x"] + H})
          - e.eval({**ENV, "x": ENV["x"] - H})) / (2 * H)
    an = e.diff("x").eval(ENV)
    return abs(fd - an) <= 1e-6 * max(1.0, abs(an))


IDENTITIES = {"distributive": (_distributive, 3), "leibniz": (_leibniz, 2),
              "truncate": (_truncate, 1), "eval_fd": (_eval_fd, 1)}


def _identity_gate(holds):
    return [] if holds else ["identity does not hold"]


def battery_pass(rng: random.Random, size="full"):
    """A pass's identity checks, inputs drawn before anything is timed."""
    scale = 10 if size == "tiny" else 1
    ops = []
    for family, count in BATTERY:
        check, arity = IDENTITIES[family]
        for _ in range(count // scale):
            args = tuple(rand_expr(rng) for _ in range(arity))
            ops.append(Op("exprcore." + family, "battery",
                          lambda c=check, a=args: c(*a), _identity_gate))
    return ops
