"""Write expected.json: every corpus spec's check names and statuses.

The file is the benchmark's record of the seed commit's outcomes; regenerate
it only at a commit whose outcomes are meant to become the new expectation.

    python3 perfbench/record_expected.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hiddenscale import cli  # noqa: E402
from hiddenscale.specfile import parse_spec  # noqa: E402

KNOWN_FAIL = [{
    "command": "validate", "spec": "burgers",
    "check": "bare series diverges at the last time",
    "why": "criterion 8: the bare/symmetry error ratio at t = 20 saturates "
           "near 7 with this oracle; the spec asks for at least 10 (README)",
}]


def main():
    out = {"derive": {}, "validate": {}, "sweep": {}, "known_fail": KNOWN_FAIL}
    for path in sorted((ROOT / "corpus").glob("*.spec")):
        spec = parse_spec(path)
        reps = {"derive": cli.run_derive(spec, check=True),
                "validate": cli.run_validate(spec, None)}
        if spec.validate.get("sweep"):
            reps["sweep"] = cli.run_sweep(spec, None)
        for command, rep in reps.items():
            names = [name for name, _, _ in rep.checks]
            if len(set(names)) != len(names):
                raise SystemExit(f"{command} {spec.name}: repeated check name")
            out[command][spec.name] = {name: "PASS" if ok else "FAIL"
                                       for name, ok, _ in rep.checks}
    fails = sorted((c, s, n) for c, by_spec in out.items() if c != "known_fail"
                   for s, checks in by_spec.items()
                   for n, status in checks.items() if status == "FAIL")
    known = sorted((k["command"], k["spec"], k["check"]) for k in KNOWN_FAIL)
    if fails != known:
        raise SystemExit(f"FAIL checks {fails} are not the known ones {known}")
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
