"""The benchmark's own smoke test.

    python3 perfbench/smoke.py            # tiny passes, about a minute
    python3 perfbench/smoke.py --size full --seconds 20

For every workload: one untraced run prints every end-to-end metric of
BENCHMARK.json with its unit; two traced runs print every per-layer metric,
and their counters (the first traced pass's counts) are identical.  At full
size, every per-layer time must also be nonzero on some workload.  Then the
correctness gate must fire on a corrupted copy of a golden file and on a
flipped expected status; both fixtures live in a temporary directory.
"""

import argparse
import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from run import OUT, WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, size, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace),
         "--size", size], capture_output=True, text=True, cwd=ROOT,
        timeout=180)
    if proc.returncode:
        raise SystemExit(f"{workload} trace {trace} exited {proc.returncode}"
                         f":\n{proc.stderr}")
    return proc.stdout.splitlines()


def check_output(lines, declared, errors, where):
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: not correct: {lines[-1][:200]}")
    names = [m["name"] for m in declared]
    if list(result["metrics"]) != names:
        odd = sorted(set(names) ^ set(result["metrics"]))
        errors.append(f"{where}: metrics missing or extra: {odd}")
    for m in declared:
        printed = f"metric {m['name']} = "
        if not any(line.startswith(printed) and f" {m['unit']}" in line
                   for line in lines):
            errors.append(f"{where}: {m['name']} not printed with its unit")
    return result


def first_pass_counts(workload, size):
    trace = json.loads((OUT / f"trace-{workload}-seed1-{size}.json")
                       .read_text())
    counts = next(p["counts"] for p in trace["passes"] if p["traced"])
    return {k: v for k, v in counts.items() if not k.endswith((".s", "_s"))}


def check_runs(size, seconds, errors):
    nonzero = set()
    for workload in WORKLOADS:
        check_output(run_bench(workload, 0, size, seconds),
                     BENCH["end_to_end"], errors, f"{workload} untraced")
        counts = []
        for attempt in (1, 2):
            result = check_output(run_bench(workload, 1, size, seconds),
                                  BENCH["per_layer"], errors,
                                  f"{workload} traced #{attempt}")
            nonzero |= {k for k, v in result["metrics"].items() if v["value"]}
            counts.append(first_pass_counts(workload, size))
        if counts[0] != counts[1]:
            diff = sorted(k for k in set(counts[0]) | set(counts[1])
                          if counts[0].get(k) != counts[1].get(k))
            errors.append(f"{workload}: counters differ between traced runs: "
                          f"{diff}")
        print(f"{workload}: {len(counts[0])} counters repeat" if
              counts[0] == counts[1] else f"{workload}: counters differ")
    idle = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "s"
            and m["name"] not in nonzero]
    if size == "full" and idle:
        errors.append(f"layers timed at zero on every workload: {idle}")


def check_gate(errors):
    """The gate passes the real data and fires on each corrupted fixture."""
    from hiddenscale.specfile import parse_spec

    def failures(workload, spec_dir, expected, name):
        specs = {p.stem: parse_spec(p) for p in spec_dir.glob("*.spec")}
        op = next(op for op in workloads.corpus_ops(
            workload, specs, expected, set()) if op.spec == name
            and op.command != "cli.run_sweep")
        return op.gate(op.call())

    expected = workloads.load_expected()
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        shutil.copytree(ROOT / "corpus", corpus)
        if failures("derive-corpus", corpus, expected, "overdamped"):
            errors.append("gate fires on an intact golden file")
        golden = corpus / "golden" / "overdamped.golden.txt"
        golden.write_text(golden.read_text().replace("eps", "epsilon", 1))
        if not failures("derive-corpus", corpus, expected, "overdamped"):
            errors.append("gate missed a corrupted golden file")

        if failures("validate-corpus", ROOT / "corpus", expected, "burgers"):
            errors.append("gate fires on burgers' expected statuses")
        flipped = copy.deepcopy(expected)
        for k in flipped["known_fail"]:
            flipped[k["command"]][k["spec"]][k["check"]] = "PASS"
        path = Path(tmp) / "expected.json"
        path.write_text(json.dumps(flipped))
        if not failures("validate-corpus", ROOT / "corpus",
                        workloads.load_expected(path), "burgers"):
            errors.append("gate missed a flipped expected status")
    print("gate: checked golden corruption and a flipped status")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=("tiny", "full"), default="tiny")
    ap.add_argument("--seconds", type=float, default=0.5)
    args = ap.parse_args()
    errors = []
    check_runs(args.size, args.seconds, errors)
    check_gate(errors)
    for e in errors:
        print("SMOKE FAIL", e)
    print("smoke: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
