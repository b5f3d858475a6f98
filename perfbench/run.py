"""hiddenscale benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload derive-corpus --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Operations repeat in passes until ``--seconds`` have been measured, at least
one pass.  The seed permutes the operations within each corpus pass and
draws the kernel battery's expressions, the same in every pass.  Timings are
best-of (see ``end_to_end``).  Every line but the last names a metric with
its unit, an operation's times, the environment, or a failure; the last
line is the result as JSON.  With ``--trace 0`` it holds the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones.  The traced
run alternates traced and untraced passes so that it can report its own
overhead, and writes its spans and counters to ``.perfbench-out/``.
"""

import os

# pinned before numpy is imported, here and in the set-up processes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple, Optional  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC, CORPUS, OUT = ROOT / "src", ROOT / "corpus", ROOT / ".perfbench-out"
WORKLOADS = ("derive-corpus", "kernel-battery", "validate-corpus")
SETUP_RUNS = 3

# "ready" means hiddenscale and its numpy/scipy are imported and every corpus
# spec is parsed
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import hiddenscale.cli
from hiddenscale.specfile import parse_spec
for path in sys.argv[2:]:
    parse_spec(path)
print("ready", flush=True)
"""


def measure_setup(spec_paths):
    """Median seconds from starting a fresh interpreter to ready."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC),
                               *map(str, spec_paths)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
        if line.strip() != "ready" or proc.returncode:
            raise SystemExit("set-up process failed")
    return statistics.median(times)


def tail(samples):
    """Highest percentile with at least ten samples beyond it (the maximum
    when there are ten or fewer): (value, percentile, sample count)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def environment():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


class Pass(NamedTuple):
    traced: bool
    seconds: float          # sum of the operations' wall times
    op_times: list          # (operation key, seconds)
    counts: Optional[dict]  # the tracer's counters, traced passes only


class Run:
    """Passes of one workload; traced passes alternate with untraced ones."""

    def __init__(self, workload, seed, size, tracer):
        from hiddenscale import specfile
        self.workload, self.size, self.tracer = workload, size, tracer
        self.seed, self.rng = seed, random.Random(seed)
        self.spec_paths = sorted(CORPUS.glob("*.spec"))
        if tracer is not None:
            tracer.begin_pass(-1)
        specs = {p.stem: specfile.parse_spec(p) for p in self.spec_paths}
        self.setup_counts = tracer.end_pass() if tracer is not None else {}
        self.known_fail = set()
        if workload != "kernel-battery":
            self.ops = workloads.corpus_ops(
                workload, specs, workloads.load_expected(), self.known_fail,
                size)
        self.passes = []
        self.failures = []
        self.attempted = 0

    def pass_ops(self):
        if self.workload != "kernel-battery":
            return self.rng.sample(self.ops, len(self.ops))
        # every pass checks fresh copies of the same expressions, so that
        # passes differ only by the host's load
        return workloads.battery_pass(random.Random(self.seed), self.size)

    def one_pass(self, i):
        ops = self.pass_ops()
        tr = self.tracer if self.tracer is not None and i % 2 == 0 else None
        if tr is not None:
            tr.begin_pass(i)
        times = []
        seen = collections.Counter()
        for op in ops:
            if tr is not None:
                tr.op = (op.command, op.spec)
            t0 = perf_counter()
            try:
                result = op.call()
            except Exception as exc:        # a raising operation fails
                dt = perf_counter() - t0
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                dt = perf_counter() - t0
                problems = op.gate(result)
            seen[op.label] += 1
            times.append((f"{op.label} #{seen[op.label]}", dt))
            self.attempted += 1
            if problems:
                self.failures.append(f"{op.label}: {'; '.join(problems)}")
            if tr is not None and op.spec == "battery":
                tr.add(op.command + ".s", dt)
                tr.add("exprcore.checks")
        counts = tr.end_pass() if tr is not None else None
        self.passes.append(Pass(tr is not None, sum(dt for _, dt in times),
                                times, counts))

    def run(self, seconds):
        start = perf_counter()
        i = 0
        while True:
            self.one_pass(i)
            i += 1
            kinds = {p.traced for p in self.passes}
            if perf_counter() - start >= seconds and (
                    self.tracer is None or len(kinds) == 2):
                break

    def fastest(self, traced):
        """The fastest pass of a kind and how many there were."""
        of_kind = [p for p in self.passes if p.traced == traced]
        return min(of_kind, key=lambda p: p.seconds), len(of_kind)


def end_to_end(run):
    """Timings are best-of: ``pass_s`` is the fastest pass, and the tail is
    taken over each operation's fastest time.  On a shared host the same pass
    varies by half its time with the neighbours' load; the fastest of many
    repeats is the figure that repeats across runs."""
    best, n = run.fastest(False)
    best_op = {}
    for p in run.passes:
        for key, dt in p.op_times:
            best_op[key] = min(dt, best_op.get(key, dt))
    value, pct, n_ops = tail(best_op.values())
    failed = len(run.failures)
    return {
        "setup_s": (measure_setup(run.spec_paths),
                    f"median of {SETUP_RUNS} fresh interpreters"),
        "pass_s": (best.seconds, f"fastest of {n} passes; median "
                   f"{statistics.median(p.seconds for p in run.passes):.6g}"),
        "op_s.tail": (value, f"p{pct:.1f} of {n_ops} operations' fastest "
                      "times"),
        "ok_ratio": (1.0 - failed / run.attempted,
                     f"{run.attempted - failed} of {run.attempted} passed"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "this process"),
    }


def per_layer(run, names):
    """Seconds from the fastest traced pass; counts from the first traced
    pass, which runs the same inputs in every run with this seed."""
    best, _ = run.fastest(True)
    first = next(p for p in run.passes if p.traced)
    special = {
        "trace.pass_s": best.seconds,
        "trace.overhead_s": best.seconds - run.fastest(False)[0].seconds,
        "fail_ratio": len(run.failures) / run.attempted,
    }
    metrics = {}
    for name in names:
        if name in special:
            value = special[name]
        elif name.startswith("specfile.parse_spec."):
            value = run.setup_counts.get(name, 0)
        elif name.endswith((".s", "_s")):
            value = best.counts.get(name, 0.0)
        else:
            value = first.counts.get(name, 0)
        metrics[name] = (value, "")
    return metrics


def write_trace(run, args, env, metrics):
    OUT.mkdir(exist_ok=True)
    tr = run.tracer
    path = OUT / f"trace-{args.workload}-seed{args.seed}-{args.size}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "env": env,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "setup_counts": run.setup_counts,
        "passes": [p._asdict() for p in run.passes],
        "span_fields": ["name", "start", "end", "parent", "pass", "spec"],
        "spans": tr.spans,
    }))
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few cheap operations per pass (smoke test)")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "hiddenscale" / "__init__.py").is_file():
        print(f"no hiddenscale sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import tracer

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tracer.install(tr)
    run = Run(args.workload, args.seed, args.size, tr)
    run.run(args.seconds)
    env = environment()

    if args.trace:
        declared = bench["per_layer"]
        metrics = per_layer(run, [m["name"] for m in declared])
    else:
        declared = bench["end_to_end"]
        metrics = end_to_end(run)
    units = {m["name"]: m["unit"] for m in declared}

    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}: {len(run.passes)} passes, {run.attempted} "
          f"operations, {len(run.failures)} failed")
    for line in sorted(run.known_fail):
        print(f"known FAIL {line}")
    for line in run.failures[:50]:
        print(f"FAILED {line}")
    if run.workload != "kernel-battery":
        by_op = {}
        for key, dt in (x for p in run.passes if not p.traced
                        for x in p.op_times):
            by_op.setdefault(key, []).append(dt)
        for key, times in sorted(by_op.items()):
            print(f"op {key}: fastest {min(times):.6g} s, median "
                  f"{statistics.median(times):.6g} s of {len(times)}")
    for name in units:
        value, note = metrics[name]
        print(f"metric {name} = {value:.6g} {units[name]}"
              + (f" ({note})" if note else ""))
    if args.trace:
        print(f"trace written to {write_trace(run, args, env, metrics)}")
    print(json.dumps({
        "correct": not run.failures, "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
