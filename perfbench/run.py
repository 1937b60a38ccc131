"""Benchmark of hscyl's numerical routes, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the root of a source checkout; the library is imported from its
``src/`` directory, never from an installed copy.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The full record (seed, generated inputs, every check,
every round, machine and thread settings) goes to
``perfbench/out/result-<workload>-seed<N>-trace<T>.json``; a traced run
also writes its spans to ``perfbench/out/trace-<workload>-seed<N>.json``.

Untraced run: the set-up (a fresh interpreter importing hscyl, generating
the seeded inputs and computing the reference Lambda) is timed in
SETUP_SAMPLES child processes after one warm-up; then the workload's round
of checks repeats on the same inputs, at least MIN_ROUNDS times and until
``--seconds`` have passed, and each gate's time is its median over rounds.

Traced run: untraced and traced rounds alternate, at least one of each.
The per-layer numbers come from the spans of the first traced round, and
the difference between the median traced and untraced round is reported
as the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# single-threaded numerics: set before numpy is first imported, and
# inherited by the set-up children
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = ("quad-oracles", "residual-grids", "flow-long", "flow-ladder")
SETUP_SAMPLES = 5
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad spec)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="'small' shrinks every problem, for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_spec():
    if not SPEC.is_file():
        raise BenchError(f"{SPEC.name} not found at the checkout root")
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def require_sources():
    if not (SRC / "hscyl" / "__init__.py").is_file():
        raise BenchError("src/hscyl not found: run from the root of an hscyl checkout")


def import_library():
    """Import hscyl from the checkout's src/ and the workload module."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import hscyl

    if Path(hscyl.__file__).resolve().parent != SRC / "hscyl":
        raise BenchError(f"imported hscyl from {hscyl.__file__}, not from {SRC}")
    import workloads

    return workloads


def setup_probe(args):
    """What one set-up costs: import, seeded inputs, reference Lambda."""
    workloads = import_library()
    workloads.make(args.workload, args.seed, args.size == "small")


def measure_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms, which
        # would quantise the samples
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times[1:]  # the first one warms the file cache


def environment():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "platform": platform.platform()}


def host_reference_ms():
    """Best of three timings of a fixed pure-Python loop.  It is recorded
    next to each round, not used in any metric: on a shared host it shows
    how fast the machine ran while the round was measured."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def timed_round(workloads, name, api, inputs, const32):
    wall0, cpu0 = time.perf_counter(), time.process_time()
    checks = workloads.run_round(name, api, inputs, const32, OUT)
    return checks, time.perf_counter() - wall0, time.process_time() - cpu0


def run_rounds(workloads, args, seconds, inputs, const32):
    """Rounds until the time is up: (checks, wall, cpu, traced) per round."""
    from spans import Tracer

    plain = workloads.Api()
    rounds = []
    tracers = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracers.append(Tracer())
            api = workloads.Api(tracers[-1])
        else:
            api = plain
        host_ms = host_reference_ms()
        checks, wall, cpu = timed_round(workloads, args.workload, api, inputs, const32)
        rounds.append({"checks": checks, "wall": wall, "cpu": cpu, "traced": traced,
                       "host_ms": host_ms})
        min_rounds = 2 if args.trace else MIN_ROUNDS
        if len(rounds) >= min_rounds and time.perf_counter() - start >= seconds:
            return rounds, tracers


def verdicts(rounds):
    """Every gate of every round, plus: each round repeats the first
    bit-exactly (tracing included)."""
    outcomes = []
    first = rounds[0]["checks"].values
    for i, rnd in enumerate(rounds):
        outcomes.extend((f"round {i}: {name}", ok, detail)
                        for name, ok, detail in rnd["checks"].outcomes)
        if i:
            same = rnd["checks"].values == first
            outcomes.append((f"round {i}: repeats round 0 bit-exactly", same,
                             "" if same else "values differ"))
    return outcomes


def per_layer(rounds, tracers):
    from spans import layer_metrics

    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    metrics = layer_metrics(tracers[0].spans)
    # facts a workload does not measure (a flow size it does not run, a
    # layer it does not call) read 0
    metrics.update(traced[0]["checks"].facts)
    metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                   - statistics.median(r["wall"] for r in untraced))
    metrics["trace.spans"] = len(tracers[0].spans)
    return metrics


def median_round(rounds, key):
    """Typical seconds of one round: the sum over gates of each gate's
    median over rounds, plus the median of what the round spent outside
    its gates.  A burst of machine noise then moves one gate's sample in
    one round instead of a whole round."""
    idx = ("wall", "cpu").index(key)
    samples = {}
    for rnd in rounds:
        times = rnd["checks"].times
        samples.setdefault(None, []).append(rnd[key] - sum(t[idx] for t in times.values()))
        for name, t in times.items():
            samples.setdefault(name, []).append(t[idx])
    return sum(statistics.median(v) for v in samples.values())


def end_to_end(rounds, setup_times, outcomes):
    passed = sum(ok for _, ok, _ in outcomes)
    return {
        "wall_s": median_round(rounds, "wall"),
        "cpu_s": median_round(rounds, "cpu"),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": passed / len(outcomes),
    }


def select(spec, key, values):
    """The metrics of BENCHMARK.json's ``key`` list, with their units."""
    missing = [m["name"] for m in spec[key] if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[key]}


def table(metrics):
    width = max(len(name) for name in metrics)
    return "\n".join(f"{name:<{width}}  {entry['value']:>16.6g} {entry['unit']}"
                     for name, entry in metrics.items())


def run_workload(args, spec):
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    setup_times = [] if args.trace else measure_setup(args)
    workloads = import_library()
    inputs, const32 = workloads.make(args.workload, args.seed, args.size == "small")
    OUT.mkdir(exist_ok=True)
    rounds, tracers = run_rounds(workloads, args, seconds, inputs, const32)
    outcomes = verdicts(rounds)
    failed = sum(not ok for _, ok, _ in outcomes)
    if args.trace:
        metrics = select(spec, "per_layer", per_layer(rounds, tracers))
    else:
        metrics = select(spec, "end_to_end", end_to_end(rounds, setup_times, outcomes))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": seconds, "environment": environment(),
        "inputs": workloads.describe(inputs), "Lambda": const32.Lambda,
        "setup_times_s": setup_times,
        "rounds": [{"wall_s": r["wall"], "cpu_s": r["cpu"], "traced": r["traced"],
                    "host_reference_ms": r["host_ms"],
                    "gates_wall_cpu_s": r["checks"].times}
                   for r in rounds],
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in outcomes],
        "metrics": metrics,
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": tracers[0].spans, "per_layer": metrics}, fh)
        print(table(metrics))
    for name, ok, detail in outcomes:
        if not ok:
            print(f"FAILED {name}: {detail}")
    print("# " + json.dumps({k: record[k] for k in
                             ("workload", "seed", "environment", "inputs")}))
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Every workload in its own process; one table of their metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace),
               "--size", args.size]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(table(combined["metrics"]))
    return combined


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        spec = load_spec()
        require_sources()
        result = run_all(args) if args.workload == "all" else run_workload(args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
