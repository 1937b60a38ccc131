"""Self-test of the benchmark, on shrunken problems (about a minute).

    python3 perfbench/selftest.py

Checks that
- every end-to-end metric of BENCHMARK.json appears with its unit in an
  untraced run of each workload, and every per-layer metric in a traced
  one;
- the exact counts of two traced runs with the same seed are identical;
- the benchmark refuses to run, without printing a result, in a directory
  that holds only BENCHMARK.json and the benchmark's own files.

The small problems are too coarse for some of the acceptance gates, so a
failed gate here is expected and not an error of the self-test.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("quad-oracles", "residual-grids", "flow-long", "flow-ladder")
EXACT = ("quadrature.calls", "quadrature.evaluations",
         "quadrature.beta_full.evaluations", "quadrature.newtonian.evaluations",
         "closed_forms.calls", "cylgrid.residual_calls", "cylgrid.residual_nodes",
         "cylgrid.io_bytes", "asymptotics.calls", "minimizer.iterations",
         "minimizer.accepted_steps", "minimizer.rejected_steps",
         "minimizer.factorizations", "minimizer.energy_calls",
         "minimizer.constraint_calls", "minimizer.project_calls",
         "minimizer.warnings", "trace.spans")


def run(cwd, workload, trace, seed=7):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(result, declared):
    got = result["metrics"]
    assert list(got) == [m["name"] for m in declared], sorted(set(got) ^ {
        m["name"] for m in declared})
    for m in declared:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], (m["name"], entry["unit"])
        assert isinstance(entry["value"], (int, float)), (m["name"], entry)


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in WORKLOADS:
        check_metrics(result_of(run(ROOT, workload, 0)), spec["end_to_end"])
        first = result_of(run(ROOT, workload, 1))
        second = result_of(run(ROOT, workload, 1))
        check_metrics(first, spec["per_layer"])
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            assert a == b, f"{workload}: {name} differs between runs: {a} vs {b}"
        print(f"ok {workload}")

    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, WORKLOADS[0], 0)
        assert proc.returncode != 0, "ran without the library's sources"
        assert not proc.stdout.strip(), proc.stdout
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    (HERE / "out").mkdir(exist_ok=True)
    sys.exit(main())
