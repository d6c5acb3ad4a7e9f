"""Self-test of the benchmark itself (not of muxnet).

    python3 perfbench/selftest.py

1. For each workload, two traced runs at the default seed must report
   identical exact counters (calls, cells, distinct counts and ratios),
   and neither may read 0 on a layer the workload is meant to cover.
2. Run from a directory holding only BENCHMARK.json and perfbench/, the
   benchmark must exit nonzero and print no result line.

Exits 0 when both hold.  Takes a few minutes for all four workloads.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import OUT_DIR, WORKLOAD_NAMES  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402

EXACT_SUFFIXES = (".calls", ".cells", ".distinct", ".useful_ratio", ".elims", ".elim_per_block")


def run_bench(cwd: str, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def exact_counts(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"traced run exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"traced run reported incorrect output:\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(EXACT_SUFFIXES)}


def check_counts_repeat(workload: str, seed: int) -> None:
    first = exact_counts(run_bench(ROOT, workload, seed, 1))
    second = exact_counts(run_bench(ROOT, workload, seed, 1))
    diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    if diff:
        raise AssertionError(f"{workload}: counts differ between traced runs: {diff}")
    print(f"ok  {workload}: {len(first)} exact counters repeat")


def check_bare_directory_fails() -> None:
    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, WORKLOAD_NAMES[0], 0, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        raise AssertionError("benchmark succeeded without the muxnet sources")
    print(f"ok  without sources: exit {proc.returncode}, no result line")


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    for workload in WORKLOAD_NAMES:
        check_counts_repeat(workload, DEFAULT_SEED)
    check_bare_directory_fails()
    return 0


if __name__ == "__main__":
    sys.exit(main())
