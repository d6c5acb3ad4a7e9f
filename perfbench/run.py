"""muxnet benchmark launcher: one workload, one seed, one result line.

    python3 perfbench/run.py --workload codec-stream --seed 0 --seconds 50 --trace 0

With --trace 0 it starts one measuring process that runs the workload as a
closed loop with one client for --seconds, starting fresh probe processes
between ops to time set-up, and prints the end-to-end metrics.  With
--trace 1 it starts one process that runs a fixed batch untraced and
traced in turn, and prints the per-layer metrics; it fails if a layer the
workload is meant to cover reads 0.  The last stdout line is the JSON result,
holding the metrics BENCHMARK.json lists; the lines before it give
provenance and every metric by name.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("verify-default", "simulate-gf2-wide", "sweep-q-statistical", "codec-stream")
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10
# Every end-to-end metric is printed; BENCHMARK.json picks those in the result.
E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}


class BenchError(Exception):
    pass


def git_revision(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def tail(samples: list[float]) -> tuple[float, float, bool]:
    """(value, percentile, rule met) at the highest nearest-rank percentile
    with at least TAIL_BEYOND samples above it; the median if that
    percentile is not above the median."""
    s = sorted(samples)
    n = len(s)
    rank = n - TAIL_BEYOND
    if 2 * rank > n:
        return s[rank - 1], 100.0 * rank / n, True
    return statistics.median(s), 50.0, False


def start_worker(mode: str, args, deadline: float) -> tuple[dict, float]:
    """Run one fresh worker to completion; returns (its result, start time)."""
    # Fixed string hashing, so that no two runs differ in set iteration order.
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, "--root", ROOT, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--out-dir", OUT_DIR]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}")
    return json.loads(lines[-1]), t0


def timings(samples: list) -> tuple[dict, dict]:
    """Timing metrics from every timed op's (kind, wall s, cpu s).

    ops_per_s divides the ops by the sum of their wall latencies, so the
    benchmark's own checks between ops do not count against muxnet.

    cpu_ms_per_op gives each op its kind's best CPU time and averages over
    the ops, as timeit reports the best of its repeats.  On a shared
    machine the other tenants slow whole stretches of a run, CPU time as
    much as wall time, and the raw figures spread too far between runs to
    bound a regression.  The best repeat cannot see a regression that hits
    only some repeats; the raw figures can, and are reported beside it.
    """
    wall = [w for _, w, _ in samples]
    best: dict = {}
    for kind, _, cpu in samples:
        best[kind] = min(cpu, best.get(kind, cpu))
    tail_s, tail_pct, tail_ok = tail(wall)
    values = {
        "ops_per_s": len(wall) / sum(wall),
        "op_p50_ms": statistics.median(wall) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "cpu_ms_per_op": sum(best[kind] for kind, _, _ in samples) / len(samples) * 1e3,
    }
    info = {
        "timed_ops": len(samples),
        "op_kinds": len(best),
        "op_tail_percentile": tail_pct,
        "op_tail_rule_met": tail_ok,
    }
    return values, info


def end_to_end(args, deadline: float) -> tuple[dict, dict, dict]:
    res, t0 = start_worker("measure", args, deadline)
    # The best of the measuring process and the probes it started: the host
    # switches between speed states, and the best is the fastest state seen.
    setup = [res["ready"] - t0] + res["setup_probes"]
    if not res["samples"]:
        raise BenchError("no op completed")
    values, info = timings(res["samples"])
    values.update({
        "setup_s": min(setup),
        "peak_rss_mb": res["peak_rss_mb"],
        "fail_ratio": res["failed"] / res["attempted"],
    })
    info.update({"setup_samples": len(setup), "setup_s_all": setup})
    return res, values, info


def uncovered(workload: str, values: dict) -> list[str]:
    """The workload's `covers` patterns that match no metric or a zero."""
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    bad = []
    for pattern in WORKLOADS[workload].covers:
        hits = [values[name] for name in fnmatch.filter(values, pattern)]
        if not hits or not all(hits):
            bad.append(pattern)
    return bad


def traced(args, deadline: float) -> tuple[dict, dict, dict]:
    res, _ = start_worker("trace", args, deadline)
    bad = uncovered(args.workload, res["layer"])
    if bad:
        raise BenchError(f"traced run reads 0 for layers {args.workload} must cover: {bad}")
    info = {key: res[key] for key in
            ("ops", "spans", "spans_file", "missing_targets", "untraced_s", "traced_s",
             "trace_overhead_resolved")}
    return res, res["layer"], info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "muxnet", "__init__.py")):
        print(f"perfbench: no muxnet sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(OUT_DIR, exist_ok=True)

    try:
        res, values, info = (traced if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1

    for err in res["errors"]:
        print(f"perfbench: failed {err}", file=sys.stderr)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, no extra threads",
        "git_revision": git_revision(ROOT),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "attempted": res["attempted"],
        "failed": res["failed"],
        **info,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    units = {**{m["name"]: m["unit"] for m in spec["per_layer"]}, **E2E_UNITS}
    for name in sorted(values):
        print(f"{name} {values[name]!r} {units.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
