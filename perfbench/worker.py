"""One fresh workload process, started by `run.py`.

Modes:
  probe    set up, then report when the first op would be ready;
  measure  set up, then run a closed loop with one client for --seconds,
           timing every op (wall and process CPU); between ops, at even
           intervals, start a probe and wait for it;
  trace    set up, run a fixed batch of ops untraced and with spans in
           turn, then once with field-op counters, and report the
           per-layer metrics.

The last stdout line is one JSON object.  Its `ready` is time.monotonic()
when the first op could start; the clock is shared by all processes, so
the launcher subtracts its own reading from just before the start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback

# Untraced and span batches alternate until each side has at least
# TRACE_REPEATS batches and TRACE_MIN_S seconds.
TRACE_REPEATS = 3
TRACE_MIN_S = 2.0
# Set-up probes started by the measuring process, spread evenly over the
# run: the host switches between speed states about 1.5x apart, for
# seconds or for a whole minute, and probes at one moment all see the
# same state.
SETUP_PROBES = 20


def _import_workloads(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import muxnet

    if not os.path.abspath(muxnet.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"muxnet imported from {muxnet.__file__}, not from {src}")
    import workloads

    return workloads


def _timed_op(wl, i):
    """Run op i; returns (wall s, cpu s, captured output)."""
    args = wl.prepare(i)
    w0, c0 = time.perf_counter(), time.process_time()
    raw = wl.op(args)
    w1, c1 = time.perf_counter(), time.process_time()
    return w1 - w0, c1 - c0, wl.capture(args, raw)


class Outcome:
    """Attempted and failed ops, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, wl, i):
        """Run op i; a crashing op is a failed op, not a crashed benchmark."""
        self.attempted += 1
        try:
            return _timed_op(wl, i)
        except Exception:
            self.fail(i, "raised\n" + traceback.format_exc())
            return None

    def check(self, wl, i, rec) -> None:
        err = wl.check(rec)
        if err is not None:
            self.fail(i, err)

    def fail(self, i, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {i}: {why}")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}


def probe_setup(args) -> float:
    """Set-up time of a fresh probe process, started and waited for."""
    cmd = [sys.executable, os.path.abspath(__file__), "--root", args.root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", "probe", "--out-dir", args.out_dir]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0


def measure(wl, args) -> dict:
    """Closed loop for `args.seconds`; returns every op's (kind, wall s,
    cpu s) and the set-up times of SETUP_PROBES probes.  The checks and
    the probes run between ops, outside the timed region."""
    outcome = Outcome()
    samples = []
    setup = []
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        if time.perf_counter() >= start + len(setup) * args.seconds / SETUP_PROBES:
            setup.append(probe_setup(args))
        done = outcome.run(wl, i)
        if done is not None:
            samples.append((wl.kind(i), done[0], done[1]))
            outcome.check(wl, i, done[2])
        i += 1
    return {**outcome.as_dict(), "samples": samples, "setup_probes": setup}


def _batch(wl, outcome, records, tracer=None) -> float:
    """Run ops 0..trace_ops-1 once; returns the wall time of the batch."""
    t0 = time.perf_counter()
    for i in range(wl.trace_ops):
        if tracer is not None:
            tracer.begin_op(i)
        done = outcome.run(wl, i)
        if tracer is not None:
            tracer.end_op()
        if done is not None:
            records.append((i, done[2]))
    return time.perf_counter() - t0


def trace(wl, out_dir: str) -> dict:
    """The same fixed batch, untraced and with spans in alternation, then
    once with field-op counters alone so that span times stay honest.

    trace.overhead_s compares the best span batch with the best untraced
    one, so a slow stretch of the host does not read as (negative)
    overhead.  It is resolved only when it exceeds the spread of the
    untraced batches.  Span metrics come from the best span batch; every
    span batch gives the same counts.
    """
    from tracer import Tracer

    n = wl.trace_ops
    outcome = Outcome()
    records: list = []
    untraced, traced = [], []
    best = None
    while len(traced) < TRACE_REPEATS or sum(traced) < TRACE_MIN_S:
        untraced.append(_batch(wl, outcome, records))
        spans = Tracer()
        try:
            spans.install_spans()
            traced.append(_batch(wl, outcome, records, spans))
        finally:
            spans.uninstall()
        if best is None or traced[-1] < min(traced[:-1]):
            best = spans
    counters = Tracer()
    try:
        counters.install_field_counters()
        _batch(wl, outcome, records, counters)
    finally:
        counters.uninstall()
    # Checks call muxnet, so they run only once the tracers are gone.
    for i, rec in records:
        outcome.check(wl, i, rec)
    spans_path = os.path.join(out_dir, f"spans-{wl.name}-seed{wl.seed}.jsonl")
    best.write_spans(spans_path)
    overhead = min(traced) - min(untraced)
    layer = {**best.metrics(n), **counters.field_counts(n), "trace.overhead_s": overhead / n}
    return {**outcome.as_dict(), "ops": n, "layer": layer, "spans": len(best.spans),
            "spans_file": os.path.relpath(spans_path), "missing_targets": best.missing,
            "untraced_s": untraced, "traced_s": traced,
            "trace_overhead_resolved": overhead > max(untraced) - min(untraced)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    workloads = _import_workloads(args.root)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")) as fh:
        pinned = json.load(fh)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.out_dir, pinned)
    wl.setup()
    result = {"ready": time.monotonic()}
    if args.mode == "measure":
        result.update(measure(wl, args))
    elif args.mode == "trace":
        result.update(trace(wl, args.out_dir))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
