"""The four benchmark workloads: inputs from a seed, one timed op, checks.

Every workload follows the same protocol, driven by `worker.py`:

    wl = WORKLOADS[name](seed, out_dir, pinned)
    wl.setup()                      # counted in setup_s
    args = wl.prepare(i)            # untimed: the inputs of op i
    raw = wl.op(args)               # timed: one unit of user-visible work
    rec = wl.capture(args, raw)     # untimed, calls no muxnet code
    err = wl.check(rec)             # untimed; None when the output is right

`capture` never calls into muxnet, so the traced pass can capture while
the tracer is installed and defer every `check` until it is removed.
Inputs depend only on the workload seed, never on the clock.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random

DEFAULT_SEED = 0

# Inline 15-link network of `sweep-q-statistical`: three relays, a
# combining node and three sinks.
SWEEP_NETWORK = {
    "nodes": ["s", "a", "b", "c", "d", "t1", "t2", "t3"],
    "source": "s",
    "sinks": ["t1", "t2", "t3"],
    "links": [
        {"id": "sa", "tail": "s", "head": "a"},
        {"id": "sb", "tail": "s", "head": "b"},
        {"id": "sc", "tail": "s", "head": "c"},
        {"id": "at1", "tail": "a", "head": "t1"},
        {"id": "at2", "tail": "a", "head": "t2"},
        {"id": "bt1", "tail": "b", "head": "t1"},
        {"id": "bt3", "tail": "b", "head": "t3"},
        {"id": "ct2", "tail": "c", "head": "t2"},
        {"id": "ct3", "tail": "c", "head": "t3"},
        {"id": "ad", "tail": "a", "head": "d"},
        {"id": "bd", "tail": "b", "head": "d"},
        {"id": "cd", "tail": "c", "head": "d"},
        {"id": "dt1", "tail": "d", "head": "t1"},
        {"id": "dt2", "tail": "d", "head": "t2"},
        {"id": "dt3", "tail": "d", "head": "t3"},
    ],
    "coding": "random",
}
SWEEP_VALUES = (256, 6561, 65521, 65536)

CODEC_FIELDS = (2, 81, 256, 65521)
CODEC_SHAPE = {"m": 4, "n": 4, "T": 3, "k": (4, 4, 4, 4)}
CODEC_MAPS_PER_FIELD = 2


def program_seed(workload: str, seed: int) -> int:
    """The seed handed to muxnet, derived from the workload seed."""
    return random.Random(f"{workload}:{seed}").randrange(1, 2**31)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """Shared state: the seed, a scratch directory and digest bookkeeping."""

    name = ""
    trace_ops = 1  # ops in the traced pass; fixed so counts repeat exactly
    # Per-layer metrics (fnmatch patterns) that the traced pass must read
    # as nonzero: the layers this workload is meant to measure.
    covers: tuple = ()

    def __init__(self, seed: int, out_dir: str, pinned: dict):
        self.seed = seed
        self.out_dir = out_dir
        # The pinned digest applies only at the seed it was recorded for.
        self.pinned = pinned.get(self.name) if seed == DEFAULT_SEED else None
        self.first_digest = None

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int):
        return i

    def kind(self, i: int) -> int:
        """Ops of one kind repeat the same work on like inputs."""
        return 0

    def op(self, args):
        raise NotImplementedError

    def capture(self, args, raw):
        raise NotImplementedError

    def check(self, rec) -> str | None:
        raise NotImplementedError

    def _check_digest(self, digest: str) -> str | None:
        if self.pinned is not None and digest != self.pinned:
            return f"report sha256 {digest} != pinned {self.pinned}"
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            return f"report sha256 {digest} != first op's {self.first_digest}"
        return None

    def _read_report(self, path: str) -> bytes | None:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        os.remove(path)
        return data


class VerifyDefault(Workload):
    """`muxnet verify --seed S`: the path every user and CI runs."""

    name = "verify-default"
    covers = ("cli.main.calls", "experiments.run_verify.calls", "verification.*.s",
              "bounds.verify_hashed_mi_bound.calls", "bounds.verify_hashed_entropy_bound.calls",
              "bounds.projection_family.calls", "leakage.brute_force_leakage.calls")

    def setup(self):
        from muxnet import cli

        self.cli = cli
        self.verify_seed = program_seed(self.name, self.seed)

    def prepare(self, i):
        return os.path.join(self.out_dir, f"verify-{i}.csv")

    def op(self, path):
        return self.cli.main(["verify", "--seed", str(self.verify_seed), "--out", path])

    def capture(self, path, rc):
        return rc, self._read_report(path)

    def check(self, rec):
        rc, data = rec
        if rc != 0:
            return f"verify exited {rc}"
        if data is None:
            return "verify wrote no report"
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if not rows:
            return "verify report has no rows"
        failing = [r["check"] for r in rows if r["holds"] != "true"]
        if failing:
            return f"checks do not hold: {failing}"
        return self._check_digest(sha256(data))


class SimulateGF2Wide(Workload):
    """`run_simulate` at q = 2 on 32x32 maps: the GF(2) elimination path."""

    name = "simulate-gf2-wide"
    covers = ("experiments.run_simulate.calls", "leakage.leakage_profile.calls",
              "network.eavesdrop_matrix.calls", "matrix.elim.calls")

    def setup(self):
        from muxnet import experiments

        self.exp = experiments
        self.config = {
            "id": self.name,
            "layout": {"q": 2, "m": 16, "n": 2, "T": 3, "k": [8, 8, 8, 8]},
            "network": "butterfly",
            "eavesdropper": {"kind": "traditional", "mu": 1},
            "seed": program_seed(self.name, self.seed),
            "trials": {"L": 8, "B": 40},
        }
        experiments.build_plan(self.config)

    def op(self, _):
        return self.exp.run_simulate(self.config)

    def capture(self, _, raw):
        meta, rows = raw
        # The bytes `muxnet simulate --format json` writes.
        text = json.dumps({"experiment": meta, "rows": rows}, sort_keys=True, indent=2) + "\n"
        return meta, sha256(text.encode())

    def check(self, rec):
        meta, digest = rec
        if meta.get("decode_ok") is not True or meta.get("decodable") is not True:
            return f"decode_ok={meta.get('decode_ok')} decodable={meta.get('decodable')}"
        return self._check_digest(digest)


class SweepQStatistical(Workload):
    """`muxnet sweep --param q` over four field families, statistical taps."""

    name = "sweep-q-statistical"
    covers = ("cli.main.calls", "experiments.run_sweep.calls", "fields.GF.calls",
              "network.global_coding_vectors.calls", "leakage.leakage_profile.calls")

    def setup(self):
        from muxnet import cli, experiments

        self.cli = cli
        config = {
            "id": self.name,
            "layout": {"q": 2, "m": 6, "n": 3, "T": 2, "k": [4, 4, 10]},
            "network": {"inline": SWEEP_NETWORK},
            "eavesdropper": {"kind": "statistical", "mu": 1},
            "seed": program_seed(self.name, self.seed),
            "trials": {"L": 4, "B": 20},
        }
        self.config_path = os.path.join(self.out_dir, "sweep-config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        for q in SWEEP_VALUES:
            experiments.build_plan(experiments.apply_sweep_value(config, "q", q))

    def prepare(self, i):
        return os.path.join(self.out_dir, f"sweep-{i}.csv")

    def op(self, path):
        return self.cli.main([
            "sweep", "--config", self.config_path, "--param", "q",
            "--values", ",".join(str(q) for q in SWEEP_VALUES),
            "--parallel", "1", "--out", path,
        ])

    def capture(self, path, rc):
        return rc, self._read_report(path)

    def check(self, rec):
        rc, data = rec
        if rc != 0:
            return f"sweep exited {rc}"
        if data is None:
            return "sweep wrote no report"
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if sorted({int(r["q"]) for r in rows}) != list(SWEEP_VALUES):
            return "sweep report misses a swept field"
        return self._check_digest(sha256(data))


class CodecStream(Workload):
    """One encode plus decode per op, many blocks per sampled map."""

    name = "codec-stream"
    trace_ops = 16 * len(CODEC_FIELDS)
    covers = ("multiplex.encode.calls", "multiplex.decode.calls")

    def setup(self):
        from muxnet import GF, MessageTuple, MultiplexLayout, multiplex, sample_gl

        self.mux = multiplex
        self.message = MessageTuple.from_vector
        rng = random.Random(f"{self.name}:{self.seed}:maps")
        self.maps = []
        for q in CODEC_FIELDS:
            field = GF(q)
            layout = MultiplexLayout(field, T=CODEC_SHAPE["T"], m=CODEC_SHAPE["m"],
                                     n=CODEC_SHAPE["n"], k=CODEC_SHAPE["k"])
            for _ in range(CODEC_MAPS_PER_FIELD):
                self.maps.append((layout, sample_gl(layout.mn, field, rng)))

    def kind(self, i):
        return i % len(self.maps)

    def prepare(self, i):
        # Round-robin over the maps; each block depends only on (seed, i).
        layout, L = self.maps[i % len(self.maps)]
        rng = random.Random(f"{self.name}:{self.seed}:block:{i}")
        vec = [rng.randrange(layout.q) for _ in range(layout.mn)]
        return layout, L, vec, self.message(layout, vec)

    def op(self, args):
        layout, L, _, msgs = args
        word = self.mux.encode(layout, L, msgs)
        return word, self.mux.decode(layout, L, word)

    def capture(self, args, raw):
        return args, raw

    def check(self, rec):
        (layout, L, vec, msgs), (word, decoded) = rec
        if decoded != msgs:
            return f"decode(encode(s)) != s at q = {layout.q}"
        # Independent of solve: the word must map back to the message.
        if L.mul_vector(word) != vec:
            return f"L x != s at q = {layout.q}"
        return None


WORKLOADS = {
    cls.name: cls
    for cls in (VerifyDefault, SimulateGF2Wide, SweepQStatistical, CodecStream)
}
