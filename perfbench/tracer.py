"""Per-layer tracing of muxnet, wrapped from outside the package.

`Tracer.install_spans()` and `install_field_counters()` replace muxnet
functions and methods with wrappers, and
`uninstall()` puts the originals back; nothing in muxnet changes on disk.
A module function is replaced at every import site (every muxnet module
attribute, and every module-level tuple, that holds the original object),
so `sample_gl` copied into `experiments` is traced like the one in
`matrix`.  Methods are replaced on their class.

Two kinds of wrapper exist:
- a span records (name, start, end, parent, op id) and adds the span's
  duration minus its children's to the name's self time;
- a counter only counts calls, for the scalar field ops that run millions
  of times per op.

Spans stay in memory until `write_spans`.  Counts are exact: two traced
passes over the same inputs give the same numbers.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) -> span name.  "Class.method" patches the class.
SPANS = {
    ("fields", "GF"): "fields.GF",
    ("matrix", "FieldMatrix.rank"): "matrix.rank",
    ("matrix", "FieldMatrix.kernel"): "matrix.kernel",
    ("matrix", "FieldMatrix.inverse"): "matrix.inverse",
    ("matrix", "FieldMatrix.solve"): "matrix.solve",
    ("matrix", "FieldMatrix.__matmul__"): "matrix.matmul",
    ("matrix", "FieldMatrix.mul_vector"): "matrix.mul_vector",
    ("matrix", "sample_gl"): "matrix.sample_gl",
    ("multiplex", "encode"): "multiplex.encode",
    ("multiplex", "decode"): "multiplex.decode",
    ("network", "global_coding_vectors"): "network.global_coding_vectors",
    ("network", "eavesdrop_matrix"): "network.eavesdrop_matrix",
    ("network", "realize_eavesdropper"): "network.realize_eavesdropper",
    ("network", "check_decodability"): "network.check_decodability",
    ("leakage", "leakage_profile"): "leakage.leakage_profile",
    ("leakage", "exact_leakage"): "leakage.exact_leakage",
    ("leakage", "brute_force_leakage"): "leakage.brute_force_leakage",
    ("bounds", "guarantee_experiment"): "bounds.guarantee_experiment",
    ("bounds", "certify_universal_zero"): "bounds.certify_universal_zero",
    ("bounds", "HashFamilySpec.projection_family"): "bounds.projection_family",
    ("bounds", "HashFamilySpec.is_two_universal"): "bounds.is_two_universal",
    ("bounds", "verify_hashed_mi_bound"): "bounds.verify_hashed_mi_bound",
    ("bounds", "verify_hashed_entropy_bound"): "bounds.verify_hashed_entropy_bound",
    ("experiments", "build_plan"): "experiments.build_plan",
    ("experiments", "run_simulate"): "experiments.run_simulate",
    ("experiments", "run_sweep"): "experiments.run_sweep",
    ("experiments", "run_verify"): "experiments.run_verify",
    ("experiments", "rows_to_csv"): "experiments.rows_to_csv",
    ("cli", "main"): "cli.main",
}
FIELD_OPS = ("add", "sub", "neg", "mul", "inv")
ELIMINATION = ("matrix", "FieldMatrix._rref_rows")
MULTIPLEX_SPANS = ("multiplex.encode", "multiplex.decode")
CHECK_PREFIX = "_check_"


def _slot_map_key(net, coding, slot) -> tuple:
    """Content of one (coding, slot map) pair, independent of object ids."""
    cm = coding.slot_maps[slot]
    return (
        tuple((l.id, l.tail, l.head) for l in net.links),
        coding.field.q,
        coding.field.modulus,
        coding.n,
        tuple(sorted(
            (lid, tuple(sorted((repr(k), v) for k, v in inner.items())))
            for lid, inner in cm.items()
        )),
    )


def _modules() -> dict:
    import muxnet.cli  # noqa: F401  (imports every layer)

    return {name: sys.modules[f"muxnet.{name}"] for name in
            ("fields", "matrix", "multiplex", "network", "leakage", "bounds",
             "verification", "experiments", "cli")}


class Tracer:
    """Wraps muxnet attributes with spans or counters; `uninstall` puts the
    originals back."""

    def __init__(self):
        self._patches: list[tuple] = []
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.elim_cells = 0
        self.multiplex_elims = 0
        self.distinct: Counter = Counter()
        self.missing: list[str] = []
        self.checks: list[str] = []
        self._op = None
        self._seen: defaultdict = defaultdict(set)
        self._stack: list[list] = []  # [span index, child seconds]
        self._in_multiplex = 0

    # -- patching primitives ------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Point every muxnet module attribute and tuple at the wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "muxnet" or mod_name.startswith("muxnet.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                elif type(value) is tuple and any(v is original for v in value):
                    self._set(mod, attr, tuple(wrapper if v is original else v for v in value))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- op boundaries -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self) -> None:
        """Distinct counts are per op: fold this op's sets into the totals."""
        for key, seen in self._seen.items():
            self.distinct[key] += len(seen)
        self._seen.clear()
        self._op = None

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, hook=None):
        spans, stack, calls = self.spans, self._stack, self.calls
        self_s, total_s = self.self_s, self.total_s
        perf = time.perf_counter
        multiplex = name in MULTIPLEX_SPANS

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            idx = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            if multiplex:
                self._in_multiplex += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                if multiplex:
                    self._in_multiplex -= 1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name, t0, t1, parent, self._op)
                calls[name] += 1
                self_s[name] += dur - frame[1]
                total_s[name] += dur

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def _elimination(self, fn):
        def wrapper(m):
            self.calls["matrix.elim"] += 1
            self.elim_cells += m.nrows * m.ncols
            if self._in_multiplex:
                self.multiplex_elims += 1
            return fn(m)

        return wrapper

    def _remember_inverse(self, args):
        m = args[0]
        self._seen["matrix.inverse"].add((m.field.q, m.field.modulus, m.as_tuples()))

    def _remember_coding(self, args):
        self._seen["network.global_coding_vectors"].add(_slot_map_key(*args[:3]))

    # -- patching ------------------------------------------------------------

    def install_spans(self) -> None:
        """Spans at every layer boundary, the elimination counter and one
        span per verify check."""
        mods = _modules()
        hooks = {
            "matrix.inverse": self._remember_inverse,
            "network.global_coding_vectors": self._remember_coding,
        }
        for (mod_name, attr), name in SPANS.items():
            mod = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(meth)
                if raw is None:
                    self.missing.append(f"{mod_name}.{attr}")
                elif isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._span(name, raw.__func__, hooks.get(name))))
                else:
                    self._set(cls, meth, self._span(name, raw, hooks.get(name)))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._replace_everywhere(original, self._span(name, original, hooks.get(name)))

        mod_name, attr = ELIMINATION
        cls_name, meth = attr.split(".")
        cls = getattr(mods[mod_name], cls_name)
        if meth in cls.__dict__:
            self._set(cls, meth, self._elimination(cls.__dict__[meth]))
        else:
            self.missing.append(f"{mod_name}.{attr}")

        for check in getattr(mods["verification"], "CHECKS", ()):
            name = "verification." + check.__name__.removeprefix(CHECK_PREFIX)
            self.checks.append(name)
            self._replace_everywhere(check, self._span(name, check))

    def install_field_counters(self) -> None:
        """Call counters on the scalar field ops.  They are installed alone,
        in a pass of their own, because their cost would swamp the span
        timings: millions of calls per op."""
        field_cls = _modules()["fields"].FieldSpec
        for op in FIELD_OPS:
            self._set(field_cls, op, self._counter(f"fields.{op}", field_cls.__dict__[op]))

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, op]) + "\n")

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer metrics; every ratio comes with its base counts."""
        out: dict[str, float] = {}
        for name in set(SPANS.values()):
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.self_s"] = self.self_s[name] / ops
        for name in self.checks:
            out[f"{name}.s"] = self.total_s[name] / ops
        for name in MULTIPLEX_SPANS:
            out[f"{name}.total_s"] = self.total_s[name] / ops
        out["matrix.elim.calls"] = self.calls["matrix.elim"] / ops
        out["matrix.elim.cells"] = self.elim_cells / ops
        out["multiplex.elims"] = self.multiplex_elims / ops
        blocks = self.calls["multiplex.encode"]
        out["multiplex.elim_per_block"] = self.multiplex_elims / blocks if blocks else 0.0
        for name in ("matrix.inverse", "network.global_coding_vectors"):
            calls = self.calls[name]
            out[f"{name}.distinct"] = self.distinct[name] / ops
            out[f"{name}.useful_ratio"] = self.distinct[name] / calls if calls else 0.0
        return out

    def field_counts(self, ops: int) -> dict[str, float]:
        return {f"fields.{op}.calls": self.calls[f"fields.{op}"] / ops for op in FIELD_OPS}
