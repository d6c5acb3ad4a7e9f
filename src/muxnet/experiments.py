"""Experiment configuration, runners, and report serialization.

A single JSON config fixes the field, block layout, network source,
eavesdropper model, bound constants, seed and trial counts.  Unknown keys
are rejected so configs stay reproducible.  All randomness is drawn from
per-component streams derived from the root seed, which makes reports
byte-identical across runs and across sweep parallelization.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import math
from dataclasses import dataclass

from .bounds import (
    REAL_TOLERANCE,
    BoundParams,
    guarantee_experiment,
    leakage_floor,
    rate_leakage_floor,
    capacity_membership,
    ub8_bound,
)
from .errors import ConfigError, MuxnetError
from .fields import GF, FieldSpec
from .leakage import observation_profiles
from .matrix import sample_gl
from .multiplex import (
    MessageTuple,
    MultiplexLayout,
    all_nonempty_subsets,
    decode,
    encode,
)
from .network import (
    EavesdropperModel,
    LocalCoding,
    Network,
    ObservationSpaces,
    butterfly_coding,
    butterfly_network,
    check_decodability,
    coding_from_json,
    enumerate_eavesdropper_sets,
    observation_support,
    realize_eavesdropper,
)
from .rng import derive_rng
from .verification import run_verification

SWEEPABLE_PARAMS = ("m", "mu", "q", "C1", "C2", "rho")

REPORT_COLUMNS = (
    "experiment_id",
    "param",
    "value",
    "q",
    "m",
    "n",
    "T",
    "mu",
    "subset",
    "k_I",
    "rank_B",
    "kernel_dim",
    "leakage_nats",
    "leakage_bits",
    "ub8_nats",
    "floor_nats",
    "zero_leakage_fraction",
    "guarantee_fraction",
)

VERIFY_COLUMNS = ("check", "instance", "lhs", "rhs", "holds")

# Upper bound on the trial counts a config sets (trials.L and trials.B),
# far above any default.
MAX_TRIALS = 1_000_000

DEFAULT_CONFIG: dict = {
    "id": "default",
    "layout": {"q": 2, "m": 2, "n": 2, "T": 1, "k": [2, 2]},
    "network": "butterfly",
    "eavesdropper": {"kind": "traditional", "mu": 1},
    "bounds": {"rho": 1.0},
    "seed": 20210907,
    "trials": {"L": 40, "B": 40},
}


def _require_keys(doc: dict, allowed: set[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _json_int(value, where: str) -> int:
    if type(value) is not int:  # bool is an int subclass; reject it too
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _json_count(value, where: str) -> int:
    """A trial or sample count, bounded before any work starts."""
    count = _json_int(value, where)
    if not 1 <= count <= MAX_TRIALS:
        raise ConfigError(f"{where} must be between 1 and {MAX_TRIALS}, got {count}")
    return count


def _json_number(value, where: str):
    """A finite JSON number (bool rejected), returned unchanged."""
    try:
        finite = type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return value


def _json_ints(doc, where: str) -> list[int]:
    if not isinstance(doc, list):
        raise ConfigError(f"{where} must be a list of integers, got {doc!r}")
    return [_json_int(v, f"{where}[{i}]") for i, v in enumerate(doc)]


def _tap_set(doc, mu: int, where: str) -> tuple[str, ...]:
    """A list of mu distinct link ids; whether the network has them is
    checked once the network is built."""
    if not isinstance(doc, list):
        raise ConfigError(f"{where} must be a list of link ids, got {doc!r}")
    for i, link in enumerate(doc):
        if not isinstance(link, str):
            raise ConfigError(f"{where}[{i}] = {link!r} is not a link id")
        if link in doc[:i]:
            raise ConfigError(f"{where}[{i}] = {link!r} repeats a link")
    if len(doc) != mu:
        raise ConfigError(f"{where} has {len(doc)} links, but mu = {mu}")
    return tuple(doc)


def _distribution(doc, mu: int) -> tuple[tuple[tuple[str, ...], float], ...]:
    if not isinstance(doc, list):
        raise ConfigError(f"eavesdropper.distribution must be a list, got {doc!r}")
    out = []
    for i, entry in enumerate(doc):
        where = f"eavesdropper.distribution[{i}]"
        _require_keys(entry, {"links", "p"}, where)
        p = _json_number(entry.get("p"), f"{where}.p")
        if p < 0:
            raise ConfigError(f"{where}.p = {p!r} is negative")
        out.append((_tap_set(entry.get("links"), mu, f"{where}.links"), float(p)))
    if sum(p for _, p in out) == 0:
        raise ConfigError("eavesdropper.distribution weights sum to 0")
    return tuple(out)


def _network_document(doc, where: str) -> dict:
    """Check the JSON types of a network document; `where` prefixes each path."""
    _require_keys(doc, {"nodes", "source", "sinks", "links", "coding"}, where.rstrip(".: "))
    for key in ("nodes", "source", "sinks", "links"):
        if key not in doc:
            raise ConfigError(f"{where}{key} is required")
    if not isinstance(doc["source"], str):
        raise ConfigError(f"{where}source must be a node name, got {doc['source']!r}")
    for key in ("nodes", "sinks", "links"):
        if not isinstance(doc[key], list):
            raise ConfigError(f"{where}{key} must be a list, got {doc[key]!r}")
    for key in ("nodes", "sinks"):
        for i, name in enumerate(doc[key]):
            if not isinstance(name, str):
                raise ConfigError(f"{where}{key}[{i}] = {name!r} is not a node name")
    for i, link in enumerate(doc["links"]):
        _require_keys(link, {"id", "tail", "head"}, f"{where}links[{i}]")
        for key in ("id", "tail", "head"):
            if not isinstance(link.get(key), str):
                raise ConfigError(f"{where}links[{i}].{key} = {link.get(key)!r} is not a string")
    return doc


@dataclass
class ExperimentPlan:
    experiment_id: str
    field: FieldSpec
    layout: MultiplexLayout
    network: Network | None
    coding: LocalCoding | None
    model: EavesdropperModel
    params: BoundParams
    seed: int
    trials_l: int
    trials_b: int


def _config_header(config, allowed: set[str], where: str) -> tuple[int, str]:
    """The seed and id of a config whose top-level keys all lie in `allowed`."""
    _require_keys(config, allowed, where)
    seed = _json_int(config.get("seed", DEFAULT_CONFIG["seed"]), "seed")
    experiment_id = config.get("id", f"exp-{seed}")
    if not isinstance(experiment_id, str):
        raise ConfigError(f"id must be a string, got {experiment_id!r}")
    return seed, experiment_id


def build_plan(config: dict) -> ExperimentPlan:
    """Validate a config document and materialize every component."""
    seed, experiment_id = _config_header(
        config,
        {"id", "field", "layout", "network", "eavesdropper", "bounds", "seed", "trials"},
        "config",
    )
    if "layout" not in config:
        raise ConfigError("config is missing the layout section")

    field_doc = config.get("field", {})
    _require_keys(field_doc, {"modulus"}, "field")
    layout_doc = config["layout"]
    _require_keys(layout_doc, {"q", "m", "n", "T", "k"}, "layout")
    for key in ("q", "m", "n", "k"):
        if key not in layout_doc:
            raise ConfigError(f"layout.{key} is required")
    q = _json_int(layout_doc["q"], "layout.q")
    modulus = None
    if "modulus" in field_doc:
        modulus = tuple(_json_ints(field_doc["modulus"], "field.modulus"))
    k = tuple(_json_ints(layout_doc["k"], "layout.k"))
    m = _json_int(layout_doc["m"], "layout.m")
    n = _json_int(layout_doc["n"], "layout.n")
    T = _json_int(layout_doc.get("T", len(k) - 1), "layout.T")
    try:
        field = GF(q, modulus)
        layout = MultiplexLayout(field, m, n, T, k)
    except ValueError as exc:
        # GF names its modulus argument, which a config spells field.modulus
        message = str(exc)
        raise ConfigError(f"field.{message}" if message.startswith("modulus") else message) from exc

    eav_doc = config.get("eavesdropper")
    if eav_doc is None:
        raise ConfigError("config is missing the eavesdropper section")
    _require_keys(eav_doc, {"kind", "mu", "links", "distribution"}, "eavesdropper")
    kind = eav_doc.get("kind", "traditional")
    for key, reader in (("links", "traditional"), ("distribution", "statistical")):
        if key in eav_doc and kind != reader:
            raise ConfigError(f"eavesdropper.{key} is read only by the {reader} kind, not {kind!r}")
    mu = _json_int(eav_doc.get("mu", 1), "eavesdropper.mu")
    links = eav_doc.get("links")
    if links is not None:
        links = _tap_set(links, mu, "eavesdropper.links")
    distribution = eav_doc.get("distribution")
    if distribution is not None:
        distribution = _distribution(distribution, mu)
    try:
        model = EavesdropperModel(
            kind=kind, mu=mu, links=links, distribution=distribution
        )
    except ValueError as exc:
        raise ConfigError(f"bad eavesdropper section: {exc}") from exc
    if model.mu > layout.n:
        raise ConfigError(f"eavesdropper.mu = {model.mu} exceeds layout.n = {layout.n}")

    network = None
    coding = None
    net_doc = config.get("network")
    if model.kind != "direct":
        if net_doc is None:
            raise ConfigError(f"{model.kind} eavesdropper requires a network")
    if net_doc is not None:
        coding_rng = derive_rng(seed, "coding")
        try:
            if net_doc == "butterfly":
                network = butterfly_network()
                if layout.n != 2:
                    raise ConfigError("the butterfly preset has n = 2")
                coding = butterfly_coding(field, layout.m)
            elif isinstance(net_doc, dict) and len(net_doc) == 1 and set(net_doc) <= {"path", "inline"}:
                if "path" in net_doc:
                    path = net_doc["path"]
                    if not isinstance(path, str):
                        raise ConfigError(f"network.path must be a string, got {path!r}")
                    with open(path, "r", encoding="utf-8") as fh:
                        doc = json.load(fh)
                    where = f"network document {path!r}: "
                else:
                    doc = net_doc["inline"]
                    where = "network.inline."
                network = Network.from_json(_network_document(doc, where))
                coding = coding_from_json(
                    network, doc.get("coding", "random"), field, layout.n, layout.m, coding_rng
                )
            else:
                raise ConfigError(f"unrecognized network source {net_doc!r}")
        except ConfigError:
            raise
        except (OSError, ValueError, MuxnetError) as exc:
            raise ConfigError(f"bad network section: {exc}") from exc
        if len(network.out_links(network.source)) < layout.n:
            raise ConfigError("network source cannot emit n symbols per slot")
        known = set(network.link_ids())
        tap_sets = [("eavesdropper.links", model.links)] if model.links is not None else []
        for i, (links, _) in enumerate(model.distribution or ()):
            tap_sets.append((f"eavesdropper.distribution[{i}].links", links))
        for where, links in tap_sets:
            for i, link in enumerate(links):
                if link not in known:
                    raise ConfigError(f"{where}[{i}] = {link!r} is not a link of the network")

    bounds_doc = config.get("bounds", {})
    _require_keys(bounds_doc, {"rho", "C1", "C2"}, "bounds")
    defaults = BoundParams.defaults(layout.T)
    try:
        params = BoundParams(
            C1=float(_json_number(bounds_doc.get("C1", defaults.C1), "bounds.C1")),
            C2=float(_json_number(bounds_doc.get("C2", defaults.C2), "bounds.C2")),
            rho=float(_json_number(bounds_doc.get("rho", defaults.rho), "bounds.rho")),
        ).validate_for(layout.T)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    trials_doc = config.get("trials", {})
    _require_keys(trials_doc, {"L", "B"}, "trials")
    trials_l = _json_count(trials_doc.get("L", 40), "trials.L")
    trials_b = _json_count(trials_doc.get("B", 40), "trials.B")

    return ExperimentPlan(
        experiment_id=experiment_id,
        field=field,
        layout=layout,
        network=network,
        coding=coding,
        model=model,
        params=params,
        seed=seed,
        trials_l=trials_l,
        trials_b=trials_b,
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def run_simulate(config: dict, param: str = "", value="") -> tuple[dict, list[dict]]:
    """One end-to-end experiment; returns (metadata, report rows)."""
    plan = build_plan(config)
    layout, model = plan.layout, plan.model
    seed = plan.seed

    decodable = None
    if plan.network is not None and plan.coding is not None:
        decodable = all(
            check_decodability(plan.network, plan.coding, sink, t)
            for sink in plan.network.sinks
            for t in range(layout.m)
        )

    L = sample_gl(layout.mn, plan.field, derive_rng(seed, "L"))
    msgs = MessageTuple.random(layout, derive_rng(seed, "messages"))
    word = encode(layout, L, msgs)
    decode_ok = decode(layout, L, word) == msgs

    eve_rng = derive_rng(seed, "eavesdropper")
    draws = [
        realize_eavesdropper(model, plan.network, plan.coding, layout, eve_rng)
        for _ in range(plan.trials_b)
    ]
    subsets = all_nonempty_subsets(layout.T)
    profiles = observation_profiles(layout, L, ObservationSpaces(layout, draws), subsets)

    guarantee = None
    if plan.network is not None and plan.coding is not None:
        # the uniform constant tap sets, whatever the configured model
        support = observation_support(
            EavesdropperModel("traditional", model.mu), plan.network, plan.coding, layout
        )
        guarantee = guarantee_experiment(
            layout,
            support,
            model.mu,
            plan.params,
            derive_rng(seed, "guarantee"),
            plan.trials_l,
        )

    rows = []
    for sub in subsets:
        first = profiles[0][sub.label]
        zero_fraction = sum(
            1 for prof in profiles if prof[sub.label].nats == 0.0
        ) / len(profiles)
        floor = leakage_floor(layout, sub, first.rank_b)
        row = {
            "experiment_id": plan.experiment_id,
            "param": param,
            "value": value,
            "q": layout.q,
            "m": layout.m,
            "n": layout.n,
            "T": layout.T,
            "mu": model.mu,
            "subset": sub.label,
            "k_I": first.k_sub,
            "rank_B": first.rank_b,
            "kernel_dim": first.kernel_dim,
            "leakage_nats": first.nats,
            "leakage_bits": first.bits,
            "ub8_nats": ub8_bound(layout, sub, model.mu, plan.params),
            "floor_nats": floor,
            "zero_leakage_fraction": zero_fraction,
            "guarantee_fraction": (
                guarantee["per_subset"][sub.label]["fraction"] if guarantee else None
            ),
        }
        ceiling = first.k_sub * math.log(layout.q)
        if not floor - REAL_TOLERANCE <= first.nats <= ceiling + REAL_TOLERANCE:
            raise MuxnetError(
                f"leakage {first.nats} violates floor/ceiling for subset {sub.label}"
            )
        rows.append(row)

    meta = {
        "experiment_id": plan.experiment_id,
        "seed": seed,
        "q": layout.q,
        "m": layout.m,
        "n": layout.n,
        "T": layout.T,
        "mu": model.mu,
        "k": list(layout.k),
        "eavesdropper": model.kind,
        "eve_symbols": draws[0].nrows,
        "decodable": decodable,
        "decode_ok": decode_ok,
        "C_E": (
            len(enumerate_eavesdropper_sets(plan.network, model.mu))
            if plan.network is not None
            else None
        ),
        "guarantee_fraction": guarantee["fraction_good"] if guarantee else None,
        "guarantee_threshold": guarantee["threshold"] if guarantee else None,
    }
    return meta, rows


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def apply_sweep_value(config: dict, param: str, value) -> dict:
    """New config with one swept parameter applied."""
    if param not in SWEEPABLE_PARAMS:
        raise ConfigError(f"cannot sweep {param!r}; choose one of {SWEEPABLE_PARAMS}")
    if param in ("m", "mu", "q"):
        if value != int(value):
            raise ConfigError(f"swept {param} must be an integer, got {value}")
        value = int(value)
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    out = json.loads(json.dumps(config))
    name = {"m": "layout", "q": "layout", "mu": "eavesdropper"}.get(param, "bounds")
    section = out.setdefault(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    if param == "m":
        if section.get("m") != 1:
            raise ConfigError("m sweeps need a base layout with m = 1 (per-slot sizes)")
        if value < 1:
            raise ConfigError(f"swept m must be a positive integer, got {value}")
        section["m"] = value
        section["k"] = [ki * value for ki in _json_ints(section.get("k"), "layout.k")]
    else:
        section[param] = value
    if param == "q" and isinstance(out.get("field"), dict):
        out["field"].pop("modulus", None)
    return out


def _sweep_point(args: tuple[str, str, object]) -> list[dict]:
    config_json, param, value = args
    config = json.loads(config_json)
    _, rows = run_simulate(apply_sweep_value(config, param, value), param=param, value=value)
    return rows


def run_sweep(config: dict, param: str, values, parallel: int = 1) -> list[dict]:
    """One simulate per value, rows assembled in ascending value order; up
    to `parallel` worker processes, never more than there are values."""
    values = sorted(values)
    jobs = [(json.dumps(config, sort_keys=True), param, v) for v in values]
    workers = min(parallel, len(jobs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, jobs))
    else:
        results = [_sweep_point(job) for job in jobs]
    rows: list[dict] = []
    for chunk in results:
        rows.extend(chunk)
    return rows


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def run_capacity(rates, n: int, mu: int) -> dict:
    """Membership verdict plus the per-subset asymptotic leakage-rate floors."""
    rates = [float(r) for r in rates]
    if len(rates) > 16:
        raise ConfigError("at most 16 rates supported (2^T - 1 subsets are listed)")
    if mu > n:
        raise ConfigError(f"mu = {mu} exceeds n = {n}")
    member = capacity_membership(rates, n)
    floors = []
    for sub in all_nonempty_subsets(len(rates)):
        floors.append(
            {
                "subset": sub.label,
                "rate_sum": sum(rates[i - 1] for i in sub.members),
                "floor_symbols_per_slot": rate_leakage_floor(rates, sub.members, n, mu),
            }
        )
    return {
        "member": member,
        "rates": rates,
        "rate_total": sum(rates),
        "n": n,
        "mu": mu,
        "floors": floors,
    }


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def verify_seed(config) -> int:
    """The seed of a `muxnet verify` config.  A config with a layout is
    checked as for simulate; one without may hold only id and seed."""
    if isinstance(config, dict) and "layout" in config:
        return build_plan(config).seed
    seed, _ = _config_header(config, {"id", "seed"}, "a config without layout")
    return seed


def run_verify(seed: int) -> tuple[list[dict], bool]:
    rows = [r.to_json() for r in run_verification(seed)]
    all_hold = all(r["holds"] for r in rows)
    return rows, all_hold


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: list[dict], columns) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row.get(c)) for c in columns])
    return buf.getvalue()


def report_to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
