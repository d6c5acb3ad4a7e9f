"""Experiment configuration, runners, and report serialization.

A single JSON config fixes the field, block layout, network source,
eavesdropper model, bound constants, seed and trial counts.  Unknown keys
are rejected so configs stay reproducible.  All randomness is drawn from
per-component streams derived from the root seed, which makes reports
byte-identical across runs and across sweep parallelization.
"""

from __future__ import annotations

import csv
import io
import json
import math

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
from .fields import GF, _factor_prime_power
from .leakage import observation_profiles
from .matrix import sample_gl
from .multiplex import (
    MessageTuple,
    MultiplexLayout,
    _ordered_sum,
    _Record,
    all_nonempty_subsets,
    decode,
    encode,
)
from .network import (
    MAX_TAP_SETS,
    EavesdropperModel,
    Link,
    LocalCoding,
    Network,
    ObservationSpaces,
    butterfly_coding,
    butterfly_network,
    check_decodability,
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


def _json_list(doc, where: str) -> list:
    if not isinstance(doc, list):
        raise ConfigError(f"{where} must be a list, got {doc!r}")
    return doc


def _json_ints(doc, where: str) -> list[int]:
    return [_json_int(v, f"{where}[{i}]") for i, v in enumerate(_json_list(doc, where))]


def _json_strs(doc, where: str, what: str) -> tuple[str, ...]:
    """A list of strings, each `what` (a node name, a link id)."""
    for i, s in enumerate(_json_list(doc, where)):
        if not isinstance(s, str):
            raise ConfigError(f"{where}[{i}] = {s!r} is not {what}")
    return tuple(doc)


def _built(where: str, make, *args):
    """`make(*args)`: a library type built, or checked, from one config
    section.  The library's ValueError starts with the offending field, so
    it is reported as a ConfigError at the section's JSON path `where`
    followed by that message."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from exc


def _distribution(doc) -> tuple[tuple[tuple[str, ...], object], ...]:
    """The (links, p) entries of eavesdropper.distribution; the model
    checks their values."""
    out = []
    for i, entry in enumerate(_json_list(doc, "eavesdropper.distribution")):
        where = f"eavesdropper.distribution[{i}]"
        _require_keys(entry, {"links", "p"}, where)
        out.append((_json_strs(entry.get("links"), f"{where}.links", "a link id"), entry.get("p")))
    return tuple(out)


def _network_from_document(
    doc, where: str, field, n: int, m: int, rng
) -> tuple[Network, LocalCoding]:
    """The network and coding of a network document; `where` prefixes each
    JSON path.

    The document is {"nodes", "source", "sinks", "links": [{"id", "tail",
    "head"}], "coding"}.  Its JSON types are checked here and its values by
    `Network` and `LocalCoding`.  "coding" is "random" (the default: iid
    uniform coefficients, the same in every slot) or a map link id ->
    {key: coefficient}, where a source link's key is an input index, the
    decimal string of one of 0..n-1, and any other link's key an incoming
    link id.
    """
    _require_keys(doc, {"nodes", "source", "sinks", "links", "coding"}, where.rstrip(".: "))
    for key in ("nodes", "source", "sinks", "links"):
        if key not in doc:
            raise ConfigError(f"{where}{key} is required")
    if not isinstance(doc["source"], str):
        raise ConfigError(f"{where}source must be a node name, got {doc['source']!r}")
    nodes = _json_strs(doc["nodes"], f"{where}nodes", "a node name")
    sinks = _json_strs(doc["sinks"], f"{where}sinks", "a node name")
    links = []
    for i, link in enumerate(_json_list(doc["links"], f"{where}links")):
        _require_keys(link, {"id", "tail", "head"}, f"{where}links[{i}]")
        for key in ("id", "tail", "head"):
            if not isinstance(link.get(key), str):
                raise ConfigError(f"{where}links[{i}].{key} = {link.get(key)!r} is not a string")
        links.append(Link(link["id"], link["tail"], link["head"]))
    network = _built(where, Network, nodes, doc["source"], links, sinks)
    emitted = len(network.out_links(network.source))
    if emitted < n:
        raise ConfigError(f"{where}source has {emitted} outgoing links, fewer than layout.n = {n}")

    coding = doc.get("coding", "random")
    if coding == "random":
        return network, LocalCoding.random(network, field, n, m, rng)
    if not isinstance(coding, dict):
        raise ConfigError(f'{where}coding = {coding!r} is neither "random" nor an object')
    tails = {link.id: link.tail for link in links}
    # str(j) is input j's one spelling, so "00" cannot name input 0 twice
    inputs = {str(j): j for j in range(n)}
    coeffs: dict = {}
    for link_id, inner in coding.items():
        at = f"{where}coding[{link_id!r}]"
        if not isinstance(inner, dict):
            raise ConfigError(f"{at} = {inner!r} is not an object")
        if link_id not in tails:
            raise ConfigError(f"{at} names no link of the network")
        keyed = {str(key): c for key, c in inner.items()}
        if tails[link_id] == network.source:
            for key in keyed:
                if key not in inputs:
                    raise ConfigError(f"{at}[{key!r}] is not a source input in 0..{n - 1}")
            keyed = {inputs[key]: c for key, c in keyed.items()}
        coeffs[link_id] = keyed
    return network, _built(where, LocalCoding.constant, field, n, coeffs, m)


class ExperimentPlan(_Record):
    __slots__ = _fields = ("experiment_id", "layout", "network", "coding", "model", "params",
                           "seed", "trials_l", "trials_b")
    __hash__ = None  # mutable

    def __init__(self, experiment_id: str, layout: MultiplexLayout, network: Network | None,
                 coding: LocalCoding | None, model: EavesdropperModel, params: BoundParams,
                 seed: int, trials_l: int, trials_b: int):
        self._set_fields(experiment_id, layout, network, coding, model, params, seed,
                         trials_l, trials_b)


def _config_header(config, allowed: set[str], where: str) -> tuple[int, str]:
    """The seed and id of a config whose top-level keys all lie in `allowed`."""
    _require_keys(config, allowed, where)
    seed = _json_int(config.get("seed", DEFAULT_CONFIG["seed"]), "seed")
    experiment_id = config.get("id", f"exp-{seed}")
    if not isinstance(experiment_id, str):
        raise ConfigError(f"id must be a string, got {experiment_id!r}")
    return seed, experiment_id


def build_plan(config: dict) -> ExperimentPlan:
    """Check a config document and materialize every component.

    Only JSON shapes are checked here: objects, known keys, lists, and the
    numbers no library type owns.  The library type built from a section
    checks that section's values; `_built` reports its error at the
    section's JSON path.  Rules that join two sections (mu <= n, tap sets
    of the network's links) are checked here once both are built.
    """
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
    # q and the modulus live in different sections: q's rules are checked
    # first, without building tables, so the one field built can only
    # reject its modulus
    q = _json_int(layout_doc["q"], "layout.q")
    _built("layout.", _factor_prime_power, q)
    modulus = None
    if "modulus" in field_doc:
        modulus = tuple(_json_ints(field_doc["modulus"], "field.modulus"))
    field = _built("field.", GF, q, modulus)
    k = tuple(_json_list(layout_doc["k"], "layout.k"))
    layout = _built(
        "layout.", MultiplexLayout,
        field, layout_doc["m"], layout_doc["n"], layout_doc.get("T", len(k) - 1), k,
    )

    eav_doc = config.get("eavesdropper")
    if eav_doc is None:
        raise ConfigError("config is missing the eavesdropper section")
    _require_keys(eav_doc, {"kind", "mu", "links", "distribution"}, "eavesdropper")
    links = distribution = None
    if "links" in eav_doc:
        links = _json_strs(eav_doc["links"], "eavesdropper.links", "a link id")
    if "distribution" in eav_doc:
        distribution = _distribution(eav_doc["distribution"])
    model = _built(
        "eavesdropper.", EavesdropperModel,
        eav_doc.get("kind", "traditional"), eav_doc.get("mu", 1), links, distribution,
    )
    if model.mu > layout.n:
        raise ConfigError(f"eavesdropper.mu = {model.mu} exceeds layout.n = {layout.n}")

    network = None
    coding = None
    net_doc = config.get("network")
    if model.kind != "direct" and net_doc is None:
        raise ConfigError(f"{model.kind} eavesdropper requires a network")
    if net_doc == "butterfly":
        if layout.n != 2:
            raise ConfigError("the butterfly preset has n = 2")
        network, coding = butterfly_network(), butterfly_coding(field, layout.m)
    elif isinstance(net_doc, dict) and len(net_doc) == 1 and set(net_doc) <= {"path", "inline"}:
        if "path" in net_doc:
            path = net_doc["path"]
            if not isinstance(path, str):
                raise ConfigError(f"network.path must be a string, got {path!r}")
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, ValueError) as exc:  # unreadable, or not JSON
                raise ConfigError(f"network.path = {path!r} is not a readable JSON file: {exc}") from exc
            where = f"network document {path!r}: "
        else:
            doc, where = net_doc["inline"], "network.inline."
        network, coding = _network_from_document(
            doc, where, field, layout.n, layout.m, derive_rng(seed, "coding")
        )
    elif net_doc is not None:
        raise ConfigError(f"unrecognized network source {net_doc!r}")
    if network is not None:
        known = set(network.link_ids())
        tap_sets = [("eavesdropper.links", model.links)] if model.links is not None else []
        for i, (links, _) in enumerate(model.distribution or ()):
            tap_sets.append((f"eavesdropper.distribution[{i}].links", links))
        for where, links in tap_sets:
            for i, link in enumerate(links):
                if link not in known:
                    raise ConfigError(f"{where}[{i}] = {link!r} is not a link of the network")
        # simulate lists every constant tap set for C_E and the guarantee
        count = math.comb(len(known), model.mu)
        if count > MAX_TAP_SETS:
            raise ConfigError(
                f"eavesdropper.mu = {model.mu} gives {count} tap sets of the network's "
                f"{len(known)} links, more than {MAX_TAP_SETS}"
            )

    bounds_doc = config.get("bounds", {})
    _require_keys(bounds_doc, {"rho", "C1", "C2"}, "bounds")
    defaults = BoundParams.defaults(layout.T)
    params = BoundParams(
        C1=float(_json_number(bounds_doc.get("C1", defaults.C1), "bounds.C1")),
        C2=float(_json_number(bounds_doc.get("C2", defaults.C2), "bounds.C2")),
        rho=float(_json_number(bounds_doc.get("rho", defaults.rho), "bounds.rho")),
    )
    _built("bounds.", params.validate_for, layout.T)

    trials_doc = config.get("trials", {})
    _require_keys(trials_doc, {"L", "B"}, "trials")
    trials_l = _json_count(trials_doc.get("L", 40), "trials.L")
    trials_b = _json_count(trials_doc.get("B", 40), "trials.B")

    return ExperimentPlan(
        experiment_id=experiment_id,
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

    decodable = guarantee = C_E = None
    if plan.network is not None:
        # a slot whose map equals the previous slot's has the same decodability
        decodable = all(
            check_decodability(plan.network, plan.coding, sink, t)
            for sink in plan.network.sinks
            for t in range(layout.m)
            if t == 0 or plan.coding.slot_map(t) != plan.coding.slot_map(t - 1)
        )
        # the uniform constant tap sets, whatever the configured model
        support = observation_support(
            EavesdropperModel("traditional", model.mu), plan.network, plan.coding, layout
        )
        C_E = len(support)
        guarantee = guarantee_experiment(
            layout,
            support,
            model.mu,
            plan.params,
            derive_rng(seed, "guarantee"),
            plan.trials_l,
        )

    L = sample_gl(layout.mn, layout.field, derive_rng(seed, "L"))
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
        "C_E": C_E,
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
        import concurrent.futures  # a serial sweep never loads the pool machinery

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
                "rate_sum": _ordered_sum(rates[i - 1] for i in sub.members),
                "floor_symbols_per_slot": rate_leakage_floor(rates, sub.members, n, mu),
            }
        )
    return {
        "member": member,
        "rates": rates,
        "rate_total": _ordered_sum(rates),
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
