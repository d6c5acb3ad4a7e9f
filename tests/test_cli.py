"""End-to-end CLI behavior: determinism, formats, exit codes."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from muxnet import GF, experiments, network
from muxnet.cli import main
from muxnet.errors import ConfigError
from muxnet.experiments import (
    DEFAULT_CONFIG,
    MAX_TRIALS,
    REPORT_COLUMNS,
    VERIFY_COLUMNS,
    apply_sweep_value,
    build_plan,
    run_capacity,
    rows_to_csv,
    run_simulate,
    run_sweep,
)
from muxnet.network import MAX_TAP_SETS, LocalCoding

BUTTERFLY_CONFIG = {
    "id": "bf",
    "layout": {"q": 2, "m": 1, "n": 2, "T": 1, "k": [1, 1]},
    "network": "butterfly",
    "eavesdropper": {"kind": "traditional", "mu": 1},
    "bounds": {"rho": 1.0},
    "seed": 7,
    "trials": {"L": 10, "B": 8},
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    return str(path)


# ---------------------------------------------------------
# config validation
# ---------------------------------------------------------

def test_unknown_keys_rejected():
    bad = dict(DEFAULT_CONFIG)
    bad["surprise"] = 1
    with pytest.raises(ConfigError, match="surprise"):
        build_plan(bad)


def test_mu_exceeding_n_rejected():
    bad = json.loads(json.dumps(DEFAULT_CONFIG))
    bad["eavesdropper"]["mu"] = 3
    with pytest.raises(ConfigError, match="mu"):
        build_plan(bad)


def test_inconsistent_layout_rejected():
    bad = json.loads(json.dumps(DEFAULT_CONFIG))
    bad["layout"]["k"] = [1, 1]
    with pytest.raises(ConfigError):
        build_plan(bad)


def test_build_plan_builds_one_field(monkeypatch):
    # q's rules are checked without a field; only GF(q, modulus) is built
    calls = []

    def counting_gf(*args):
        calls.append(args)
        return GF(*args)

    monkeypatch.setattr(experiments, "GF", counting_gf)
    config = json.loads(json.dumps(BUTTERFLY_CONFIG))
    config["layout"]["q"] = 243
    config["field"] = {"modulus": [1, 0, 0, 0, 2, 1]}  # not GF(243)'s default
    plan = build_plan(config)
    assert calls == [(243, (1, 0, 0, 0, 2, 1))]
    assert plan.layout.field.modulus == (1, 0, 0, 0, 2, 1)


def inline_network(coding):
    return {"inline": {
        "nodes": ["s", "t"],
        "source": "s",
        "sinks": ["t"],
        "links": [{"id": "e1", "tail": "s", "head": "t"}, {"id": "e2", "tail": "s", "head": "t"}],
        "coding": coding,
    }}


def statistical(distribution):
    return {"kind": "statistical", "mu": 1, "distribution": distribution}


def with_inline(key, value):
    doc = inline_network("random")
    doc["inline"][key] = value
    return doc


@pytest.mark.parametrize("section, value, path", [
    pytest.param("eavesdropper", {"kind": "traditional", "mu": 9}, "eavesdropper.mu",
                 id="mu-exceeds-n"),
    pytest.param("network", inline_network({"e1": 5}), "coding['e1']", id="coding-entry"),
    pytest.param("network", inline_network(5), "coding = 5", id="coding-doc"),
    pytest.param("network", inline_network({"e1": {"x": 1}}), "coding['e1']['x']",
                 id="source-key-not-a-number"),
    pytest.param("network", inline_network({"e1": {"5": 1}}), "coding['e1']['5']",
                 id="source-key-out-of-range"),
    # "00" used to overwrite input 0's coefficient; "٠" is a decimal digit too
    pytest.param("network", inline_network({"e1": {"0": 1, "00": 0}}), "coding['e1']['00']",
                 id="source-key-not-canonical"),
    pytest.param("network", inline_network({"e1": {"\u0660": 1}}), "coding['e1']['\u0660']",
                 id="source-key-not-ascii"),
    pytest.param("eavesdropper", statistical(
        [{"links": ["zz"], "p": -1}, {"links": ["e7"], "p": 2}]),
        "eavesdropper.distribution[0].p", id="negative-p"),
    pytest.param("eavesdropper", statistical([{"links": ["zz"], "p": 1}]),
                 "eavesdropper.distribution[0].links[0]", id="unknown-link-in-distribution"),
    pytest.param("eavesdropper", statistical([{"links": ["e7"], "p": True}]),
                 "eavesdropper.distribution[0].p", id="bool-p"),
    pytest.param("eavesdropper", statistical([{"links": ["e7"], "p": "0.5"}]),
                 "eavesdropper.distribution[0].p", id="string-p"),
    pytest.param("eavesdropper", statistical([{"links": ["e7"], "p": math.inf}]),
                 "eavesdropper.distribution[0].p", id="infinite-p"),
    pytest.param("eavesdropper", statistical([{"links": ["e7"], "p": 0}]),
                 "eavesdropper.distribution", id="zero-total-weight"),
    pytest.param("eavesdropper", statistical(
        [{"links": ["e7"], "p": 1e308}, {"links": ["e1"], "p": 1e308}]),
        "distribution weights sum to inf", id="overflowing-total-weight"),
    pytest.param("eavesdropper", statistical([5]),
                 "eavesdropper.distribution[0]", id="entry-not-object"),
    pytest.param("eavesdropper", statistical([{"links": ["e1", "e2"], "p": 1}]),
                 "eavesdropper.distribution[0].links", id="tap-set-not-mu-sized"),
    pytest.param("eavesdropper", {"kind": "traditional", "mu": 1, "links": ["zz"]},
                 "eavesdropper.links[0]", id="unknown-link"),
    pytest.param("eavesdropper", {"kind": "traditional", "mu": 2, "links": ["e7", "e7"]},
                 "eavesdropper.links[1]", id="repeated-link"),
    pytest.param("eavesdropper", {"kind": "traditional", "mu": 1, "links": "e7"},
                 "eavesdropper.links", id="tap-set-not-list"),
    pytest.param("eavesdropper", {"kind": "traditional", "mu": True},
                 "eavesdropper.mu", id="bool-mu"),
    # A key the configured kind never reads is rejected, never ignored.
    pytest.param("eavesdropper", {"kind": "statistical", "mu": 1, "links": ["e7"]},
                 "eavesdropper.links", id="links-on-statistical"),
    pytest.param("eavesdropper", {"kind": "direct", "mu": 1, "links": ["e7"]},
                 "eavesdropper.links", id="links-on-direct"),
    pytest.param("eavesdropper", dict(statistical([{"links": ["e7"], "p": 1}]), kind="traditional"),
                 "eavesdropper.distribution", id="distribution-on-traditional"),
    pytest.param("trials", {"L": "x"}, "trials.L", id="string-trials"),
    pytest.param("trials", {"B": 2.0}, "trials.B", id="float-trials"),
    pytest.param("trials", {"L": True}, "trials.L", id="bool-trials"),
    pytest.param("trials", 5, "trials", id="trials-not-object"),
    pytest.param("trials", {"L": 0}, "trials.L", id="zero-trials"),
    pytest.param("trials", {"L": MAX_TRIALS + 1}, "trials.L", id="trials-over-bound"),
    pytest.param("trials", {"B": 10**12}, "trials.B", id="huge-trials"),
    pytest.param("layout", dict(BUTTERFLY_CONFIG["layout"], m=1.0), "layout.m", id="float-m"),
    pytest.param("layout", dict(BUTTERFLY_CONFIG["layout"], k=[1.5, 0.5]), "layout.k[0]",
                 id="float-k"),
    pytest.param("layout", dict(BUTTERFLY_CONFIG["layout"], n=True), "layout.n", id="bool-n"),
    pytest.param("layout", dict(BUTTERFLY_CONFIG["layout"], q="2"), "layout.q", id="string-q"),
    pytest.param("layout", dict(BUTTERFLY_CONFIG["layout"], T=1.0), "layout.T", id="float-T"),
    # q is spelled layout.q only; field holds just the modulus
    pytest.param("field", {"q": 2.0}, "in field: ['q']", id="float-field-q"),
    pytest.param("field", {"modulus": [1.5, 1, 1]}, "field.modulus[0]", id="float-modulus"),
    pytest.param("field", {"modulus": [5, 1, 1]}, "field.modulus[0]", id="modulus-out-of-range"),
    pytest.param("bounds", {"rho": True}, "bounds.rho", id="bool-rho"),
    pytest.param("bounds", {"C1": "9"}, "bounds.C1", id="string-C1"),
    pytest.param("bounds", {"C2": None}, "bounds.C2", id="null-C2"),
    pytest.param("network", with_inline("links", ["e1", "e2"]), "network.inline.links[0]",
                 id="links-not-objects"),
    pytest.param("network", with_inline("links", [{"id": 5, "tail": "s", "head": "t"}]),
                 "network.inline.links[0].id", id="link-id-not-string"),
    pytest.param("network", with_inline("links", [{"id": "e1", "tail": "s"}]),
                 "network.inline.links[0].head", id="link-without-head"),
    pytest.param("network", with_inline("nodes", 5), "network.inline.nodes", id="nodes-not-list"),
    pytest.param("network", with_inline("nodes", ["s", 5]), "network.inline.nodes[1]",
                 id="node-not-string"),
    pytest.param("network", with_inline("sinks", 5), "network.inline.sinks", id="sinks-not-list"),
    pytest.param("network", with_inline("source", []), "network.inline.source",
                 id="source-not-string"),
    pytest.param("network", {"inline": {"nodes": ["s"]}}, "network.inline.source",
                 id="missing-source"),
    # simulate used to check decodability at a repeated sink twice per slot
    pytest.param("network", with_inline("sinks", ["t", "t"]), "network.inline.sinks[1]",
                 id="repeated-sink"),
    # A repeated node hid the cycle a -> b -> a from the topological sort;
    # simulate then failed inside global_coding_vectors.
    pytest.param("network", {"inline": {
        "nodes": ["s", "s", "a", "b"], "source": "s", "sinks": ["b"],
        "links": [{"id": "e1", "tail": "s", "head": "a"}, {"id": "e2", "tail": "s", "head": "a"},
                  {"id": "e3", "tail": "a", "head": "b"}, {"id": "e4", "tail": "b", "head": "a"}],
    }}, "network.inline.nodes[1]", id="repeated-node"),
    # {"path": 0} used to read stdin as the network document, {"path": 1}
    # to close stdout on exit.
    pytest.param("network", {"path": 0}, "network.path", id="path-zero"),
    pytest.param("network", {"path": 1}, "network.path", id="path-one"),
    pytest.param("network", {"path": True}, "network.path", id="path-bool"),
    # The id is written into every report row; it is never stringified.
    pytest.param("id", None, "id", id="null-id"),
    pytest.param("id", 7, "id", id="number-id"),
    pytest.param("id", ["bf"], "id", id="list-id"),
    # Nothing reads a top-level sweep section; the sweep comes from the CLI.
    pytest.param("sweep", 5, "sweep", id="sweep-key"),
])
def test_cli_exit_code_on_config_error(section, value, path, tmp_path, capsys):
    # The message names the offending JSON path, and no traceback escapes.
    config = json.loads(json.dumps(BUTTERFLY_CONFIG))
    config[section] = value
    if section == "field":
        config["layout"]["q"] = 4  # an extension field, which takes a modulus
    assert main(["simulate", "--config", write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and path in err


def test_cli_exit_code_on_missing_config(capsys):
    assert main(["simulate", "--config", "/nonexistent/cfg.json"]) == 2


def test_cli_bad_sweep_value_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BUTTERFLY_CONFIG)
    assert main(["sweep", "--config", cfg, "--param", "C1", "--values", "2,abc"]) == 2
    assert "'abc'" in capsys.readouterr().err
    # swept integers are never truncated
    for param, value in (("mu", "1.5"), ("q", "2.5"), ("m", "1.5")):
        assert main(["sweep", "--config", cfg, "--param", param, "--values", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"swept {param}" in err and value in err


@pytest.mark.parametrize("argv, named", [
    pytest.param(["sweep", "--param", "C1", "--values", "2,inf"], "--values: 'inf'", id="values-inf"),
    pytest.param(["sweep", "--param", "C1", "--values", "nan"], "--values: 'nan'", id="values-nan"),
    pytest.param(["sweep", "--param", "C1", "--values", ","], "--values is empty", id="values-empty"),
    pytest.param(["sweep", "--param", "m", "--values", "0"], "swept m", id="sweep-m-zero"),
    pytest.param(["capacity", "--rates", "1,inf", "--n", "2"], "--rates: 'inf'", id="rates-inf"),
    pytest.param(["capacity", "--rates", "nan", "--n", "2"], "--rates: 'nan'", id="rates-nan"),
    pytest.param(["capacity", "--rates", ",", "--n", "2"], "--rates is empty", id="rates-empty"),
    pytest.param(["capacity", "--rates", ",".join(["0"] * 17), "--n", "2"], "at most 16 rates",
                 id="17-rates"),
    pytest.param(["capacity", "--rates", "1", "--n", "2", "--mu", "3"], "mu = 3 exceeds n = 2",
                 id="mu-over-n"),
])
def test_cli_bad_numbers_are_config_errors(argv, named, tmp_path, capsys):
    if argv[0] == "sweep":
        argv = argv + ["--config", write_config(tmp_path, BUTTERFLY_CONFIG)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


def test_library_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a bug inside the library")

    monkeypatch.setattr("muxnet.cli.run_simulate", broken)
    with pytest.raises(ValueError, match="a bug inside the library"):
        main(["simulate", "--config", write_config(tmp_path, BUTTERFLY_CONFIG)])


@pytest.mark.parametrize("argv", [
    ["verify", "--parallel", "2"],
    ["capacity", "--rates", "1,1", "--n", "2", "--config", "x"],
    ["sweep", "--param", "m", "--values", "1,2", "--parallel", "0"],
    # capacity's n and mu are positive integers, checked by argparse
    ["capacity", "--rates", "1,1", "--n", "-1", "--mu", "-2"],
    ["capacity", "--rates", "1,1", "--n", "0"],
    ["capacity", "--rates", "1,1", "--n", "2", "--mu", "0"],
    pytest.param(["capacity", "--rates", "1,1", "--n", "x"], id="n-not-an-integer"),
    pytest.param(["sweep", "--param", "m", "--values", "1,2", "--parallel", "x"],
                 id="parallel-not-an-integer"),
])
def test_cli_rejects_flags_a_subcommand_does_not_read(argv, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for name in ("run_verify", "run_sweep", "run_capacity", "run_simulate"):
        monkeypatch.setattr(f"muxnet.cli.{name}", no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "_positive_int" not in err  # argparse names the converter otherwise
    for flag in ("--n", "--mu", "--parallel"):
        if f"argument {flag}:" in err:
            value = argv[argv.index(flag) + 1]
            assert f"argument {flag}: expected a positive integer, got {value!r}" in err


# ---------------------------------------------------------
# simulate
# ---------------------------------------------------------

def test_simulate_butterfly_single_subset_row():
    meta, rows = run_simulate(BUTTERFLY_CONFIG)
    assert len(rows) == 1
    row = rows[0]
    assert row["subset"] == "1"
    assert row["leakage_nats"] in (pytest.approx(0.0), pytest.approx(math.log(2)))
    assert meta["decodable"] and meta["decode_ok"]
    assert meta["C_E"] == 9


def test_simulate_row_count_is_subset_count():
    config = json.loads(json.dumps(BUTTERFLY_CONFIG))
    config["layout"] = {"q": 2, "m": 1, "n": 2, "T": 2, "k": [1, 1, 0]}
    _, rows = run_simulate(config)
    assert [r["subset"] for r in rows] == ["1", "2", "1+2"]


def test_simulate_rows_respect_floor_and_ceiling():
    config = json.loads(json.dumps(BUTTERFLY_CONFIG))
    config["layout"] = {"q": 2, "m": 2, "n": 2, "T": 2, "k": [1, 2, 1]}
    _, rows = run_simulate(config)
    for row in rows:
        ceiling = row["k_I"] * math.log(row["q"])
        assert row["floor_nats"] - 1e-12 <= row["leakage_nats"] <= ceiling + 1e-12


def test_simulate_statistical_model():
    config = json.loads(json.dumps(BUTTERFLY_CONFIG))
    config["eavesdropper"] = {
        "kind": "statistical",
        "mu": 1,
        "distribution": [{"links": ["e7"], "p": 0.5}, {"links": ["e1"], "p": 0.5}],
    }
    meta, rows = run_simulate(config)
    assert meta["eavesdropper"] == "statistical"
    assert 0.0 <= rows[0]["zero_leakage_fraction"] <= 1.0


def test_network_from_file(tmp_path):
    net_doc = {
        "nodes": ["s", "t"],
        "source": "s",
        "sinks": ["t"],
        "links": [
            {"id": "e1", "tail": "s", "head": "t"},
            {"id": "e2", "tail": "s", "head": "t"},
        ],
        "coding": {"e1": {"0": 1}, "e2": {"1": 1}},
    }
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(net_doc))
    config = {
        "id": "filecfg",
        "layout": {"q": 2, "m": 1, "n": 2, "T": 1, "k": [1, 1]},
        "network": {"path": str(net_path)},
        "eavesdropper": {"kind": "traditional", "mu": 1, "links": ["e1"]},
        "seed": 5,
        "trials": {"L": 5, "B": 4},
    }
    meta, rows = run_simulate(config)
    assert meta["decodable"] and meta["C_E"] == 2
    # tapping e1 observes the first source input directly
    assert rows[0]["rank_B"] == 1
    # a non-integer coefficient is a config error naming the link and key
    for val in (1.5, True, "1", 2):
        net_doc["coding"]["e2"]["1"] = val
        net_path.write_text(json.dumps(net_doc))
        with pytest.raises(ConfigError, match="coding\\['e2'\\]\\['1'\\]"):
            build_plan(config)
        cfg = write_config(tmp_path, config)
        assert main(["simulate", "--config", cfg]) == 2


def test_random_coding_network_inline():
    config = {
        "id": "rand",
        "layout": {"q": 5, "m": 1, "n": 2, "T": 1, "k": [1, 1]},
        "network": {
            "inline": {
                "nodes": ["s", "t"],
                "source": "s",
                "sinks": ["t"],
                "links": [
                    {"id": "e1", "tail": "s", "head": "t"},
                    {"id": "e2", "tail": "s", "head": "t"},
                ],
                "coding": "random",
            }
        },
        "eavesdropper": {"kind": "traditional", "mu": 1},
        "seed": 6,
        "trials": {"L": 5, "B": 4},
    }
    meta1, rows1 = run_simulate(config)
    meta2, rows2 = run_simulate(config)
    assert (meta1, rows1) == (meta2, rows2)


def test_simulate_direct_mode_needs_no_network():
    config = {
        "id": "direct",
        "layout": {"q": 3, "m": 1, "n": 3, "T": 1, "k": [1, 2]},
        "eavesdropper": {"kind": "direct", "mu": 1},
        "seed": 3,
        "trials": {"L": 5, "B": 6},
    }
    meta, rows = run_simulate(config)
    assert meta["decodable"] is None
    assert rows[0]["guarantee_fraction"] is None
    assert rows[0]["rank_B"] == 1


def test_simulate_enumerates_tap_sets_once_before_the_draws(monkeypatch):
    # C_E and the guarantee support share one list of the constant tap
    # sets, made before the first eavesdropper draw.
    calls = []
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "muxnet"]
    for name in ("enumerate_eavesdropper_sets", "realize_eavesdropper"):
        original = getattr(network, name)

        def record(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, record)
    meta, _ = run_simulate(BUTTERFLY_CONFIG)
    assert meta["C_E"] == 9
    assert calls.count("enumerate_eavesdropper_sets") == 1
    assert calls.index("enumerate_eavesdropper_sets") < calls.index("realize_eavesdropper")


def test_simulate_checks_decodability_once_per_run_of_equal_slot_maps(monkeypatch):
    # The default coding is slot-constant (m = 2, sinks t1 and t2): one
    # check per sink.  A slot whose map differs is checked, and counts.
    calls = []
    real = experiments.check_decodability

    def counting(net, coding, sink, slot):
        calls.append((sink, slot))
        return real(net, coding, sink, slot)

    monkeypatch.setattr(experiments, "check_decodability", counting)
    meta, _ = run_simulate(DEFAULT_CONFIG)
    assert meta["decodable"] is True
    assert calls == [("t1", 0), ("t2", 0)]
    plan = build_plan(DEFAULT_CONFIG)
    silent = {link.id: {} for link in plan.network.links}
    plan.coding = LocalCoding(plan.layout.field, 2, [plan.coding.slot_map(0), silent])
    monkeypatch.setattr(experiments, "build_plan", lambda config: plan)
    calls.clear()
    meta, _ = run_simulate(DEFAULT_CONFIG)
    assert meta["decodable"] is False
    assert calls == [("t1", 0), ("t1", 1)]


def test_tap_set_bound_checked_at_the_config_boundary():
    # 40 parallel links and mu = 4 give C(40, 4) = 91,390 constant tap
    # sets; simulate would list them all after its draws.
    links = [{"id": f"e{j}", "tail": "s", "head": "t"} for j in range(1, 41)]
    config = {
        "layout": {"q": 2, "m": 1, "n": 4, "T": 1, "k": [2, 2]},
        "network": {"inline": {
            "nodes": ["s", "t"], "source": "s", "sinks": ["t"], "links": links, "coding": "random",
        }},
        "eavesdropper": {"kind": "traditional", "mu": 4},
        "trials": {"L": 4, "B": 2000},
    }
    with pytest.raises(ConfigError) as exc:
        build_plan(config)
    assert all(part in str(exc.value) for part in ("eavesdropper.mu", "91390", str(MAX_TAP_SETS)))
    config["eavesdropper"]["mu"] = 3  # C(40, 3) = 9,880
    assert build_plan(config).model.mu == 3


def test_simulate_deterministic_csv_bytes(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    cfg = write_config(tmp_path, BUTTERFLY_CONFIG)
    assert main(["simulate", "--config", cfg, "--out", str(p1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ",".join(REPORT_COLUMNS)


# Butterfly, k = (1, 3); at q = 9 the guarantee fraction is below 1.  The
# digests were computed when odd extension fields still added with a base-p
# digit loop, before the Zech tables.
ODD_EXTENSION_CONFIG = dict(
    BUTTERFLY_CONFIG,
    layout={"q": 9, "m": 2, "n": 2, "T": 1, "k": [1, 3]},
    trials={"L": 20, "B": 16},
)


@pytest.mark.parametrize("q, digest", [
    (9, "8617512698443c81a729d65eb6ff823bddadf6523f172d080fc165e7151fc142"),
    (81, "c8a23f108f7c78a9d750b51adc585e7f189413f16dbe1e3c33eebb69cba4799e"),
])
def test_simulate_odd_extension_field_pinned(q, digest, tmp_path):
    config = json.loads(json.dumps(ODD_EXTENSION_CONFIG))
    config["layout"]["q"] = q
    out = tmp_path / "report.csv"
    assert main(["simulate", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_sweep_q_over_odd_extension_fields_pinned(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = write_config(tmp_path, ODD_EXTENSION_CONFIG)
    assert main(
        ["sweep", "--config", cfg, "--param", "q", "--values", "9,25,27,49,81", "--out", str(out)]
    ) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "354b70242cf5c41ee7a0e6e3077e980bbebe731e907b5314a26965216f95cd9e"


# Butterfly, m = 8 and two messages, statistical taps: each L and B is
# 16 x 16.  The digests were computed on list rows, before prime fields
# were packed into 64-bit cells.
PRIME_FIELD_CONFIG = dict(
    BUTTERFLY_CONFIG,
    layout={"q": 3, "m": 8, "n": 2, "T": 2, "k": [5, 4, 7]},
    eavesdropper={"kind": "statistical", "mu": 1},
    trials={"L": 16, "B": 12},
)


@pytest.mark.parametrize("q, digest", [
    (3, "247c4b631e49c3853dedf7b4ce1d7068d40d595962faa1c2fb1bd3ecd88f9213"),
    (251, "b6b8465b37b62ce7f6386aa3c32b7abb2c028d27aa95aa6355c4eae22714da8a"),
    (65521, "bf21d19cd4e7e9fde10f87fae7cb7709903520eb12667b95f845277d1e3645a9"),
])
def test_simulate_prime_field_pinned(q, digest, tmp_path):
    config = json.loads(json.dumps(PRIME_FIELD_CONFIG))
    config["layout"]["q"] = q
    out = tmp_path / "report.csv"
    assert main(["simulate", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_sweep_q_over_prime_fields_pinned(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = write_config(tmp_path, PRIME_FIELD_CONFIG)
    assert main(
        ["sweep", "--config", cfg, "--param", "q", "--values", "3,5,251,65521", "--out", str(out)]
    ) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "ed986a546282b383624fa4eb98505a8ea9b914932900dbcf4ce1a7e5a0a2b2a8"


def test_cli_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path, BUTTERFLY_CONFIG)
    p1 = tmp_path / "s1.json"
    p2 = tmp_path / "s2.json"
    assert main(["simulate", "--config", cfg, "--format", "json", "--out", str(p1)]) == 0
    assert main(
        ["simulate", "--config", cfg, "--seed", "8", "--format", "json", "--out", str(p2)]
    ) == 0
    assert json.loads(p1.read_text())["experiment"]["seed"] == 7
    assert json.loads(p2.read_text())["experiment"]["seed"] == 8


# ---------------------------------------------------------
# sweep
# ---------------------------------------------------------

def test_sweep_singleton_matches_simulate():
    config = json.loads(json.dumps(BUTTERFLY_CONFIG))
    rows = run_sweep(config, "C1", [5])
    _, direct = run_simulate(apply_sweep_value(config, "C1", 5))
    stripped = [dict(r, param="", value="") for r in rows]
    assert stripped == direct


def test_sweep_c1_keeps_measurements_fixed():
    config = json.loads(json.dumps(BUTTERFLY_CONFIG))
    rows = run_sweep(config, "C1", [5, 9, 13])
    leaks = {r["leakage_nats"] for r in rows}
    bounds = [r["ub8_nats"] for r in rows]
    assert len(leaks) == 1
    assert bounds == sorted(bounds) and len(set(bounds)) == 3


def test_sweep_m_scales_layout():
    config = json.loads(json.dumps(BUTTERFLY_CONFIG))
    rows = run_sweep(config, "m", [1, 2, 3])
    assert [r["m"] for r in rows] == [1, 2, 3]
    assert [r["k_I"] for r in rows] == [1, 2, 3]


def test_sweep_m_requires_base_m1():
    config = json.loads(json.dumps(BUTTERFLY_CONFIG))
    config["layout"]["m"] = 2
    config["layout"]["k"] = [2, 2]
    with pytest.raises(ConfigError):
        apply_sweep_value(config, "m", 3)


def test_sweep_sorted_by_value(tmp_path):
    cfg = write_config(tmp_path, BUTTERFLY_CONFIG)
    out = tmp_path / "sweep.csv"
    assert main(
        ["sweep", "--config", cfg, "--param", "m", "--values", "3,1,2", "--out", str(out)]
    ) == 0
    values = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
    assert values == ["1", "2", "3"]


def test_sweep_json_rows_match_csv(tmp_path):
    cfg = write_config(tmp_path, BUTTERFLY_CONFIG)
    argv = ["sweep", "--config", cfg, "--param", "m", "--values", "1,2"]
    csv_out, json_out = tmp_path / "sweep.csv", tmp_path / "sweep.json"
    assert main(argv + ["--out", str(csv_out)]) == 0
    assert main(argv + ["--format", "json", "--out", str(json_out)]) == 0
    rows = json.loads(json_out.read_text())["rows"]
    assert len(rows) == 2
    assert rows_to_csv(rows, REPORT_COLUMNS) == csv_out.read_text()


def test_sweep_parallel_identical_to_serial():
    config = json.loads(json.dumps(BUTTERFLY_CONFIG))
    serial = run_sweep(config, "m", [1, 2], parallel=1)
    parallel = run_sweep(config, "m", [1, 2], parallel=2)
    assert serial == parallel


def test_sweep_bad_param_rejected():
    with pytest.raises(ConfigError):
        apply_sweep_value(BUTTERFLY_CONFIG, "n", 3)


# ---------------------------------------------------------
# capacity
# ---------------------------------------------------------

def test_capacity_member_with_floor():
    report = run_capacity([1.0, 1.0], 2, 1)
    assert report["member"]
    floors = {f["subset"]: f["floor_symbols_per_slot"] for f in report["floors"]}
    assert floors == {"1": 0.0, "2": 0.0, "1+2": 1.0}


def test_capacity_non_member():
    assert not run_capacity([3.0], 2, 1)["member"]
    assert run_capacity([0.5, 0.4], 2, 1)["member"]


def test_capacity_cli_formats(tmp_path, capsys):
    assert main(["capacity", "--rates", "1,1", "--n", "2", "--mu", "1"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("member,true")
    assert "1+2,2.0,1.0" in text
    out = tmp_path / "cap.json"
    assert main(
        ["capacity", "--rates", "3", "--n", "2", "--format", "json", "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["member"] is False


def test_capacity_report_pinned(capsys):
    # Every total is added left to right, so the last digits are those of
    # that order on every Python (from 3.12 `sum()` would print sum=0.6).
    assert main(["capacity", "--rates", "0.1,0.2,0.3", "--n", "2"]) == 0
    assert capsys.readouterr().out == (
        "member,true,sum=0.6000000000000001,n=2,mu=1\n"
        "subset,rate_sum,floor_symbols_per_slot\n"
        "1,0.1,0.0\n"
        "2,0.2,0.0\n"
        "3,0.3,0.0\n"
        "1+2,0.30000000000000004,0.0\n"
        "1+3,0.4,0.0\n"
        "2+3,0.5,0.0\n"
        "1+2+3,0.6000000000000001,0.0\n"
    )


# ---------------------------------------------------------
# verify via CLI
# ---------------------------------------------------------

# sha256 of the default `muxnet verify` report
VERIFY_DEFAULT_SHA256 = "4ec2d82bb3967d6b3ff0e538b5908b9ebcdb2c8a95a1c33a9161cf25a6f23c71"


def test_verify_default_config_exits_zero(tmp_path):
    # The shipped defaults must pass the full battery.
    out = tmp_path / "default.csv"
    assert main(["verify", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check,instance,lhs,rhs,holds"
    assert all(line.endswith("true") for line in lines[1:])
    # The report bytes are pinned: speed-ups must not change a single digit.
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == VERIFY_DEFAULT_SHA256


def test_verify_repeated_in_process_matches_a_fresh_interpreter(tmp_path):
    # What verify computes once per object (layout offsets, a joint's
    # conditional cells, the oracle's log tables) lives on objects each run
    # builds, so no run leaves state behind for the next: two runs in this
    # process and one in a new interpreter write the pinned bytes.
    outs = [tmp_path / f"verify{i}.csv" for i in range(3)]
    for out in outs[:2]:
        assert main(["verify", "--out", str(out)]) == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "muxnet", "verify", "--out", str(outs[2])],
                   env=env, check=True)
    assert [hashlib.sha256(out.read_bytes()).hexdigest() for out in outs] == [VERIFY_DEFAULT_SHA256] * 3


def test_verify_seed_11_report_pinned(tmp_path):
    # A seed names one report, whether it comes from --seed or a config.
    want = "6375093561cd0751e693f3a691ac2d66974d024a33b849ac73fd92c325a50a72"
    out = tmp_path / "seed.csv"
    assert main(["verify", "--seed", "11", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want
    cfg = write_config(tmp_path, {"seed": 11})
    out = tmp_path / "config.json"
    assert main(["verify", "--config", cfg, "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_hold"]
    csv_bytes = rows_to_csv(doc["checks"], VERIFY_COLUMNS).encode()
    assert hashlib.sha256(csv_bytes).hexdigest() == want


def test_readme_config_example_runs(tmp_path):
    # The README's one json block is the documented schema; both commands take it.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    cfg = write_config(tmp_path, block)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "rows.csv")]) == 0
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "checks.csv")]) == 0


def test_verify_tampered_tolerance_fails_and_names_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("muxnet.verification.REAL_TOLERANCE", -1.0)
    out = tmp_path / "verify.csv"
    assert main(["verify", "--seed", "11", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "FAILED checks:" in err
    assert "hash_bounds_random" in err or "hash_bound_pinned" in err


def test_verify_unknown_option_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"verify": {"bogus": 1}})
    assert main(["verify", "--config", cfg]) == 2
    assert "['verify']" in capsys.readouterr().err


# Sections that once set the battery's sizes, tolerances or seed.  The
# verify section is gone: each of them is now an unknown key, named.
RETIRED_VERIFY_SECTIONS = [
    ("enum-cap-removed", {"enum_cap": 5}),
    ("string-count", {"joint_trials": "x"}),
    ("zero-count", {"gl_chi2_samples": 0}),
    ("float-count", {"guarantee_l_trials": 2.0}),
    ("bool-seed", {"seed": True}),
    ("rho-grid-not-list", {"rho_grid": 5}),
    ("rho-grid-empty", {"rho_grid": []}),
    ("rho-outside-unit", {"rho_grid": [0.5, 1.5]}),
    ("rho-not-number", {"rho_grid": ["x"]}),
    ("string-tolerance", {"tolerance": "x"}),
    ("null-tolerance", {"oracle_tolerance": None}),
    ("section-not-object", []),
    *[(f"{count}-over-bound", {count: MAX_TRIALS + 1})
      for count in ("joint_trials", "gl_chi2_samples", "oracle_b_per_shape",
                    "oracle_l_samples", "guarantee_l_trials")],
    ("huge-count", {"joint_trials": 10**12}),
]


@pytest.mark.parametrize("config, path", [
    *[pytest.param({"seed": 11, "verify": section}, "['verify']", id=case)
      for case, section in RETIRED_VERIFY_SECTIONS],
    pytest.param(dict(BUTTERFLY_CONFIG, trials={"B": 10**12}), "trials.B",
                 id="experiment-trials-over-bound"),
    # Without a layout, a config may hold only id and seed; with one, it
    # is checked as for simulate, and a verify key is unknown there too.
    pytest.param(dict(BUTTERFLY_CONFIG, verify={}), "['verify']", id="verify-key-with-layout"),
    pytest.param({"bounds": "junk", "network": 5, "trials": []}, "['bounds', 'network', 'trials']",
                 id="experiment-keys-without-layout"),
    pytest.param({"id": None}, "id", id="verify-only-null-id"),
    pytest.param('{"verify": ', "config is not valid JSON", id="invalid-json"),
])
def test_verify_options_checked_at_the_boundary(config, path, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("verification started before the options were checked")

    monkeypatch.setattr("muxnet.experiments.run_verification", no_work)
    cfg = write_config(tmp_path, config)
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and path in err
