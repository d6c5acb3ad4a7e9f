"""Network coding propagation, decodability, and eavesdropper machinery."""

import hashlib
import math
import random
import re
from types import SimpleNamespace

import pytest

from muxnet import (
    GF,
    EavesdropperModel,
    FieldMatrix,
    LocalCoding,
    MultiplexLayout,
    Network,
    butterfly_coding,
    butterfly_network,
    check_decodability,
    eavesdrop_matrix,
    enumerate_eavesdropper_sets,
    global_coding_vectors,
    realize_eavesdropper,
    sample_full_rank,
)
from muxnet.errors import (
    CycleDetected,
    DuplicateLink,
    EnumerationTooLarge,
    InfeasibleMu,
    MissingCoefficient,
    WrongSlotCount,
)
from muxnet import network
from muxnet.experiments import build_plan
from muxnet.network import MAX_TAP_SETS, Link, parallel_coding, parallel_network
from muxnet.rng import derive_rng

CHI2_CRIT_DF1 = 10.828  # alpha = 0.001


# ---------------------------------------------------------
# construction
# ---------------------------------------------------------

def test_cycle_detected():
    with pytest.raises(CycleDetected, match="directed cycle"):
        Network(["a", "b"], "a", [Link("e1", "a", "b"), Link("e2", "b", "a")], ["b"])
    with pytest.raises(CycleDetected, match=re.escape("links[0] = 'e1' loops on node 'a'")):
        Network(["a"], "a", [Link("e1", "a", "a")], ["a"])


def test_duplicate_link_id_rejected():
    with pytest.raises(ValueError, match=re.escape("links[1].id = 'e1' repeats a link id")):
        Network(["a", "b"], "a", [Link("e1", "a", "b"), Link("e1", "a", "b")], ["b"])


def test_repeated_node_rejected():
    # A repeated "s" would lower a's in-degree twice and hide the cycle
    # a -> b -> a from the topological sort.
    links = [Link("e1", "s", "a"), Link("e2", "a", "b"), Link("e3", "b", "a")]
    with pytest.raises(ValueError, match=re.escape("nodes[1] = 's' repeats a node")):
        Network(["s", "s", "a", "b"], "s", links, ["b"])
    with pytest.raises(CycleDetected):
        Network(["s", "a", "b"], "s", links, ["b"])


@pytest.mark.parametrize("args, named", [
    pytest.param((["a"], "x", [], []), "source = 'x' is not a node", id="source"),
    pytest.param((["a"], "a", [], ["a", "x"]), "sinks[1] = 'x' is not a node", id="sink"),
    pytest.param((["a", "b"], "a", [], ["b", "b"]), "sinks[1] = 'b' repeats a sink",
                 id="repeated-sink"),
    pytest.param((["a"], "a", [Link("e1", "x", "a")], []), "links[0].tail = 'x' is not a node",
                 id="tail"),
    pytest.param((["a"], "a", [Link("e1", "a", "x")], []), "links[0].head = 'x' is not a node",
                 id="head"),
])
def test_network_errors_name_the_field(args, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        Network(*args)


# ---------------------------------------------------------
# global coding vectors
# ---------------------------------------------------------

def test_source_identity_coding_gives_unit_vectors():
    net = parallel_network(3)
    coding = parallel_coding(GF(2), 3, 1)
    vecs = global_coding_vectors(net, coding, 0)
    assert vecs["e1"] == (1, 0, 0)
    assert vecs["e2"] == (0, 1, 0)
    assert vecs["e3"] == (0, 0, 1)


def test_butterfly_all_ones_coding():
    net = butterfly_network()
    coding = butterfly_coding(GF(2), 1)
    vecs = global_coding_vectors(net, coding, 0)
    assert vecs["e1"] == (1, 0) and vecs["e2"] == (0, 1)
    assert vecs["e3"] == (1, 0) and vecs["e4"] == (0, 1)
    assert vecs["e7"] == (1, 1)  # bottleneck combines both inputs
    assert vecs["e8"] == (1, 1) and vecs["e9"] == (1, 1)


def test_all_zero_coefficients_give_zero_vectors():
    net = butterfly_network()
    f = GF(2)
    coeffs = {l.id: {} for l in net.links}
    coding = LocalCoding.constant(f, 2, coeffs, 1)
    vecs = global_coding_vectors(net, coding, 0)
    assert all(v == (0, 0) for v in vecs.values())
    assert not check_decodability(net, coding, "t1", 0)


def test_missing_coefficient_raises():
    net = butterfly_network()
    coding = LocalCoding.constant(GF(2), 2, {"e1": {0: 1}}, 1)
    with pytest.raises(MissingCoefficient):
        global_coding_vectors(net, coding, 0)


@pytest.mark.parametrize("key", [2, -1, 1.9, "1", True])
def test_source_input_keys_are_never_coerced(key):
    # a source link's key names an input in 0..n-1; 1.9 and "1" are not input 1
    coding = LocalCoding(GF(3), 2, [{"e1": {key: 1}, "e2": {1: 1}}])
    with pytest.raises(MissingCoefficient, match=r"references input .* outside 0\.\.1"):
        global_coding_vectors(parallel_network(2), coding, 0)


def test_local_coding_input_count_is_a_plain_int():
    for n in (1.5, True, -1, "2"):
        with pytest.raises(ValueError, match=re.escape(f"n = {n!r}")):
            LocalCoding(GF(3), n, [{}])
    # n = 0 is kept: a sink with no incoming links decodes zero inputs
    empty = Network(["s", "t"], "s", [], ["t"])
    assert check_decodability(empty, LocalCoding(GF(3), 0, [{}]), "t", 0)


def test_vectors_deterministic_per_seed():
    net = butterfly_network()
    f = GF(5)
    c1 = LocalCoding.random(net, f, 2, 2, random.Random(99))
    c2 = LocalCoding.random(net, f, 2, 2, random.Random(99))
    assert c1.slot_maps == c2.slot_maps
    assert global_coding_vectors(net, c1, 1) == global_coding_vectors(net, c2, 1)


# ---------------------------------------------------------
# decodability
# ---------------------------------------------------------

def test_butterfly_decodable_both_sinks():
    net = butterfly_network()
    coding = butterfly_coding(GF(2), 1)
    assert check_decodability(net, coding, "t1", 0)
    assert check_decodability(net, coding, "t2", 0)


def test_single_path_n1_decodable():
    net = parallel_network(1)
    coding = parallel_coding(GF(3), 1, 1)
    assert check_decodability(net, coding, "t", 0)


def test_decodability_invariant_under_invertible_mix():
    # Left-multiplying a sink's observation stack by any invertible matrix
    # preserves its rank, hence decodability.
    net = butterfly_network()
    f = GF(3)
    rng = random.Random(4)
    from muxnet import sample_gl

    for _ in range(10):
        coding = LocalCoding.random(net, f, 2, 1, rng)
        vecs = global_coding_vectors(net, coding, 0)
        M = FieldMatrix(f, [list(vecs[l.id]) for l in net.in_links("t1")])
        A = sample_gl(M.nrows, f, rng)
        assert (A @ M).rank() == M.rank()


# ---------------------------------------------------------
# eavesdrop matrix
# ---------------------------------------------------------

def test_eavesdrop_block_diagonal_placement():
    net = parallel_network(2)
    f = GF(2)
    # source link e1 carries (1,1) when it combines both inputs
    coding = LocalCoding.constant(f, 2, {"e1": {0: 1, 1: 1}, "e2": {1: 1}}, 2)
    layout = MultiplexLayout(f, 2, 2, 1, (2, 2))
    B = eavesdrop_matrix(net, coding, [("e1",), ("e1",)], layout)
    assert B.as_tuples() == ((1, 1, 0, 0), (0, 0, 1, 1))


def test_eavesdrop_unit_vector_rows():
    net = parallel_network(2)
    f = GF(2)
    coding = parallel_coding(f, 2, 3)
    layout = MultiplexLayout(f, 3, 2, 1, (3, 3))
    B = eavesdrop_matrix(net, coding, [("e2",)] * 3, layout)
    assert B.as_tuples() == (
        (0, 1, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 0, 1),
    )


def test_eavesdrop_zero_vector_link_gives_rank_deficit():
    net = butterfly_network()
    f = GF(2)
    coeffs = {l.id: {} for l in net.links}
    coeffs["e1"] = {0: 1}
    coeffs["e2"] = {1: 1}
    coding = LocalCoding.constant(f, 2, coeffs, 1)
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    B = eavesdrop_matrix(net, coding, [("e7",)], layout)
    assert B.rank() == 0


def test_eavesdrop_matrix_errors():
    net = butterfly_network()
    f = GF(2)
    coding = butterfly_coding(f, 2)
    layout = MultiplexLayout(f, 2, 2, 1, (2, 2))
    with pytest.raises(WrongSlotCount):
        eavesdrop_matrix(net, coding, [("e1",)], layout)
    with pytest.raises(DuplicateLink):
        eavesdrop_matrix(net, coding, [("e1", "e1"), ("e1", "e2")], layout)


def test_traditional_block_diagonal_identical_blocks():
    net = butterfly_network()
    f = GF(4)
    coding = butterfly_coding(f, 3)
    layout = MultiplexLayout(f, 3, 2, 1, (3, 3))
    rows = eavesdrop_matrix(net, coding, [("e3",)] * 3, layout).rows_list()
    blocks = [rows[t][2 * t:2 * t + 2] for t in range(3)]
    assert blocks[0] == blocks[1] == blocks[2]


@pytest.mark.parametrize("which", ["per-slot-random", "A-A-B-A"])
def test_eavesdrop_blocks_follow_each_slot_map(which):
    net = butterfly_network()
    f = GF(3)
    m = 4
    if which == "per-slot-random":
        rng = random.Random(5)
        slot_maps = [LocalCoding.random(net, f, 2, 1, rng).slot_map(0) for _ in range(m)]
        coding = LocalCoding(f, 2, slot_maps)
    else:  # slot maps A, A, B, A: e7 sums its inputs, except in slot 2
        a = butterfly_coding(f, 1).slot_map(0)
        coding = LocalCoding(f, 2, [a, a, dict(a, e7={"e3": 1, "e4": 2}), a])
        assert global_coding_vectors(net, coding, 2) != global_coding_vectors(net, coding, 1)
    layout = MultiplexLayout(f, m, 2, 1, (m, m))
    taps = [("e7", "e8"), ("e7", "e8"), ("e7", "e8"), ("e5", "e9")]
    rows = eavesdrop_matrix(net, coding, taps, layout).rows_list()
    for t, tapped in enumerate(taps):
        vecs = global_coding_vectors(net, coding, t)
        for i, link_id in enumerate(tapped):
            row = rows[2 * t + i]
            assert tuple(row[2 * t:2 * t + 2]) == vecs[link_id]
            assert not any(row[:2 * t] + row[2 * t + 2:])


# ---------------------------------------------------------
# sampling
# ---------------------------------------------------------

# sha256 of `draw_digest()`; computed before the tap-set sampler was folded
# into realize_eavesdropper, which must leave every draw, and the number of
# RNG draws, unchanged.
DRAW_DIGEST = "325f126ed667a7f5b00b55871e674de7b0b4e4c6e5982701b1f40cd0c78b7a07"


def draw_digest() -> str:
    """sha256 over 20 seeded realize_eavesdropper draws of each model kind
    (traditional fixed and uniform, statistical uniform and weighted,
    direct) on the butterfly under a random coding, at q in {2, 3, 256}."""
    h = hashlib.sha256()
    net = butterfly_network()
    weighted = ((("e1", "e2"), 1.0), (("e3", "e7"), 2.0), (("e5", "e9"), 0.5))
    models = (
        EavesdropperModel("traditional", 2, links=("e3", "e7")),
        EavesdropperModel("traditional", 2),
        EavesdropperModel("statistical", 2),
        EavesdropperModel("statistical", 2, distribution=weighted),
        EavesdropperModel("direct", 2),
    )
    for q in (2, 3, 256):
        f = GF(q)
        layout = MultiplexLayout(f, 3, 2, 1, (3, 3))
        coding = LocalCoding.random(net, f, 2, 3, random.Random(q + 1))
        rng = random.Random(q)
        for model in models:
            for _ in range(20):
                B = realize_eavesdropper(model, net, coding, layout, rng)
                h.update(repr(B.as_tuples()).encode())
        h.update(repr(rng.random()).encode())  # pins the number of draws as well
    return h.hexdigest()


def test_eavesdropper_draws_are_pinned():
    assert draw_digest() == DRAW_DIGEST


def test_traditional_sampling_repeats_fixed_set():
    net = butterfly_network()
    f = GF(2)
    coding = butterfly_coding(f, 3)
    layout = MultiplexLayout(f, 3, 2, 1, (3, 3))
    model = EavesdropperModel("traditional", 1, links=("e3",))
    B = realize_eavesdropper(model, net, coding, layout, random.Random(0))
    assert B == eavesdrop_matrix(net, coding, [("e3",)] * 3, layout)


def test_statistical_sampling_uniform_chi2():
    net = parallel_network(2)
    f = GF(2)
    coding = parallel_coding(f, 2, 1)
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    model = EavesdropperModel("statistical", 1)
    rng = random.Random(20210907)
    tapped = {
        eavesdrop_matrix(net, coding, [(link,)], layout).as_tuples()[0]: link
        for link in ("e1", "e2")
    }
    counts = {"e1": 0, "e2": 0}
    n = 10_000
    for _ in range(n):
        (row,) = realize_eavesdropper(model, net, coding, layout, rng).as_tuples()
        counts[tapped[row]] += 1
    expected = n / 2
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 <= CHI2_CRIT_DF1


@pytest.mark.parametrize("kwargs, named", [
    pytest.param(dict(kind="traditional", mu=True), "mu = True", id="bool-mu"),
    pytest.param(dict(kind="traditional", mu=1.0), "mu = 1.0", id="float-mu"),
    pytest.param(dict(kind="traditional", mu=0), "mu = 0", id="zero-mu"),
    pytest.param(dict(kind="eve", mu=1), "kind = 'eve'", id="unknown-kind"),
    pytest.param(dict(kind="traditional", mu=2, links=("e7", "e7")),
                 "links[1] = 'e7' repeats a link", id="repeated-link"),
    pytest.param(dict(kind="traditional", mu=1, links=("e1", "e2")),
                 "links = ('e1', 'e2') has 2 links, expected mu = 1", id="links-not-mu-sized"),
    pytest.param(dict(kind="statistical", mu=1, links=("e7",)), "links", id="links-on-statistical"),
    pytest.param(dict(kind="direct", mu=1, links=("e7",)), "links", id="links-on-direct"),
    pytest.param(dict(kind="traditional", mu=1, distribution=((("e7",), 1.0),)), "distribution",
                 id="distribution-on-traditional"),
    pytest.param(dict(kind="direct", mu=1, distribution=((("e7",), 1.0),)), "distribution",
                 id="distribution-on-direct"),
    pytest.param(dict(kind="statistical", mu=1, distribution=((("e7",), -1.0), (("e1",), 2.0))),
                 "distribution[0].p = -1.0", id="negative-weight"),
    pytest.param(dict(kind="statistical", mu=1, distribution=((("e7",), math.nan),)),
                 "distribution[0].p = nan", id="nan-weight"),
    pytest.param(dict(kind="statistical", mu=1, distribution=((("e7",), 10**400),)),
                 "is not finite", id="overflowing-weight"),
    pytest.param(dict(kind="statistical", mu=1, distribution=((("e7",), 0.0), (("e1",), 0))),
                 "distribution weights sum to 0", id="zero-total-weight"),
    pytest.param(dict(kind="statistical", mu=1, distribution=((("e7",), 1e308), (("e1",), 1e308))),
                 "distribution weights sum to inf", id="overflowing-total-weight"),
])
def test_eavesdropper_model_rejects_bad_or_unread_fields(kwargs, named):
    # each would otherwise be coerced, ignored, or fail only while sampling
    with pytest.raises(ValueError, match=re.escape(named)):
        EavesdropperModel(**kwargs)


def test_distribution_entry_must_be_a_mu_subset():
    for entry in (("e1", "e1"), ("e1",), ("e1", "e2", "e3")):
        with pytest.raises(DuplicateLink, match="not a mu-subset"):
            EavesdropperModel("statistical", 2, distribution=((("e1", "e2"), 1.0), (entry, 1.0)))


def test_statistical_weighted_distribution():
    net = parallel_network(2)
    f = GF(2)
    coding = parallel_coding(f, 2, 1)
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    model = EavesdropperModel("statistical", 1, distribution=((("e1",), 1.0),))
    expected = eavesdrop_matrix(net, coding, [("e1",)], layout)
    for _ in range(5):
        assert realize_eavesdropper(model, net, coding, layout, random.Random(1)) == expected


def test_direct_sampling_rank_invariant():
    f = GF(2)
    layout = MultiplexLayout(f, 2, 2, 1, (2, 2))
    model = EavesdropperModel("direct", 1)
    rng = random.Random(8)
    replay = random.Random(8)
    for _ in range(40):
        B = realize_eavesdropper(model, None, None, layout, rng)
        assert B.nrows == 2 and B.ncols == 4
        assert B.rank() == 2
        assert B == sample_full_rank(f, 2, 4, replay)


def test_mu_validation():
    net = parallel_network(2)
    f = GF(2)
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    coding = parallel_coding(f, 2, 1)
    with pytest.raises(InfeasibleMu):
        realize_eavesdropper(
            EavesdropperModel("traditional", 3), net, coding, layout, random.Random(0)
        )
    tiny = parallel_network(2)
    layout5 = MultiplexLayout(GF(2), 1, 5, 1, (2, 3))
    with pytest.raises(InfeasibleMu):
        realize_eavesdropper(
            EavesdropperModel("statistical", 3), tiny, LocalCoding(f, 5, [{}]), layout5,
            random.Random(0),
        )


def test_realize_traditional_matches_eavesdrop_matrix():
    # a uniform traditional model taps one sorted mu-subset, drawn once
    net = butterfly_network()
    f = GF(2)
    coding = butterfly_coding(f, 2)
    layout = MultiplexLayout(f, 2, 2, 1, (2, 2))
    model = EavesdropperModel("traditional", 2)
    rng, replay = random.Random(0), random.Random(0)
    for _ in range(10):
        B = realize_eavesdropper(model, net, coding, layout, rng)
        chosen = tuple(sorted(replay.sample(sorted(net.link_ids()), 2)))
        assert B == eavesdrop_matrix(net, coding, [chosen] * 2, layout)


# ---------------------------------------------------------
# enumeration
# ---------------------------------------------------------

def test_enumerate_sets_counts():
    net = parallel_network(4)
    assert len(enumerate_eavesdropper_sets(net, 1)) == 4
    assert len(enumerate_eavesdropper_sets(net, 2)) == 6
    assert len(enumerate_eavesdropper_sets(butterfly_network(), 1)) == 9
    with pytest.raises(EnumerationTooLarge):
        enumerate_eavesdropper_sets(parallel_network(40), 5)
    with pytest.raises(InfeasibleMu):
        enumerate_eavesdropper_sets(net, 5)


def test_tap_set_enumeration_bound(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("enumeration started before the bound was checked")

    monkeypatch.setattr(network, "itertools", SimpleNamespace(combinations=no_work))
    with pytest.raises(EnumerationTooLarge, match="658008"):
        enumerate_eavesdropper_sets(parallel_network(40), 5)  # C(40, 5)
    monkeypatch.undo()
    assert MAX_TAP_SETS == 1 << 16
    assert len(enumerate_eavesdropper_sets(parallel_network(362), 2)) == 65_341
    with pytest.raises(EnumerationTooLarge, match="65703"):
        enumerate_eavesdropper_sets(parallel_network(363), 2)


@pytest.mark.parametrize("links, listed", [(256, True), (257, False)])
def test_statistical_support_bound(links, listed, monkeypatch):
    # A uniform statistical model over `links` single-link tap sets and
    # m = 2 slots has links^2 schedules: 65,536 is listed, 66,049 sampled.
    built = []

    def record(net, coding, slots, layout):
        built.append(slots)

    monkeypatch.setattr(network, "eavesdrop_matrix", record)
    f = GF(2)
    layout = MultiplexLayout(f, 2, links, 1, (links, links))
    model = EavesdropperModel("statistical", 1)
    net = parallel_network(links)
    support = network.observation_support(model, net, parallel_coding(f, links, 2), layout)
    if listed:
        assert len(support) == len(built) == links**2 == MAX_TAP_SETS
        assert support[1] == (None, 1.0 / links**2)
    else:
        assert support is None and built == []


# ---------------------------------------------------------
# network documents, parsed by experiments.build_plan
# ---------------------------------------------------------

BUTTERFLY_DOCUMENT = {
    "nodes": ["s", "a", "b", "c", "d", "t1", "t2"],
    "source": "s",
    "sinks": ["t1", "t2"],
    "links": [
        {"id": "e1", "tail": "s", "head": "a"},
        {"id": "e2", "tail": "s", "head": "b"},
        {"id": "e3", "tail": "a", "head": "c"},
        {"id": "e4", "tail": "b", "head": "c"},
        {"id": "e5", "tail": "a", "head": "t1"},
        {"id": "e6", "tail": "b", "head": "t2"},
        {"id": "e7", "tail": "c", "head": "d"},
        {"id": "e8", "tail": "d", "head": "t1"},
        {"id": "e9", "tail": "d", "head": "t2"},
    ],
}


def inline_plan(coding, q=2, m=1, seed=7):
    """build_plan of a config whose network is BUTTERFLY_DOCUMENT with `coding`."""
    return build_plan({
        "layout": {"q": q, "m": m, "n": 2, "T": 1, "k": [m, m]},
        "network": {"inline": dict(BUTTERFLY_DOCUMENT, coding=coding)},
        "eavesdropper": {"kind": "traditional", "mu": 1},
        "seed": seed,
    })


def test_network_json_roundtrip_and_coding_parse():
    coding = {
        "e1": {"0": 1},
        "e2": {"1": 1},
        "e3": {"e1": 1},
        "e4": {"e2": 1},
        "e5": {"e1": 1},
        "e6": {"e2": 1},
        "e7": {"e3": 1, "e4": 1},
        "e8": {"e7": 1},
        "e9": {"e7": 1},
    }
    plan = inline_plan(coding)
    back = plan.network
    assert back.link_ids() == butterfly_network().link_ids()
    assert global_coding_vectors(back, plan.coding, 0)["e7"] == (1, 1)
    # coefficients must be canonical field elements, never coerced
    for link_id, key in (("e1", "0"), ("e7", "e3")):
        for val in (1.5, 1.0, True, "1", 2, -1):
            with pytest.raises(ValueError) as exc:
                inline_plan(dict(coding, **{link_id: {key: val}}))
            assert repr(link_id) in str(exc.value) and repr(key) in str(exc.value)
    with pytest.raises(ValueError, match="GF\\(3\\)"):
        inline_plan(dict(coding, e1={"0": 7}), q=3)


def test_local_coding_rejects_non_field_coefficients():
    # A coefficient follows the matrix-entry rule: a plain int in [0, q).
    for q in (3, 4):
        base = butterfly_coding(GF(q), 1).slot_map(0)
        for link_id, key in (("e1", 0), ("e3", "e1")):
            for val in (7, 1.5, True):
                slot = dict(base, **{link_id: {key: val}})
                with pytest.raises(ValueError, match=f"GF\\({q}\\)") as exc:
                    LocalCoding(GF(q), 2, [slot])
                assert f"coding[{link_id!r}][{str(key)!r}]" in str(exc.value)


def test_random_coding_from_json_is_seeded():
    c1 = inline_plan("random", q=5, m=2, seed=42).coding
    c2 = inline_plan("random", q=5, m=2, seed=42).coding
    assert c1.slot_maps == c2.slot_maps
    net = butterfly_network()
    drawn = LocalCoding.random(net, GF(5), 2, 2, derive_rng(42, "coding"))
    assert c1.slot_maps == drawn.slot_maps
    assert inline_plan("random", q=5, m=2, seed=43).coding.slot_maps != c1.slot_maps
