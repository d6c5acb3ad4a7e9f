"""Network coding propagation, decodability, and eavesdropper machinery."""

import random
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
    sample_eavesdropper,
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
from muxnet.network import MAX_TAP_SETS, coding_from_json, parallel_coding, parallel_network

CHI2_CRIT_DF1 = 10.828  # alpha = 0.001


# ---------------------------------------------------------
# construction
# ---------------------------------------------------------

def test_cycle_detected():
    with pytest.raises(CycleDetected):
        Network(
            ["a", "b"],
            "a",
            [{"id": "e1", "tail": "a", "head": "b"}, {"id": "e2", "tail": "b", "head": "a"}],
            ["b"],
        )
    with pytest.raises(CycleDetected):
        Network(["a"], "a", [{"id": "e1", "tail": "a", "head": "a"}], ["a"])


def test_duplicate_link_id_rejected():
    with pytest.raises(ValueError):
        Network(
            ["a", "b"],
            "a",
            [{"id": "e1", "tail": "a", "head": "b"}, {"id": "e1", "tail": "a", "head": "b"}],
            ["b"],
        )


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

def test_traditional_sampling_repeats_fixed_set():
    net = butterfly_network()
    f = GF(2)
    layout = MultiplexLayout(f, 3, 2, 1, (3, 3))
    model = EavesdropperModel("traditional", 1, links=("e3",))
    drawn = sample_eavesdropper(model, net, layout, random.Random(0))
    assert drawn == [("e3",)] * 3


def test_statistical_sampling_uniform_chi2():
    net = parallel_network(2)
    f = GF(2)
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    model = EavesdropperModel("statistical", 1)
    rng = random.Random(20210907)
    counts = {"e1": 0, "e2": 0}
    n = 10_000
    for _ in range(n):
        (slot,) = sample_eavesdropper(model, net, layout, rng)
        counts[slot[0]] += 1
    expected = n / 2
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 <= CHI2_CRIT_DF1


def test_distribution_entry_must_be_a_mu_subset():
    for entry in (("e1", "e1"), ("e1",), ("e1", "e2", "e3")):
        with pytest.raises(DuplicateLink, match="not a mu-subset"):
            EavesdropperModel("statistical", 2, distribution=((("e1", "e2"), 1.0), (entry, 1.0)))


def test_statistical_weighted_distribution():
    net = parallel_network(2)
    f = GF(2)
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    model = EavesdropperModel("statistical", 1, distribution=((("e1",), 1.0),))
    for _ in range(5):
        assert sample_eavesdropper(model, net, layout, random.Random(1)) == [("e1",)]


def test_direct_sampling_rank_invariant():
    f = GF(2)
    layout = MultiplexLayout(f, 2, 2, 1, (2, 2))
    model = EavesdropperModel("direct", 1)
    rng = random.Random(8)
    for _ in range(40):
        B = sample_eavesdropper(model, None, layout, rng)
        assert B.nrows == 2 and B.ncols == 4
        assert B.rank() <= 2


def test_mu_validation():
    net = parallel_network(2)
    f = GF(2)
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    with pytest.raises(InfeasibleMu):
        sample_eavesdropper(EavesdropperModel("traditional", 3), net, layout, random.Random(0))
    tiny = parallel_network(2)
    layout5 = MultiplexLayout(GF(2), 1, 5, 1, (2, 3))
    with pytest.raises(InfeasibleMu):
        sample_eavesdropper(
            EavesdropperModel("statistical", 3), tiny, layout5, random.Random(0)
        )


def test_realize_traditional_matches_eavesdrop_matrix():
    net = butterfly_network()
    f = GF(2)
    coding = butterfly_coding(f, 2)
    layout = MultiplexLayout(f, 2, 2, 1, (2, 2))
    model = EavesdropperModel("traditional", 1, links=("e7",))
    B = realize_eavesdropper(model, net, coding, layout, random.Random(0))
    assert B == eavesdrop_matrix(net, coding, [("e7",)] * 2, layout)


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
# JSON wiring
# ---------------------------------------------------------

def test_network_json_roundtrip_and_coding_parse():
    doc = {
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
    back = Network.from_json(doc)
    assert back.link_ids() == butterfly_network().link_ids()
    coding = coding_from_json(
        back,
        {
            "e1": {"0": 1},
            "e2": {"1": 1},
            "e3": {"e1": 1},
            "e4": {"e2": 1},
            "e5": {"e1": 1},
            "e6": {"e2": 1},
            "e7": {"e3": 1, "e4": 1},
            "e8": {"e7": 1},
            "e9": {"e7": 1},
        },
        GF(2),
        2,
        1,
    )
    assert global_coding_vectors(back, coding, 0)["e7"] == (1, 1)
    # coefficients must be canonical field elements, never coerced
    for link_id, key in (("e1", "0"), ("e7", "e3")):
        for val in (1.5, 1.0, True, "1", 2, -1):
            with pytest.raises(ValueError) as exc:
                coding_from_json(back, {link_id: {key: val}}, GF(2), 2, 1)
            assert repr(link_id) in str(exc.value) and repr(key) in str(exc.value)
    with pytest.raises(ValueError, match="GF\\(3\\)"):
        coding_from_json(back, {"e1": {"0": 7}}, GF(3), 2, 1)


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
    net = butterfly_network()
    c1 = coding_from_json(net, "random", GF(5), 2, 2, random.Random(42))
    c2 = coding_from_json(net, "random", GF(5), 2, 2, random.Random(42))
    assert c1.slot_maps == c2.slot_maps
