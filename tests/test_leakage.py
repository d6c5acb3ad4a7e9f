"""Exact leakage vs the brute-force joint-distribution oracle."""

import itertools
import math
import random

import pytest

from muxnet import (
    GF,
    BoundParams,
    EavesdropperModel,
    FieldMatrix,
    LocalCoding,
    MultiplexLayout,
    SubsetIndex,
    all_nonempty_subsets,
    average_leakage,
    average_over_support,
    brute_force_leakage,
    butterfly_coding,
    butterfly_network,
    constant_tap_observations,
    eavesdrop_matrix,
    enumerate_gl,
    exact_leakage,
    guarantee_experiment,
    leakage_floor,
    observation_support,
    random_matrix,
    sample_gl,
    worst_case_leakage,
)
from muxnet import experiments, leakage
from muxnet.errors import EnumerationTooLarge, ShapeError, SingularMatrix
from muxnet.leakage import leakage_profile

LN2 = math.log(2)


def layout_q2_m1():
    return MultiplexLayout(GF(2), 1, 2, 1, (1, 1))


# ---------------------------------------------------------
# exact_leakage pinned cases
# ---------------------------------------------------------

def test_zero_observation_leaks_nothing():
    layout = layout_q2_m1()
    B = FieldMatrix.zeros(GF(2), 1, 2)
    res = exact_leakage(layout, FieldMatrix.identity(GF(2), 2), B, SubsetIndex({1}))
    assert res.nats == 0.0
    assert res.kernel_dim == 1
    assert res.rank_b == 0


def test_invertible_observation_leaks_everything():
    rng = random.Random(1)
    layout = MultiplexLayout(GF(3), 1, 3, 2, (1, 1, 1))
    B = sample_gl(3, GF(3), rng)
    L = sample_gl(3, GF(3), rng)
    for sub in (SubsetIndex({1}), SubsetIndex({1, 2})):
        res = exact_leakage(layout, L, B, sub)
        assert res.nats == pytest.approx(res.k_sub * math.log(3))
        assert res.kernel_dim == 0


def test_single_tap_identity_vs_swap():
    layout = layout_q2_m1()
    B = FieldMatrix(GF(2), [[1, 0]])
    sub = SubsetIndex({1})
    ident = FieldMatrix.identity(GF(2), 2)
    swap = FieldMatrix(GF(2), [[0, 1], [1, 0]])
    r1 = exact_leakage(layout, ident, B, sub)
    r2 = exact_leakage(layout, swap, B, sub)
    assert r1.nats == pytest.approx(LN2)
    assert r1.kernel_dim == 0
    assert r2.nats == 0.0
    assert r2.kernel_dim == 1
    # the oracle agrees on both
    assert brute_force_leakage(layout, [ident, swap], [B], [sub]) == [
        [{"1": pytest.approx(LN2, abs=1e-12)}], [{"1": pytest.approx(0.0, abs=1e-12)}]
    ]


def test_conditional_entropy_complements_leakage():
    rng = random.Random(2)
    layout = MultiplexLayout(GF(2), 2, 2, 2, (1, 2, 1))
    for _ in range(20):
        L = sample_gl(4, GF(2), rng)
        B = random_matrix(GF(2), rng.randrange(1, 5), 4, rng)
        for sub in (SubsetIndex({1}), SubsetIndex({2}), SubsetIndex({1, 2})):
            res = exact_leakage(layout, L, B, sub)
            assert res.nats + res.kernel_dim * LN2 == pytest.approx(res.k_sub * LN2)
            assert res.kernel_dim <= min(res.k_sub, layout.mn - res.rank_b)


# ---------------------------------------------------------
# oracle agreement
# ---------------------------------------------------------

def test_oracle_agreement_all_gl22():
    layout = layout_q2_m1()
    B = FieldMatrix(GF(2), [[1, 0]])
    sub = SubsetIndex({1})
    maps = enumerate_gl(2, GF(2))
    for L, (oracle,) in zip(maps, brute_force_leakage(layout, maps, [B], [sub]), strict=True):
        assert exact_leakage(layout, L, B, sub).nats == pytest.approx(
            oracle[sub.label], abs=1e-9
        )


def test_oracle_agreement_random_gf3():
    rng = random.Random(3)
    layout = MultiplexLayout(GF(3), 1, 3, 1, (2, 1))
    sub = SubsetIndex({1})
    for _ in range(25):
        L = sample_gl(3, GF(3), rng)
        B = random_matrix(GF(3), rng.randrange(1, 4), 3, rng)
        assert exact_leakage(layout, L, B, sub).nats == pytest.approx(
            brute_force_leakage(layout, [L], [B], [sub])[0][0][sub.label], abs=1e-9
        )


def test_independent_blocks_leak_nothing():
    # Observation touches only the supplementary block: L = identity,
    # B reads the last coordinate, I = {1} lives in the first.
    layout = MultiplexLayout(GF(2), 1, 3, 1, (2, 1))
    B = FieldMatrix(GF(2), [[0, 0, 1]])
    res = exact_leakage(layout, FieldMatrix.identity(GF(2), 3), B, SubsetIndex({1}))
    assert res.nats == 0.0
    assert brute_force_leakage(
        layout, [FieldMatrix.identity(GF(2), 3)], [B], [SubsetIndex({1})]
    ) == [[{"1": pytest.approx(0.0, abs=1e-12)}]]


def single_subset_oracle(layout, L, B, subset):
    """The oracle for one map, one observation and one subset, through
    B L^-1, as it was before it took lists of them: the reference the
    table-driven oracle must match bit for bit."""
    total = layout.q ** layout.mn
    coords = layout.subset_coordinates(subset)
    C = B @ L.inverse()
    joint, marg_a, marg_z = {}, {}, {}
    for s in itertools.product(range(layout.q), repeat=layout.mn):
        a = tuple(s[c] for c in coords)
        z = tuple(C.mul_vector(s))
        joint[a, z] = joint.get((a, z), 0) + 1
        marg_a[a] = marg_a.get(a, 0) + 1
        marg_z[z] = marg_z.get(z, 0) + 1
    mi = 0.0
    for (a, z), c in joint.items():
        mi += c * (math.log(c * total) - math.log(marg_a[a] * marg_z[z]))
    return max(mi / total, 0.0)


@pytest.mark.parametrize("q, m, n, k", [
    (2, 1, 3, (2, 1)), (2, 2, 2, (1, 2, 1)), (2, 1, 4, (1, 1, 1, 1)),
    (3, 1, 2, (1, 1)), (3, 1, 3, (1, 1, 1)), (3, 2, 2, (1, 1, 1, 1)),
], ids=["q2-T1", "q2-T2", "q2-T3", "q3-T1", "q3-T2", "q3-T3"])
def test_oracle_over_subsets_is_bit_identical_to_single_subset(q, m, n, k):
    f = GF(q)
    layout = MultiplexLayout(f, m, n, len(k) - 1, k)
    subsets = all_nonempty_subsets(layout.T)
    rng = random.Random(q * 100 + layout.mn * 10 + layout.T)
    for _ in range(4):
        L = sample_gl(layout.mn, f, rng)
        bs = [random_matrix(f, rng.randrange(1, layout.mn + 1), layout.mn, rng) for _ in range(3)]
        bs.append(FieldMatrix.zeros(f, 0, layout.mn))  # an eavesdropper who sees nothing
        maps = [L, L.inverse()]  # a second map, with no extra RNG draw
        # one call over several maps and observations, each pair against
        # the one-subset reference
        got = brute_force_leakage(layout, maps, bs, subsets)
        for M, per_b in zip(maps, got, strict=True):
            for B, mis in zip(bs, per_b, strict=True):
                assert list(mis) == [sub.label for sub in subsets]
                for sub in subsets:
                    assert mis[sub.label] == single_subset_oracle(layout, M, B, sub)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_oracle_eliminates_nothing(monkeypatch, q):
    f = GF(q)
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    subsets = all_nonempty_subsets(1)
    rng = random.Random(q)
    maps = [sample_gl(2, f, rng) for _ in range(3)]
    bs = [random_matrix(f, rows, 2, rng) for rows in (1, 1, 2)]
    want = [[{"1": single_subset_oracle(layout, L, B, subsets[0])} for B in bs] for L in maps]

    def no_elimination(*args, **kwargs):
        raise AssertionError("the oracle eliminated")

    monkeypatch.setattr(FieldMatrix, "inverse", no_elimination)
    monkeypatch.setattr(FieldMatrix, "_rref_rows", no_elimination)
    monkeypatch.setattr(leakage._Echelon, "insert_packed", no_elimination)
    assert brute_force_leakage(layout, maps, bs, subsets) == want


@pytest.mark.parametrize("q, rows", [
    (2, [[1, 1], [1, 1]]), (3, [[1, 2], [2, 1]]), (4, [[2, 3], [1, 2]]),
], ids=["q2", "q3", "q4"])
def test_oracle_refuses_a_singular_map_naming_its_rank(q, rows):
    f = GF(q)
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    L = FieldMatrix(f, rows)
    assert L.rank() == 1
    maps = [FieldMatrix.identity(f, 2), L]  # refused even after an invertible map
    with pytest.raises(SingularMatrix, match="rank 1 < 2"):
        brute_force_leakage(layout, maps, [FieldMatrix.identity(f, 2)], [SubsetIndex({1})])


def test_brute_force_cap():
    layout = MultiplexLayout(GF(2), 5, 4, 1, (10, 10))
    B = FieldMatrix.zeros(GF(2), 1, 20)
    with pytest.raises(EnumerationTooLarge):
        brute_force_leakage(layout, [FieldMatrix.identity(GF(2), 20)], [B], [SubsetIndex({1})])


def test_brute_force_bound_checked_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the bound was checked")

    monkeypatch.setattr(FieldMatrix, "inverse", no_work)
    monkeypatch.setattr("muxnet.leakage._check_map", no_work)
    monkeypatch.setattr("muxnet.leakage._check_observation", no_work)
    layout = MultiplexLayout(GF(2), 1, 17, 1, (9, 8))  # 2^17 message vectors
    with pytest.raises(EnumerationTooLarge):
        brute_force_leakage(
            layout, [FieldMatrix.identity(GF(2), 17)], [FieldMatrix.zeros(GF(2), 1, 17)],
            [SubsetIndex({1})],
        )


def test_shape_validation():
    layout = layout_q2_m1()
    with pytest.raises(ShapeError):
        exact_leakage(
            layout,
            FieldMatrix.identity(GF(2), 3),
            FieldMatrix.zeros(GF(2), 1, 2),
            SubsetIndex({1}),
        )
    with pytest.raises(ShapeError):
        exact_leakage(
            layout,
            FieldMatrix.identity(GF(2), 2),
            FieldMatrix.zeros(GF(2), 1, 3),
            SubsetIndex({1}),
        )
    # A singular map is refused before any leakage is reported, even when
    # the observation is empty.
    with pytest.raises(SingularMatrix):
        exact_leakage(
            layout,
            FieldMatrix.zeros(GF(2), 2, 2),
            FieldMatrix.zeros(GF(2), 0, 2),
            SubsetIndex({1}),
        )


# ---------------------------------------------------------
# structural properties
# ---------------------------------------------------------

def test_quantization_integer_multiples_of_ln_q():
    rng = random.Random(4)
    for q in (2, 3, 4):
        f = GF(q)
        layout = MultiplexLayout(f, 1, 4, 2, (1, 2, 1))
        lnq = math.log(q)
        for _ in range(15):
            L = sample_gl(4, f, rng)
            B = random_matrix(f, rng.randrange(1, 5), 4, rng)
            for sub in (SubsetIndex({1}), SubsetIndex({2}), SubsetIndex({1, 2})):
                nats = exact_leakage(layout, L, B, sub).nats
                assert abs(nats / lnq - round(nats / lnq)) < 1e-12


def test_monotone_in_added_rows():
    rng = random.Random(5)
    layout = MultiplexLayout(GF(2), 2, 2, 1, (2, 2))
    sub = SubsetIndex({1})
    for _ in range(40):
        L = sample_gl(4, GF(2), rng)
        B = random_matrix(GF(2), rng.randrange(1, 4), 4, rng)
        extra = random_matrix(GF(2), rng.randrange(1, 3), 4, rng)
        more = FieldMatrix(GF(2), B.rows_list() + extra.rows_list())
        assert exact_leakage(layout, L, more, sub).nats >= exact_leakage(
            layout, L, B, sub
        ).nats - 1e-12


def test_data_processing_never_increases_leakage():
    rng = random.Random(6)
    layout = MultiplexLayout(GF(3), 1, 4, 1, (2, 2))
    sub = SubsetIndex({1})
    for _ in range(40):
        L = sample_gl(4, GF(3), rng)
        rows = rng.randrange(1, 5)
        B = random_matrix(GF(3), rows, 4, rng)
        A = random_matrix(GF(3), rng.randrange(1, rows + 1), rows, rng)
        assert exact_leakage(layout, L, A @ B, sub).nats <= exact_leakage(
            layout, L, B, sub
        ).nats + 1e-12


def test_leakage_floor_formula():
    layout = MultiplexLayout(GF(2), 4, 2, 1, (6, 2))
    sub = SubsetIndex({1})
    assert leakage_floor(layout, sub, 4) == pytest.approx(2 * LN2)
    assert leakage_floor(layout, sub, 0) == 0.0
    assert leakage_floor(layout, sub, 8) == pytest.approx(6 * LN2)


def test_floor_respected_by_full_rank_observations():
    rng = random.Random(7)
    layout = MultiplexLayout(GF(2), 2, 2, 1, (3, 1))
    sub = SubsetIndex({1})
    from muxnet import sample_full_rank

    for rows in (1, 2, 3, 4):
        for _ in range(15):
            B = sample_full_rank(GF(2), rows, 4, rng)
            L = sample_gl(4, GF(2), rng)
            assert exact_leakage(layout, L, B, sub).nats >= leakage_floor(
                layout, sub, rows
            ) - 1e-12


# ---------------------------------------------------------
# averaging and worst case
# ---------------------------------------------------------

def test_average_degenerate_single_observation():
    net = butterfly_network()
    f = GF(2)
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    coding = butterfly_coding(f, 1)
    L = FieldMatrix.identity(f, 2)
    model = EavesdropperModel("traditional", 1, links=("e7",))
    sub = SubsetIndex({1})
    res = average_leakage(layout, L, model, net, coding, [sub], random.Random(0), 5)[sub.label]
    from muxnet import eavesdrop_matrix

    B = eavesdrop_matrix(net, coding, [("e7",)], layout)
    assert res["mean_nats"] == pytest.approx(exact_leakage(layout, L, B, sub).nats)
    assert res["exhaustive"]


def test_average_zero_observation():
    f = GF(2)
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    zero = FieldMatrix.zeros(f, 1, 2)
    L = FieldMatrix.identity(f, 2)
    res = next(average_over_support(layout, [L], [(zero, 1.0)], [SubsetIndex({1})]))["1"]
    assert res["mean_nats"] == 0.0
    assert res["mean_exp_rho"] == pytest.approx(1.0)


def test_average_exhaustive_matches_manual_mean():
    net = butterfly_network()
    f = GF(2)
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    coding = butterfly_coding(f, 1)
    rng = random.Random(8)
    L = sample_gl(2, f, rng)
    sub = SubsetIndex({1})
    model = EavesdropperModel("traditional", 1)
    res = average_leakage(layout, L, model, net, coding, [sub], rng, 3)[sub.label]
    from muxnet import enumerate_eavesdropper_sets, eavesdrop_matrix

    manual = []
    for s in enumerate_eavesdropper_sets(net, 1):
        B = eavesdrop_matrix(net, coding, [s], layout)
        manual.append(exact_leakage(layout, L, B, sub).nats)
    assert res["exhaustive"]
    assert res["mean_nats"] == pytest.approx(sum(manual) / len(manual))
    assert sorted(res["samples"]) == sorted(manual)


def test_brute_force_invertible_observation():
    layout = MultiplexLayout(GF(2), 1, 2, 1, (1, 1))
    rng = random.Random(12)
    B = sample_gl(2, GF(2), rng)
    L = sample_gl(2, GF(2), rng)
    assert brute_force_leakage(layout, [L], [B], [SubsetIndex({1})]) == [
        [{"1": pytest.approx(LN2, abs=1e-12)}]
    ]


def test_average_statistical_exhaustive_matches_manual_product():
    from muxnet.network import parallel_coding, parallel_network
    from muxnet import eavesdrop_matrix
    import itertools

    net = parallel_network(2)
    f = GF(2)
    layout = MultiplexLayout(f, 2, 2, 1, (2, 2))
    coding = parallel_coding(f, 2, 2)
    rng = random.Random(13)
    L = sample_gl(4, f, rng)
    sub = SubsetIndex({1})
    model = EavesdropperModel("statistical", 1)
    res = average_leakage(layout, L, model, net, coding, [sub], rng, 3)[sub.label]
    assert res["exhaustive"]
    sets = [("e1",), ("e2",)]
    manual = []
    for combo in itertools.product(sets, repeat=2):
        B = eavesdrop_matrix(net, coding, list(combo), layout)
        manual.append(exact_leakage(layout, L, B, sub).nats)
    assert res["mean_nats"] == pytest.approx(sum(manual) / 4)


def test_zero_size_subset_leaks_nothing():
    layout = MultiplexLayout(GF(2), 1, 2, 1, (0, 2))
    rng = random.Random(14)
    L = sample_gl(2, GF(2), rng)
    B = sample_gl(2, GF(2), rng)
    sub = SubsetIndex({1})
    assert exact_leakage(layout, L, B, sub).nats == 0.0
    assert brute_force_leakage(layout, [L], [B], [sub]) == [[{"1": pytest.approx(0.0, abs=1e-12)}]]


def test_worst_case_over_butterfly_taps_matches_oracle():
    net = butterfly_network()
    f = GF(2)
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    coding = butterfly_coding(f, 1)
    sub = SubsetIndex({1})
    observations = constant_tap_observations(net, coding, 1, layout)
    rng = random.Random(9)
    for _ in range(5):
        L = sample_gl(2, f, rng)
        res = worst_case_leakage(layout, L, observations, [sub])[sub.label]
        manual = max(
            brute_force_leakage(
                layout, [L], [eavesdrop_matrix(net, coding, [s], layout)], [sub]
            )[0][0][sub.label]
            for s, _ in res["per_set"]
        )
        assert res["max_nats"] == pytest.approx(manual, abs=1e-9)
        assert res["max_nats"] in (pytest.approx(0.0), pytest.approx(LN2))


def test_worst_case_zero_on_dead_links():
    # All tappable links carry zero vectors, so every tap observes nothing.
    net = butterfly_network()
    f = GF(2)
    coeffs = {l.id: {} for l in net.links}
    coding = LocalCoding.constant(f, 2, coeffs, 1)
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    L = FieldMatrix.identity(f, 2)
    observations = constant_tap_observations(net, coding, 1, layout)
    res = worst_case_leakage(layout, L, observations, [SubsetIndex({1})])["1"]
    assert res["max_nats"] == 0.0


def test_worst_case_mu_equals_n_leaks_everything():
    net = butterfly_network()
    f = GF(2)
    layout = MultiplexLayout(f, 1, 2, 1, (2, 0))
    coding = butterfly_coding(f, 1)
    rng = random.Random(10)
    L = sample_gl(2, f, rng)
    observations = constant_tap_observations(net, coding, 2, layout)
    res = worst_case_leakage(layout, L, observations, [SubsetIndex({1})])["1"]
    # tapping both source links yields an invertible observation
    assert res["max_nats"] == pytest.approx(2 * LN2)


def test_profile_matches_exact_leakage():
    rng = random.Random(11)
    layout = MultiplexLayout(GF(2), 2, 2, 2, (1, 2, 1))
    subsets = [SubsetIndex({1}), SubsetIndex({2}), SubsetIndex({1, 2})]
    L = sample_gl(4, GF(2), rng)
    B = random_matrix(GF(2), 2, 4, rng)
    prof = leakage_profile(layout, L, B, subsets)
    for sub in subsets:
        assert prof[sub.label] == exact_leakage(layout, L, B, sub)


# ---------------------------------------------------------
# one evaluation per distinct row space, against the per-B path
# ---------------------------------------------------------

def added_in_order(terms):
    """The terms added left to right from 0, the library's summation rule."""
    total = 0
    for term in terms:
        total += term
    return total


def per_b_average(layout, L, support, subsets, rho):
    """average_over_support's result for one map, one exact_leakage per
    listed B and the sums in the listed order."""
    out = {}
    for sub in subsets:
        samples = [exact_leakage(layout, L, B, sub).nats for B, _ in support]
        out[sub.label] = {
            "mean_nats": added_in_order(w * x for (_, w), x in zip(support, samples)),
            "mean_exp_rho": added_in_order(
                w * math.exp(rho * x) for (_, w), x in zip(support, samples)
            ),
            "samples": samples,
        }
    return out


SUPPORT_MODELS = {
    "uniform-mu1": EavesdropperModel("traditional", 1),
    "uniform-mu2": EavesdropperModel("traditional", 2),
    "fixed-e7": EavesdropperModel("traditional", 1, links=("e7",)),
    "statistical": EavesdropperModel("statistical", 1),
    "statistical-weighted": EavesdropperModel(
        "statistical", 1, distribution=((("e1",), 2.0), (("e7",), 1.0), (("e4",), 0.5))
    ),
}


@pytest.mark.parametrize("coding_kind", ["butterfly", "random"])
@pytest.mark.parametrize("model", list(SUPPORT_MODELS), ids=str)
@pytest.mark.parametrize("q", [2, 3, 4])
def test_average_over_support_equals_per_b_reference(q, model, coding_kind):
    f = GF(q)
    rng = random.Random(q * 100 + len(model))
    net = butterfly_network()
    layout = MultiplexLayout(f, 2, 2, 2, (1, 2, 1))
    if coding_kind == "butterfly":
        coding = butterfly_coding(f, 2)
    else:
        coding = LocalCoding.random(net, f, 2, 2, rng)
    support = observation_support(SUPPORT_MODELS[model], net, coding, layout)
    subsets = all_nonempty_subsets(layout.T)
    maps = [sample_gl(layout.mn, f, rng) for _ in range(3)]
    got = list(average_over_support(layout, maps, support, subsets, 0.7))
    assert got == [per_b_average(layout, L, support, subsets, 0.7) for L in maps]


def test_worst_case_argmax_is_first_attaining_tap_set():
    # Under the all-ones butterfly coding each row space is tapped by three
    # links, so every maximum is attained by several tap sets.
    f = GF(2)
    net = butterfly_network()
    layout = MultiplexLayout(f, 2, 2, 1, (2, 2))
    observations = constant_tap_observations(net, butterfly_coding(f, 2), 1, layout)
    sub = SubsetIndex({1})
    rng = random.Random(21)
    for _ in range(12):
        L = sample_gl(layout.mn, f, rng)
        res = worst_case_leakage(layout, L, observations, [sub])["1"]
        per_set = [(s, exact_leakage(layout, L, B, sub).nats) for s, B in observations]
        worst = max(x for _, x in per_set)
        attaining = [s for s, x in per_set if x == worst]
        assert len(attaining) > 1
        assert res["per_set"] == per_set
        assert res["max_nats"] == worst
        assert res["argmax"] == attaining[0]


@pytest.fixture
def profile_calls(monkeypatch):
    """The maps L of every leakage_profile call the aggregators make."""
    calls = []
    real = leakage.leakage_profile

    def counting(layout, L, B, subsets):
        calls.append(L)
        return real(layout, L, B, subsets)

    monkeypatch.setattr(leakage, "leakage_profile", counting)
    return calls


def test_butterfly_taps_take_one_profile_per_row_space(profile_calls):
    # q = 2, m = 2, mu = 1: nine constant tap sets, three row spaces
    f = GF(2)
    net = butterfly_network()
    layout = MultiplexLayout(f, 2, 2, 1, (2, 2))
    coding = butterfly_coding(f, 2)
    subsets = all_nonempty_subsets(1)
    support = observation_support(EavesdropperModel("traditional", 1), net, coding, layout)
    assert len(support) == 9
    rng = random.Random(22)
    maps = [sample_gl(layout.mn, f, rng) for _ in range(5)]
    list(average_over_support(layout, maps, support, subsets))
    assert len(profile_calls) == 3 * len(maps)

    profile_calls.clear()
    observations = constant_tap_observations(net, coding, 1, layout)
    worst_case_leakage(layout, maps[0], observations, subsets)
    assert len(profile_calls) == 3

    profile_calls.clear()
    guarantee_experiment(layout, support, 1, BoundParams.defaults(1), rng, 4)
    assert len(profile_calls) == 3 * 4


def test_simulate_draws_take_one_profile_per_row_space(profile_calls):
    # 30 draws from the nine tap sets span the three row spaces; the
    # guarantee column adds three profiles per sampled map.
    config = dict(experiments.DEFAULT_CONFIG, trials={"L": 2, "B": 30})
    experiments.run_simulate(config)
    assert len(profile_calls) == 3 + 3 * 2


# ---------------------------------------------------------
# the kernel formula as a reference for leakage_profile
# ---------------------------------------------------------

def projected_kernel_dim(layout, L, B, subset):
    """dim proj_I(ker(B L^-1)): the rank of the kernel basis's rows at the
    subset's coordinates."""
    kernel = (B @ L.inverse()).kernel()
    rows = kernel.rows_list()
    coords = layout.subset_coordinates(subset)
    return FieldMatrix(L.field, [rows[c] for c in coords], ncols=kernel.ncols).rank()


def random_layout(f, m, n, rng):
    T = rng.randint(1, 3)
    cuts = sorted(rng.randint(0, m * n) for _ in range(T))
    k = [b - a for a, b in zip([0] + cuts, cuts + [m * n])]
    return MultiplexLayout(f, m, n, T, tuple(k))


def random_observation(f, mn, rng):
    """0 to mn + 1 rows, some of them repeats of earlier rows."""
    rows = []
    for _ in range(rng.randint(0, mn + 1)):
        if rows and rng.random() < 0.3:
            rows.append(list(rng.choice(rows)))
        else:
            rows.append([rng.randrange(f.q) for _ in range(mn)])
    return FieldMatrix(f, rows, ncols=mn)


def butterfly_observation(f, m, rng):
    """Block-diagonal B of the butterfly network under a per-slot random
    coding, one or two tapped links per slot."""
    net = butterfly_network()
    slot_maps = [LocalCoding.random(net, f, 2, 1, rng).slot_map(0) for _ in range(m)]
    coding = LocalCoding(f, 2, slot_maps)
    mu = rng.randint(1, 2)
    taps = [rng.sample(net.link_ids(), mu) for _ in range(m)]
    return eavesdrop_matrix(net, coding, taps, MultiplexLayout(f, m, 2, 1, (m, m)))


@pytest.mark.parametrize("q", [2, 3, 4, 9, 256, 65536])
def test_profile_kernel_dim_equals_projected_kernel_rank(q):
    f = GF(q)
    rng = random.Random(q)
    for trial in range(48):
        if trial % 3 == 2:
            m, n = rng.choice([1, 2, 3, 4, 16]), 2
            B = butterfly_observation(f, m, rng)
        else:
            m, n = rng.choice([(1, 1), (1, 3), (2, 2), (2, 3), (3, 4), (4, 4), (4, 8)])
            B = random_observation(f, m * n, rng)
        layout = random_layout(f, m, n, rng)
        L = sample_gl(m * n, f, rng)
        subsets = all_nonempty_subsets(layout.T)
        prof = leakage_profile(layout, L, B, subsets)
        for sub in subsets:
            assert prof[sub.label].kernel_dim == projected_kernel_dim(layout, L, B, sub)
            assert prof[sub.label].rank_b == B.rank()
