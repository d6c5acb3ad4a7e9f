"""Hashing inequalities, decay bounds, guarantees, and the capacity region."""

import math
import random

import pytest

from muxnet import (
    GF,
    BoundParams,
    EavesdropperModel,
    FieldMatrix,
    HashFamilySpec,
    JointDistribution,
    MultiplexLayout,
    SubsetIndex,
    all_nonempty_subsets,
    butterfly_coding,
    butterfly_network,
    capacity_membership,
    certify_universal_zero,
    constant_tap_observations,
    eavesdrop_matrix,
    enumerate_eavesdropper_sets,
    exact_leakage,
    guarantee_experiment,
    leakage_floor,
    observation_support,
    rate_leakage_floor,
    sample_gl,
    ub2_bound,
    ub5_bound,
    ub6_bound,
    ub7_bound,
    ub8_bound,
    verify_hashed_entropy_bound,
    verify_hashed_mi_bound,
    worst_case_leakage,
)
from muxnet.bounds import family_statistics, guarantee_probability, rho_grid_argmin
from muxnet.errors import DomainError
from muxnet.network import parallel_coding, parallel_network
from muxnet.verification import RHO_GRID, hand_instance_family, hand_instance_joint

LN2 = math.log(2)


# ---------------------------------------------------------
# hashing inequalities
# ---------------------------------------------------------

def test_mi_bound_rho_zero_trivial():
    res = verify_hashed_mi_bound(hand_instance_joint(), hand_instance_family(), 0.0)
    assert res["lhs"] == pytest.approx(1.0)
    assert res["rhs"] == pytest.approx(2.0)
    assert res["holds"]


def test_mi_bound_hand_instance():
    res = verify_hashed_mi_bound(hand_instance_joint(), hand_instance_family(), 1.0)
    # 2 of the 6 maps reproduce the observed coordinate, 4 are independent
    assert res["lhs"] == pytest.approx(4 / 3, abs=1e-12)
    assert res["rhs"] == pytest.approx(2.0, abs=1e-12)
    assert res["holds"]


def test_mi_bound_bijective_family_deterministic_z():
    joint = JointDistribution.from_deterministic_z(8, lambda x: x, 8)
    # family of the 8 shift bijections from X to S
    shifted = tuple(tuple((x + s) % 8 for x in range(8)) for s in range(8))
    family = HashFamilySpec(shifted, 8)
    for rho in (0.25, 0.5, 1.0):
        res = verify_hashed_mi_bound(joint, family, rho)
        assert res["holds"]
        # f(X) determines X here, so I = H(X) = ln 8 for every member
        assert res["lhs"] == pytest.approx(8**rho)


def test_entropy_bound_rho_zero_and_hand_instance():
    res = verify_hashed_entropy_bound(hand_instance_joint(), hand_instance_family(), 0.0)
    assert res["lhs"] == pytest.approx(1.0)
    assert res["rhs"] == pytest.approx(2.0)
    res = verify_hashed_entropy_bound(hand_instance_joint(), hand_instance_family(), 1.0)
    # H(f(X)|Z) = 0 for the 2 aligned maps, ln 2 for the other 4
    assert res["lhs"] == pytest.approx(2 / 3, abs=1e-12)
    assert res["rhs"] == pytest.approx(1.0, abs=1e-12)
    assert res["holds"]


def test_entropy_bound_constant_hash():
    joint = JointDistribution.dirichlet(4, 3, random.Random(1))
    family = HashFamilySpec(((0, 0, 0, 0),), 1)
    res = verify_hashed_entropy_bound(joint, family, 0.7)
    assert res["lhs"] == pytest.approx(1.0)
    assert res["rhs"] >= 1.0
    assert res["holds"]


def test_bounds_hold_on_random_joints():
    # The verify battery's two families, plus a second one on |X| = 4 so that
    # a joint caches statistics for two families, over the default rho grid.
    # Both bounds hold, and a joint that has cached its family statistics
    # gives the same floats as a fresh joint with the same table.
    rng = random.Random(2)
    families = (
        hand_instance_family(),
        HashFamilySpec.projection_family(
            MultiplexLayout(GF(2), 1, 2, 1, (2, 0)), SubsetIndex({1})
        ),
        HashFamilySpec.projection_family(
            MultiplexLayout(GF(2), 1, 3, 1, (1, 2)), SubsetIndex({1})
        ),
    )
    for nx, n_joints in ((4, 50), (8, 5)):
        same_domain = [fam for fam in families if fam.domain_size == nx]
        for _ in range(n_joints):
            joint = JointDistribution.dirichlet(nx, rng.randrange(2, 9), rng)
            for rho in RHO_GRID:
                for fam in same_domain:
                    mi = verify_hashed_mi_bound(joint, fam, rho)
                    ent = verify_hashed_entropy_bound(joint, fam, rho)
                    assert mi["holds"] and ent["holds"]
                    assert mi == verify_hashed_mi_bound(JointDistribution(joint.probs), fam, rho)
                    assert ent == verify_hashed_entropy_bound(JointDistribution(joint.probs), fam, rho)
            for fam in same_domain:
                assert family_statistics(joint, fam) is family_statistics(joint, fam)


def test_family_statistics_with_repeated_maps_match_per_member_loop():
    # Statistics are computed once per distinct map; the per-member tuples
    # equal, float for float, a loop that recomputes every member.
    def per_member(joint, family):
        pz = joint.marginal_z()
        mis, ents = [], []
        for fmap in family.maps:
            table = [[0.0] * joint.nz for _ in range(family.output_size)]
            for x in range(joint.nx):
                for z in range(joint.nz):
                    table[fmap[x]][z] += joint.probs[x][z]
            ps = [sum(row) for row in table]
            mi = h = 0.0
            for s in range(family.output_size):
                for z in range(joint.nz):
                    p = table[s][z]
                    if p > 0:
                        mi += p * math.log(p / (ps[s] * pz[z]))
                        h -= p * math.log(p / pz[z])
            mis.append(max(mi, 0.0))
            ents.append(max(h, 0.0))
        return tuple(mis), tuple(ents)

    rng = random.Random(11)
    gl32 = HashFamilySpec.projection_family(
        MultiplexLayout(GF(2), 1, 3, 1, (1, 2)), SubsetIndex({1})
    )
    assert len(gl32.maps) == 168 and len(set(gl32.maps)) == 7
    shuffled = list(hand_instance_family().maps) * 3
    rng.shuffle(shuffled)
    families = (gl32, hand_instance_family(), HashFamilySpec(tuple(shuffled), 2))
    for family in families:
        for _ in range(5):
            joint = JointDistribution.dirichlet(family.domain_size, rng.randrange(2, 9), rng)
            mis, ents = per_member(joint, family)
            assert family_statistics(joint, family) == (mis, ents)
            # one exp per distinct statistic, summed in member order: the
            # same floats as one exp per member
            for rho in RHO_GRID:
                lhs_mi = sum(math.exp(rho * mi) for mi in mis) / len(mis)
                lhs_ent = sum(math.exp(-rho * h) for h in ents) / len(ents)
                assert verify_hashed_mi_bound(joint, family, rho)["lhs"] == lhs_mi
                assert verify_hashed_entropy_bound(joint, family, rho)["lhs"] == lhs_ent


def test_conditional_power_mean_computed_once_per_rho(monkeypatch):
    # Both hashing bounds read E[P(X|Z)^rho]; the joint computes it once per
    # rho, with the floats of a fresh computation.
    rng = random.Random(5)
    joint = JointDistribution.dirichlet(4, 3, rng)
    grid = RHO_GRID
    fresh = [JointDistribution(joint.probs).conditional_power_mean(rho) for rho in grid]
    calls = []
    marginal_z = JointDistribution.marginal_z
    monkeypatch.setattr(
        JointDistribution, "marginal_z", lambda self: calls.append(self) or marginal_z(self)
    )
    fam = hand_instance_family()
    for rho in grid:
        verify_hashed_mi_bound(joint, fam, rho)
        verify_hashed_entropy_bound(joint, fam, rho)
    assert [joint.conditional_power_mean(rho) for rho in grid] == fresh
    assert len(calls) == len(grid) + 1  # once per rho, once for the family
    # the marginal itself is computed once per joint
    monkeypatch.undo()
    assert joint.marginal_z() is joint.marginal_z()
    assert joint.marginal_z() == tuple(sum(col) for col in zip(*joint.probs))


def test_projection_family_is_two_universal():
    fam = hand_instance_family()
    ok, worst = fam.is_two_universal()
    assert ok
    from fractions import Fraction

    assert worst == Fraction(1, 3)


def test_rho_outside_range_rejected():
    with pytest.raises(DomainError):
        verify_hashed_mi_bound(hand_instance_joint(), hand_instance_family(), 1.5)


# ---------------------------------------------------------
# bound formulas
# ---------------------------------------------------------

def params_defaults(T):
    return BoundParams.defaults(T)


def test_ub2_values():
    layout = MultiplexLayout(GF(2), 2, 2, 1, (1, 3))
    sub = SubsetIndex({1})
    assert ub2_bound(layout, sub, 1, 1.0) == pytest.approx(1.5)
    layout_full = MultiplexLayout(GF(2), 2, 2, 1, (2, 2))
    assert ub2_bound(layout_full, sub, 1, 1.0) == pytest.approx(2.0)
    # decreasing in m at fixed per-slot rate below n - mu
    prev = None
    for m in (1, 2, 3, 4):
        layout_m = MultiplexLayout(GF(2), m, 3, 1, (m, 2 * m))
        val = ub2_bound(layout_m, sub, 1, 1.0)
        if prev is not None:
            assert val < prev
        prev = val


def test_ub7_pinned_value():
    layout = MultiplexLayout(GF(2), 4, 2, 1, (6, 2))
    sub = SubsetIndex({1})
    params = BoundParams(C1=7, C2=7, rho=1.0)
    want = (1 + math.log(7)) / 4 + 0.5 * math.log(2)
    assert ub7_bound(layout, sub, 1, params) == pytest.approx(want)
    assert want == pytest.approx(1.083, abs=5e-4)


def test_ub7_domain_error_below_rate():
    layout = MultiplexLayout(GF(2), 4, 2, 1, (2, 6))
    with pytest.raises(DomainError):
        ub7_bound(layout, SubsetIndex({1}), 1, params_defaults(1))


def test_bound_values_at_zero_exponent():
    layout = MultiplexLayout(GF(2), 2, 2, 1, (2, 2))
    sub = SubsetIndex({1})
    params = BoundParams(C1=7, C2=9, rho=1.0)
    assert guarantee_probability(1, params.C1) == pytest.approx(5 / 7)
    assert guarantee_probability(1, params.C2) == pytest.approx(7 / 9)
    assert ub5_bound(layout, sub, 1, params) == pytest.approx(7.0)  # exponent 0
    assert ub6_bound(layout, sub, 1, params) == pytest.approx(14.0)
    assert ub8_bound(layout, sub, 1, params) == pytest.approx(63.0)


def test_params_validation():
    with pytest.raises(ValueError):
        BoundParams(C1=2, C2=5).validate_for(1)
    with pytest.raises(ValueError):
        BoundParams(C1=5, C2=5, rho=0.0).validate_for(1)
    assert BoundParams.defaults(2).C1 == 13
    assert BoundParams.for_universal(2, 9).C2 == 55


def test_ub5_decreasing_in_rho_on_grid():
    rng = random.Random(3)
    grid = [round(0.01 * i, 2) for i in range(1, 101)]
    for _ in range(20):
        q = rng.choice((2, 3, 5, 16))
        m = rng.randrange(1, 6)
        n = rng.randrange(2, 5)
        mu = rng.randrange(1, n)
        k1 = rng.randrange(0, m * (n - mu) + 1)
        layout = MultiplexLayout(GF(q), m, n, 1, (k1, m * n - k1))
        C1 = 3 + rng.randrange(0, 20)
        vals = [(r, ub5_bound(layout, SubsetIndex({1}), mu, BoundParams(C1, C1, r))) for r in grid]
        assert rho_grid_argmin(vals) == 1.0


def test_ub7_minimized_at_rho_one():
    rng = random.Random(4)
    grid = [round(0.01 * i, 2) for i in range(1, 101)]
    for _ in range(20):
        q = rng.choice((2, 3, 5))
        m = rng.randrange(1, 6)
        n = rng.randrange(2, 5)
        mu = rng.randrange(1, n)
        k1 = rng.randrange(m * (n - mu), m * n + 1)
        layout = MultiplexLayout(GF(q), m, n, 1, (k1, m * n - k1))
        C1 = 3 + rng.randrange(0, 20)
        vals = [(r, ub7_bound(layout, SubsetIndex({1}), mu, BoundParams(C1, C1, r))) for r in grid]
        assert rho_grid_argmin(vals) == 1.0


# ---------------------------------------------------------
# guarantee experiment
# ---------------------------------------------------------

def test_guarantee_fraction_meets_threshold():
    f = GF(2)
    net = butterfly_network()
    layout = MultiplexLayout(f, 2, 2, 1, (2, 2))
    coding = butterfly_coding(f, 2)
    support = observation_support(EavesdropperModel("traditional", 1), net, coding, layout)
    res = guarantee_experiment(layout, support, 1, BoundParams.defaults(1), random.Random(5), 50)
    p = res["threshold"]
    sigma = math.sqrt(p * (1 - p) / 50)
    assert res["fraction_good"] >= p - 3 * sigma
    assert set(res["per_subset"]) == {"1"}


def test_guarantee_all_good_when_observations_are_zero():
    # Dead coding: every tap set yields the zero matrix, so every map is good.
    from muxnet import LocalCoding

    f = GF(2)
    net = butterfly_network()
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    coding = LocalCoding.constant(f, 2, {l.id: {} for l in net.links}, 1)
    support = observation_support(EavesdropperModel("traditional", 1), net, coding, layout)
    res = guarantee_experiment(layout, support, 1, BoundParams.defaults(1), random.Random(9), 15)
    assert res["fraction_good"] == 1.0


def test_guarantee_vacuous_with_huge_c1():
    f = GF(2)
    net = butterfly_network()
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    coding = butterfly_coding(f, 1)
    support = observation_support(EavesdropperModel("traditional", 1), net, coding, layout)
    res = guarantee_experiment(layout, support, 1, BoundParams(C1=1e9, C2=1e9), random.Random(6), 20)
    assert res["fraction_good"] == 1.0


def test_guarantee_rejects_zero_trials_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("leakage was averaged before L_trials was checked")

    f = GF(2)
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    support = observation_support(
        EavesdropperModel("traditional", 1), butterfly_network(), butterfly_coding(f, 1), layout
    )
    monkeypatch.setattr("muxnet.bounds.average_over_support", no_work)
    with pytest.raises(ValueError, match="L_trials must be at least 1"):
        guarantee_experiment(layout, support, 1, BoundParams.defaults(1), random.Random(0), 0)


# ---------------------------------------------------------
# universal-zero certification
# ---------------------------------------------------------

def test_certify_reports_worst_case_and_gate():
    f = GF(2)
    net = butterfly_network()
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    coding = butterfly_coding(f, 1)
    params = BoundParams.for_universal(1, 9)
    swap = FieldMatrix(f, [[0, 1], [1, 0]])
    observations = constant_tap_observations(net, coding, 1, layout)
    res = certify_universal_zero(layout, observations, 1, params, swap)
    # ub8 >= C1 C2 q^0 > ln 2: no subset can be gated at this rate
    assert res["gated_subsets"] == []
    assert res["certified"]
    # the report still carries the exact worst-case leakage
    wc = worst_case_leakage(layout, swap, observations, [SubsetIndex({1})])["1"]
    assert res["worst_case_nats"]["1"] == pytest.approx(wc["max_nats"])


def test_certify_gated_subset_flags_nonzero_leakage():
    # A low-rate subset (k_I < m(n - mu)) drives ub8 under ln q at m = 6,
    # so the subset becomes gated; a map leaking in the worst case must
    # then fail certification with a witness.
    f = GF(2)
    net = butterfly_network()
    m = 6
    layout = MultiplexLayout(f, m, 2, 1, (1, 2 * m - 1))
    coding = butterfly_coding(f, m)
    params = BoundParams(C1=3, C2=3, rho=1.0)
    # gate: 9 * 2^(1 - 6) = 0.28... < ln 2
    assert ub8_bound(layout, SubsetIndex({1}), 1, params) < math.log(2)

    # tap e1 observes exactly the even coordinates, so with L = identity the
    # first coordinate of the posterior kernel is pinned to zero: leakage ln 2
    ident = FieldMatrix.identity(f, layout.mn)
    observations = constant_tap_observations(net, coding, 1, layout)
    res = certify_universal_zero(layout, observations, 1, params, ident)
    assert res["gated_subsets"] == ["1"]
    assert not res["certified"]
    subset_label, tap_set = res["witness"]
    assert subset_label == "1" and len(tap_set) == 1
    assert res["worst_case_nats"]["1"] == pytest.approx(LN2)

    rng = random.Random(7)
    seen_certified = False
    for _ in range(10):
        L = sample_gl(layout.mn, f, rng)
        out = certify_universal_zero(layout, observations, 1, params, L)
        if out["certified"]:
            assert out["worst_case_nats"]["1"] == 0.0
            seen_certified = True
    assert seen_certified


def test_certify_monotone_in_constants():
    # Shrinking C1*C2 only adds gated subsets; an all-zero map stays certified.
    f = GF(2)
    net = butterfly_network()
    m = 6
    layout = MultiplexLayout(f, m, 2, 1, (1, 2 * m - 1))
    observations = constant_tap_observations(net, butterfly_coding(f, m), 1, layout)
    rng = random.Random(8)
    zero_maps = []
    while len(zero_maps) < 3:
        L = sample_gl(layout.mn, f, rng)
        res = certify_universal_zero(layout, observations, 1, BoundParams(C1=3, C2=3), L)
        if res["worst_case_nats"]["1"] == 0.0:
            zero_maps.append(L)
    for L in zero_maps:
        loose = certify_universal_zero(layout, observations, 1, BoundParams(C1=5, C2=5), L)
        tight = certify_universal_zero(layout, observations, 1, BoundParams(C1=3, C2=3), L)
        assert loose["certified"] and tight["certified"]


# ---------------------------------------------------------
# T = 2 reference: worst case, witness and guarantee from exact_leakage
# ---------------------------------------------------------

@pytest.mark.parametrize("mu", [1, 2])
@pytest.mark.parametrize("name", ["butterfly", "parallel"])
def test_multi_subset_results_match_exact_leakage_reference(name, mu):
    # At mu = 1 ub8 gates the single-message subsets (and 1+2 on the
    # parallel network), and permutation maps leak, so witnesses occur.
    f = GF(4)
    if name == "butterfly":
        layout = MultiplexLayout(f, 4, 2, 2, (1, 1, 6))
        net, coding = butterfly_network(), butterfly_coding(f, 4)
    else:
        layout = MultiplexLayout(f, 3, 3, 2, (2, 1, 6))
        net, coding = parallel_network(3), parallel_coding(f, 3, 3)
    params = BoundParams(C1=6.5, C2=6.5)
    subsets = all_nonempty_subsets(2)
    taps = enumerate_eavesdropper_sets(net, mu)
    mats = [eavesdrop_matrix(net, coding, [s] * layout.m, layout) for s in taps]

    def leaks(L, sub):
        return [exact_leakage(layout, L, B, sub).nats for B in mats]

    observations = constant_tap_observations(net, coding, mu, layout)
    rng = random.Random(4)
    witnesses = 0
    for i in range(8):
        if i % 2:
            L = sample_gl(layout.mn, f, rng)
        else:
            perm = list(range(layout.mn))
            rng.shuffle(perm)
            L = FieldMatrix(f, [[int(c == p) for c in range(layout.mn)] for p in perm])
        res = certify_universal_zero(layout, observations, mu, params, L)
        witness = None
        for sub in subsets:
            per_set = leaks(L, sub)
            worst = max(per_set)
            assert res["worst_case_nats"][sub.label] == worst
            gated = ub8_bound(layout, sub, mu, params) < math.log(layout.q)
            if witness is None and gated and worst > 0.0:
                witness = (sub.label, taps[per_set.index(worst)])
        assert res["witness"] == witness
        witnesses += witness is not None
    assert (witnesses > 0) == (mu == 1)

    trials = 40
    support = observation_support(EavesdropperModel("traditional", mu), net, coding, layout)
    res = guarantee_experiment(layout, support, mu, params, random.Random(3), trials)
    rng = random.Random(3)
    good = {sub.label: 0 for sub in subsets}
    all_good = 0
    for _ in range(trials):
        L = sample_gl(layout.mn, f, rng)
        ok = True
        for sub in subsets:
            per_set = leaks(L, sub)
            mean = sum(per_set) / len(per_set)
            mean_exp = sum(math.exp(params.rho * x) for x in per_set) / len(per_set)
            if (
                mean <= ub5_bound(layout, sub, mu, params) + 1e-12
                and mean_exp <= ub6_bound(layout, sub, mu, params) + 1e-12
            ):
                good[sub.label] += 1
            else:
                ok = False
        all_good += ok
    fractions = {label: stats["fraction"] for label, stats in res["per_subset"].items()}
    assert fractions == {label: n / trials for label, n in good.items()}
    assert res["fraction_good"] == all_good / trials
    if mu == 1:
        assert min(fractions.values()) < 1.0  # the bounds bite on these maps


# ---------------------------------------------------------
# capacity region and floors
# ---------------------------------------------------------

def test_capacity_membership_examples():
    assert capacity_membership((1.5, 0.5), 2)
    assert not capacity_membership((2.5, 0.0), 2)
    assert capacity_membership((0.0, 0.0), 2)
    assert not capacity_membership((3.0,), 2)
    assert not capacity_membership((-0.1, 1.0), 2)


def test_rate_leakage_floor_values():
    assert rate_leakage_floor((1.0, 1.0), {1, 2}, 2, 1) == pytest.approx(1.0)
    assert rate_leakage_floor((0.5, 0.4), {1, 2}, 2, 1) == 0.0
    assert rate_leakage_floor((0.5, 0.4), {1}, 2, 1) == 0.0


def test_leakage_floor_pinned():
    layout = MultiplexLayout(GF(2), 4, 2, 1, (6, 2))
    assert leakage_floor(layout, SubsetIndex({1}), 4) == pytest.approx(2 * LN2)
    low = MultiplexLayout(GF(2), 4, 2, 1, (4, 4))
    assert leakage_floor(low, SubsetIndex({1}), 4) == 0.0
    assert leakage_floor(layout, SubsetIndex({1}), 8) == pytest.approx(6 * LN2)
