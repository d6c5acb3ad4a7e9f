"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import math
import time

import pytest

from muxnet import (
    GF,
    BoundParams,
    EavesdropperModel,
    FieldMatrix,
    JointDistribution,
    MessageTuple,
    MultiplexLayout,
    SubsetIndex,
    all_nonempty_subsets,
    brute_force_leakage,
    butterfly_coding,
    butterfly_network,
    certify_universal_zero,
    constant_tap_observations,
    decode,
    encode,
    enumerate_gl,
    exact_leakage,
    guarantee_experiment,
    hash_collision_probability,
    leakage_floor,
    observation_support,
    random_matrix,
    sample_gl,
    ub5_bound,
    ub7_bound,
    ub8_bound,
    verify_hashed_entropy_bound,
    verify_hashed_mi_bound,
    worst_case_leakage,
)
from muxnet.bounds import rho_grid_argmin
from muxnet.leakage import leakage_profile
from muxnet.network import parallel_coding, parallel_network
from muxnet.rng import derive_rng
from muxnet.verification import hand_instance_family, hand_instance_joint

SEED = 20210907
LN2 = math.log(2)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# Shared oracle suite (criteria 1, 4, 8)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_suite():
    """q=2, mn in {2,3,4}: per shape (rows x mn) 50 random B; map pools of
    all 6 GL(2,2) members at mn=2 and 100 random samples at mn in {3,4}."""
    rng = derive_rng(SEED, "acceptance:oracle")
    f = GF(2)
    suite = []
    for layout in (
        MultiplexLayout(f, 1, 2, 1, (1, 1)),
        MultiplexLayout(f, 1, 3, 1, (2, 1)),
        MultiplexLayout(f, 2, 2, 2, (1, 2, 1)),
    ):
        mn = layout.mn
        if mn == 2:
            pool = enumerate_gl(mn, f)
        else:
            pool = [sample_gl(mn, f, rng) for _ in range(100)]
        shapes = {
            rows: [random_matrix(f, rows, mn, rng) for _ in range(50)]
            for rows in range(1, mn + 1)
        }
        suite.append((layout, pool, shapes))
    return suite


def test_criterion_01_oracle_equivalence(oracle_suite):
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    for layout, pool, shapes in oracle_suite:
        subsets = all_nonempty_subsets(layout.T)
        bs = [B for group in shapes.values() for B in group]
        oracles = brute_force_leakage(layout, pool, bs, subsets)
        for j, B in enumerate(bs):
            for L, by_b in zip(pool, oracles, strict=True):
                profile = leakage_profile(layout, L, B, subsets)
                for sub in subsets:
                    bf = by_b[j][sub.label]
                    worst = max(worst, abs(profile[sub.label].nats - bf))
                    count += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    report(
        1,
        ok,
        f"oracle equivalence: max |exact - brute| = {worst:.2e} nats over "
        f"{count} instances in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_two_universality():
    t0 = time.monotonic()
    from fractions import Fraction

    checked = 0
    violations = 0
    for q in (2, 3):
        f = GF(q)
        for mn in (1, 2, 3, 4):
            for T in range(1, mn + 1):
                for cuts in itertools.combinations(range(mn + T), T):
                    parts, prev = [], -1
                    for c in cuts:
                        parts.append(c - prev - 1)
                        prev = c
                    parts.append(mn + T - 1 - prev)
                    layout = MultiplexLayout(f, 1, mn, T, tuple(parts))
                    for sub in all_nonempty_subsets(T):
                        p = hash_collision_probability(layout, sub)
                        k_sub = layout.subset_length(sub)
                        if p > Fraction(1, q**k_sub):
                            violations += 1
                        checked += 1
    pinned = hash_collision_probability(
        MultiplexLayout(GF(2), 1, 2, 1, (1, 1)), SubsetIndex({1})
    )
    elapsed = time.monotonic() - t0
    ok = violations == 0 and pinned == Fraction(1, 3) and elapsed < 30.0
    report(
        2,
        ok,
        f"two-universality exact on {checked} layout/subset pairs, pinned "
        f"instance = {pinned} (= 1/3), in {elapsed:.1f}s (< 30s)",
    )


def test_criterion_03_hashing_inequalities():
    t0 = time.monotonic()
    rng = derive_rng(SEED, "acceptance:joints")
    family = hand_instance_family()
    rho_grid = [round(0.1 * i, 1) for i in range(1, 11)]
    worst_excess = -math.inf
    checks = 0
    for _ in range(1000):
        nz = rng.randrange(2, 9)
        joint = JointDistribution.dirichlet(4, nz, rng)
        for rho in rho_grid:
            r1 = verify_hashed_mi_bound(joint, family, rho)
            r2 = verify_hashed_entropy_bound(joint, family, rho)
            worst_excess = max(
                worst_excess, r1["lhs"] - r1["rhs"], r2["lhs"] - r2["rhs"]
            )
            checks += 2
    hand = verify_hashed_mi_bound(hand_instance_joint(), family, 1.0)
    hand_ok = abs(hand["lhs"] - 4 / 3) <= 1e-12 and abs(hand["rhs"] - 2.0) <= 1e-12
    elapsed = time.monotonic() - t0
    ok = worst_excess <= 1e-12 and hand_ok and elapsed < 120.0
    report(
        3,
        ok,
        f"hashing bounds hold on {checks} joint/rho checks "
        f"(max lhs-rhs = {worst_excess:.2e}); hand instance lhs = {hand['lhs']:.12f}, "
        f"rhs = {hand['rhs']}; {elapsed:.1f}s (< 120s)",
    )


def test_criterion_04_quantization_and_exact_zero(oracle_suite):
    worst_residue = 0.0
    count = 0
    for layout, pool, shapes in oracle_suite:
        lnq = math.log(layout.q)
        subsets = all_nonempty_subsets(layout.T)
        for rows, bs in shapes.items():
            for B in bs[:10]:
                for L in pool[:6]:
                    for sub in subsets:
                        nats = exact_leakage(layout, L, B, sub).nats
                        worst_residue = max(
                            worst_residue, abs(nats / lnq - round(nats / lnq))
                        )
                        count += 1
    f = GF(2)
    layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
    B = FieldMatrix(f, [[1, 0]])
    sub = SubsetIndex({1})
    ident_nats = exact_leakage(layout, FieldMatrix.identity(f, 2), B, sub).nats
    swap_nats = exact_leakage(layout, FieldMatrix(f, [[0, 1], [1, 0]]), B, sub).nats
    ok = worst_residue == 0.0 and ident_nats == LN2 and swap_nats == 0.0
    report(
        4,
        ok,
        f"leakage quantized to multiples of ln q on {count} instances "
        f"(max residue {worst_residue}); single-tap pinned case: identity -> ln 2, "
        f"swap -> 0",
    )


def test_criterion_05_universal_security():
    t0 = time.monotonic()
    f = GF(16)
    net = butterfly_network()
    layout = MultiplexLayout(f, 3, 2, 2, (2, 2, 2))
    coding = butterfly_coding(f, 3)
    params = BoundParams(C1=13, C2=55)
    lnq = math.log(16)
    singles = [SubsetIndex({1}), SubsetIndex({2})]
    gate_active = all(ub8_bound(layout, s, 1, params) < lnq for s in singles)
    rng = derive_rng(SEED, "acceptance:universal")
    observations = constant_tap_observations(net, coding, 1, layout)
    certified = 0
    zero_singletons = 0
    for _ in range(50):
        L = sample_gl(layout.mn, f, rng)
        res = certify_universal_zero(layout, observations, 1, params, L)
        certified += res["certified"]
        if all(res["worst_case_nats"][s.label] == 0.0 for s in singles):
            zero_singletons += 1
    p = 1 - 2 * (2**2 - 1) / params.C1
    sigma = math.sqrt(p * (1 - p) / 50)
    threshold = p - 3 * sigma
    elapsed = time.monotonic() - t0
    # With any valid C1, C2 the singleton ub8 here is C1*C2/16 > ln 16, so the
    # gate cannot activate and certification holds vacuously; the zero-leakage
    # fraction is the non-vacuous face of the same claim and must also clear
    # the guarantee threshold.
    gate_clause = (certified >= 1) if gate_active else True
    ok = (
        gate_clause
        and certified / 50 >= threshold
        and zero_singletons / 50 >= threshold
        and elapsed < 60.0
    )
    report(
        5,
        ok,
        f"universal security: gate active = {gate_active}, certified "
        f"{certified}/50, exact-zero singletons {zero_singletons}/50, "
        f"threshold {threshold:.3f}; {elapsed:.1f}s (< 60s)",
    )


def test_criterion_06_guarantee_probability():
    f = GF(2)
    net = butterfly_network()
    results = []
    for T, m, k in ((1, 2, (2, 2)), (2, 3, (2, 2, 2))):
        layout = MultiplexLayout(f, m, 2, T, k)
        coding = butterfly_coding(f, m)
        params = BoundParams.defaults(T)
        res = guarantee_experiment(
            layout,
            observation_support(EavesdropperModel("traditional", 1), net, coding, layout),
            1,
            params,
            derive_rng(SEED, f"acceptance:guarantee:{T}"),
            200,
        )
        p = res["threshold"]
        sigma = math.sqrt(p * (1 - p) / 200)
        results.append((T, res["fraction_good"], p - 3 * sigma))
    ok = all(frac >= bound for _, frac, bound in results)
    detail = ", ".join(
        f"T={T}: fraction {frac:.3f} >= {bound:.3f}" for T, frac, bound in results
    )
    report(6, ok, f"guarantee probability over 200 maps: {detail}")


def test_criterion_07_exponential_decay():
    # n = 3, mu = 1, per-slot secret size n - mu - 1 = 1, so k_I = m and the
    # single-pair bound contracts by exactly q^-rho per added slot.
    f = GF(4)
    net = parallel_network(3)
    params = BoundParams(C1=5, C2=5, rho=1.0)
    sub = SubsetIndex({1})
    rows = []
    for m in range(1, 6):
        layout = MultiplexLayout(f, m, 3, 1, (m, 2 * m))
        coding = parallel_coding(f, 3, m)
        L = sample_gl(layout.mn, f, derive_rng(SEED, f"acceptance:decay:{m}"))
        observations = constant_tap_observations(net, coding, 1, layout)
        wc = worst_case_leakage(layout, L, observations, [sub])[sub.label]["max_nats"]
        rows.append((m, wc, ub8_bound(layout, sub, 1, params)))
    dominated = all(wc <= bound + 1e-12 for _, wc, bound in rows)
    ratios_exact = all(
        abs(rows[i + 1][2] / rows[i][2] - 1 / 4) <= 1e-12 for i in range(len(rows) - 1)
    )
    decreasing = all(rows[i + 1][2] < rows[i][2] for i in range(len(rows) - 1))
    ok = dominated and ratios_exact and decreasing
    detail = "; ".join(f"m={m}: leak {wc:.3f} <= ub8 {b:.4f}" for m, wc, b in rows)
    report(7, ok, f"decay sweep dominated rowwise, ub8 ratio exactly q^-rho: {detail}")


def test_criterion_08_leakage_floor(oracle_suite):
    t0 = time.monotonic()
    checked = 0
    floor_violations = 0
    equality_misses = 0
    for layout, pool, shapes in oracle_suite:
        subsets = all_nonempty_subsets(layout.T)
        for rows, bs in shapes.items():
            for B in bs:
                if B.rank() != rows:
                    continue
                for sub in subsets:
                    floor = leakage_floor(layout, sub, rows)
                    seen_equality = False
                    for L in pool:
                        nats = exact_leakage(layout, L, B, sub).nats
                        if nats < floor - 1e-12:
                            floor_violations += 1
                        if abs(nats - floor) <= 1e-12:
                            seen_equality = True
                    if not seen_equality:
                        equality_misses += 1
                    checked += 1
    elapsed = time.monotonic() - t0
    ok = floor_violations == 0 and equality_misses == 0
    report(
        8,
        ok,
        f"converse floor respected on {checked} full-rank instances "
        f"({floor_violations} violations), equality achieved by some map in "
        f"every instance ({equality_misses} misses); {elapsed:.1f}s",
    )


def test_criterion_09_rho_optimality():
    rng = derive_rng(SEED, "acceptance:rho")
    grid = [round(0.01 * i, 2) for i in range(1, 101)]
    bad = 0
    for _ in range(20):
        q = rng.choice((2, 3, 4, 5, 16))
        m = rng.randrange(1, 7)
        n = rng.randrange(2, 5)
        mu = rng.randrange(1, n)
        C1 = 3 + rng.randrange(0, 30)
        C2 = 3 + rng.randrange(0, 30)
        sub = SubsetIndex({1})
        k_low = rng.randrange(0, m * (n - mu) + 1)
        low = MultiplexLayout(GF(q), m, n, 1, (k_low, m * n - k_low))
        vals5 = [(r, ub5_bound(low, sub, mu, BoundParams(C1, C2, r))) for r in grid]
        k_high = rng.randrange(m * (n - mu), m * n + 1)
        high = MultiplexLayout(GF(q), m, n, 1, (k_high, m * n - k_high))
        vals7 = [(r, ub7_bound(high, sub, mu, BoundParams(C1, C2, r))) for r in grid]
        if rho_grid_argmin(vals5) != 1.0 or rho_grid_argmin(vals7) != 1.0:
            bad += 1
    report(
        9,
        bad == 0,
        f"grid argmin over rho in (0.01..1.00) equals 1 for both bounds on "
        f"20 random parameterizations ({bad} failures)",
    )


def test_criterion_10_zero_error_decoding():
    t0 = time.monotonic()
    rng = derive_rng(SEED, "acceptance:roundtrip")
    q_values = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81, 101, 128, 251, 256)
    per_q = 5000
    mismatches = 0
    for q in q_values:
        f = GF(q)
        layout = MultiplexLayout(f, 2, 2, 2, (1, 2, 1))
        for _ in range(per_q):
            L = sample_gl(layout.mn, f, rng)
            msgs = MessageTuple.random(layout, rng)
            if decode(layout, L, encode(layout, L, msgs)) != msgs:
                mismatches += 1
    total = per_q * len(q_values)
    elapsed = time.monotonic() - t0
    report(
        10,
        mismatches == 0,
        f"decode(encode(.)) identity on {total} random (L, msgs) pairs across "
        f"{len(q_values)} fields ({mismatches} mismatches); {elapsed:.1f}s",
    )
