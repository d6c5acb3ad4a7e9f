"""Built-in verification battery behind the `verify` command.

Each check replays one of the library's stated invariants on exhaustive or
seeded-random instances and reports a (lhs, rhs, holds) row.  Every size
and tolerance is fixed, so the seed alone names a report.  The README maps
every module invariant to its check id here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .bounds import (
    REAL_TOLERANCE,
    BoundParams,
    HashFamilySpec,
    JointDistribution,
    capacity_membership,
    certify_universal_zero,
    guarantee_experiment,
    leakage_floor,
    rho_grid_argmin,
    ub5_bound,
    ub7_bound,
    verify_hashed_entropy_bound,
    verify_hashed_mi_bound,
)
from .fields import GF, _factor_prime_power
from .leakage import brute_force_leakage, leakage_profile
from .matrix import FieldMatrix, enumerate_gl, random_matrix, sample_gl
from .multiplex import (
    MessageTuple,
    MultiplexLayout,
    SubsetIndex,
    _ordered_sum,
    _Record,
    all_nonempty_subsets,
    decode,
    encode,
    hash_collision_probability,
    iter_message_vectors,
    projection_matrix,
)
from .network import (
    EavesdropperModel,
    LocalCoding,
    butterfly_coding,
    butterfly_network,
    check_decodability,
    constant_tap_observations,
    eavesdrop_matrix,
    enumerate_eavesdropper_sets,
    global_coding_vectors,
    observation_basis,
    observation_support,
)
from .rng import derive_rng


class CheckResult(_Record):
    __slots__ = _fields = ("check", "instance", "lhs", "rhs", "holds")
    __hash__ = None  # mutable

    def __init__(self, check: str, instance: str, lhs: float, rhs: float, holds: bool):
        self._set_fields(check, instance, lhs, rhs, holds)

    def to_json(self) -> dict:
        return dict(zip(self._fields, self._values()))


# The rho values at which the hashing inequalities are checked.
RHO_GRID = tuple(round(0.1 * i, 1) for i in range(1, 11))


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def _check_field_axioms(seed: int) -> list[CheckResult]:
    out = []
    for q in (2, 3, 4, 5, 8, 9):
        f = GF(q)
        elems = list(f.elements())
        bad = 0
        for a in elems:
            for b in elems:
                if f.add(a, b) != f.add(b, a) or f.mul(a, b) != f.mul(b, a):
                    bad += 1
                for c in elems:
                    if f.add(f.add(a, b), c) != f.add(a, f.add(b, c)):
                        bad += 1
                    if f.mul(f.mul(a, b), c) != f.mul(a, f.mul(b, c)):
                        bad += 1
                    if f.mul(a, f.add(b, c)) != f.add(f.mul(a, b), f.mul(a, c)):
                        bad += 1
        out.append(CheckResult("field_axioms", f"GF({q})", bad, 0, bad == 0))
    return out


def _prime_powers(limit: int) -> list[int]:
    out = []
    for q in range(2, limit + 1):
        try:
            _factor_prime_power(q)
            out.append(q)
        except ValueError:
            continue
    return out


def _check_field_inverses(seed: int) -> list[CheckResult]:
    bad = 0
    count = 0
    for q in _prime_powers(256):
        f = GF(q)
        for a in range(1, q):
            count += 1
            if f.mul(a, f.inv(a)) != 1:
                bad += 1
    return [CheckResult("field_inverse_exhaustive", f"all prime powers <= 256 ({count} elements)", bad, 0, bad == 0)]


def _check_rank_nullity(seed: int) -> list[CheckResult]:
    rng = derive_rng(seed, "verify:rank_nullity")
    bad = 0
    trials = 0
    for q in (2, 3, 4, 9):
        f = GF(q)
        for _ in range(60):
            r = rng.randrange(1, 6)
            c = rng.randrange(1, 6)
            M = random_matrix(f, r, c, rng)
            trials += 1
            if M.rank() + M.kernel().ncols != c:
                bad += 1
    return [CheckResult("matrix_rank_nullity", f"{trials} random matrices", bad, 0, bad == 0)]


def _check_inverse_roundtrip(seed: int) -> list[CheckResult]:
    rng = derive_rng(seed, "verify:inverse_roundtrip")
    bad = 0
    for q in (2, 3, 5, 16):
        f = GF(q)
        for _ in range(40):
            n = rng.randrange(1, 6)
            M = sample_gl(n, f, rng)
            Minv = M.inverse()
            eye = FieldMatrix.identity(f, n)
            if M @ Minv != eye or Minv @ M != eye:
                bad += 1
    return [CheckResult("matrix_inverse_roundtrip", "160 sampled invertible matrices", bad, 0, bad == 0)]


def _check_gl_uniformity(seed: int) -> list[CheckResult]:
    rng = derive_rng(seed, "verify:gl_uniformity")
    f = GF(2)
    counts: dict[tuple, int] = {}
    n = 6000
    for _ in range(n):
        key = sample_gl(2, f, rng).as_tuples()
        counts[key] = counts.get(key, 0) + 1
    members = enumerate_gl(2, f)
    expected = n / len(members)
    chi2 = _ordered_sum(
        (counts.get(m.as_tuples(), 0) - expected) ** 2 / expected for m in members
    )
    crit = 20.515  # chi-square df=5, alpha=0.001
    return [
        CheckResult("gl_sampler_support", f"{len(counts)} of 6 outcomes seen", len(counts), 6, len(counts) == 6),
        CheckResult("gl_sampler_chi2", f"{n} samples of GL(2,2)", chi2, crit, chi2 <= crit),
    ]


def _enumerate_layouts(q: int, mn: int) -> list[MultiplexLayout]:
    """All block layouts with the given total size, T from 1 to mn."""
    f = GF(q)
    out = []
    for T in range(1, mn + 1):
        for cuts in itertools.combinations(range(mn + T), T):
            # stars and bars over T+1 nonnegative parts summing to mn
            parts = []
            prev = -1
            for c in cuts:
                parts.append(c - prev - 1)
                prev = c
            parts.append(mn + T - 1 - prev)
            out.append(MultiplexLayout(f, 1, mn, T, tuple(parts)))
    return out


def _check_two_universal(seed: int) -> list[CheckResult]:
    violations = 0
    worst_num, worst_den = -1, 1  # the largest excess p - q^-k so far
    instances = 0
    sizes = (1, 2, 3, 4)
    subsets_of = {T: all_nonempty_subsets(T) for T in range(1, max(sizes) + 1)}  # T <= mn
    for q in (2, 3):
        for mn in sizes:
            for layout in _enumerate_layouts(q, mn):
                for sub in subsets_of[layout.T]:
                    p = hash_collision_probability(layout, sub)
                    # p - q^-k = (a q^k - b) / (b q^k) for p = a/b: exact
                    # integer comparisons, no Fraction per instance
                    qk = q ** layout.subset_length(sub)
                    num, den = p.numerator * qk - p.denominator, p.denominator * qk
                    instances += 1
                    if num > 0:
                        violations += 1
                    if num * worst_den > worst_num * den:
                        worst_num, worst_den = num, den
    worst_excess = Fraction(worst_num, worst_den)
    f2 = GF(2)
    pinned = hash_collision_probability(
        MultiplexLayout(f2, 1, 2, 1, (1, 1)), SubsetIndex({1})
    )
    return [
        CheckResult("two_universal_bound", f"{instances} layout/subset pairs, worst excess {worst_excess}", violations, 0, violations == 0),
        CheckResult("two_universal_pinned", "q=2 k=(1,1) I={1}", float(pinned), 1 / 3, pinned == Fraction(1, 3)),
    ]


def _check_encode_decode(seed: int) -> list[CheckResult]:
    rng = derive_rng(seed, "verify:encode_decode")
    out = []
    bad_bij = 0
    for q, mn, k in ((2, 2, (1, 1)), (2, 4, (1, 2, 1)), (3, 3, (2, 1))):
        f = GF(q)
        layout = MultiplexLayout(f, 1, mn, len(k) - 1, k)
        L = sample_gl(mn, f, rng)
        images = set()
        for vec in iter_message_vectors(layout):
            msgs = MessageTuple.from_vector(layout, vec)
            images.add(tuple(encode(layout, L, msgs)))
        if len(images) != q**mn:
            bad_bij += 1
    out.append(CheckResult("encode_bijection", "3 exhaustive layouts", bad_bij, 0, bad_bij == 0))

    bad_rt = 0
    for _ in range(200):
        q = rng.choice((2, 3, 4, 5, 9, 16))
        f = GF(q)
        m = rng.randrange(1, 3)
        n = rng.randrange(1, 4)
        k1 = rng.randrange(0, m * n + 1)
        layout = MultiplexLayout(f, m, n, 1, (k1, m * n - k1))
        L = sample_gl(layout.mn, f, rng)
        msgs = MessageTuple.random(layout, rng)
        if decode(layout, L, encode(layout, L, msgs)) != msgs:
            bad_rt += 1
    out.append(CheckResult("decode_roundtrip", "200 random (L, msgs)", bad_rt, 0, bad_rt == 0))

    bad_lin = 0
    f = GF(5)
    layout = MultiplexLayout(f, 1, 4, 2, (1, 2, 1))
    for _ in range(100):
        L = sample_gl(4, f, rng)
        m1 = MessageTuple.random(layout, rng)
        m2 = MessageTuple.random(layout, rng)
        a = f.rand(rng)
        combo = MessageTuple.from_vector(
            layout,
            [f.add(f.mul(a, x), y) for x, y in zip(m1.concat(), m2.concat())],
        )
        lhs = encode(layout, L, combo)
        rhs = [
            f.add(f.mul(a, x), y)
            for x, y in zip(encode(layout, L, m1), encode(layout, L, m2))
        ]
        if lhs != rhs:
            bad_lin += 1
    out.append(CheckResult("encode_linearity", "100 random combinations", bad_lin, 0, bad_lin == 0))
    return out


def _check_projection(seed: int) -> list[CheckResult]:
    rng = derive_rng(seed, "verify:projection")
    bad = 0
    for _ in range(50):
        q = rng.choice((2, 3, 5))
        f = GF(q)
        layout = MultiplexLayout(f, 1, 5, 2, (2, 1, 2))
        msgs = MessageTuple.random(layout, rng)
        sub = rng.choice(all_nonempty_subsets(2))
        P = projection_matrix(layout, sub)
        want = [v for i in sorted(sub.members) for v in msgs.blocks[i - 1]]
        if P.mul_vector(msgs.concat()) != want:
            bad += 1
    return [CheckResult("projection_extracts", "50 random layouts/subsets", bad, 0, bad == 0)]


def _check_butterfly(seed: int) -> list[CheckResult]:
    out = []
    f = GF(2)
    net = butterfly_network()
    coding = butterfly_coding(f, 1)
    vecs = global_coding_vectors(net, coding, 0)
    out.append(
        CheckResult(
            "butterfly_bottleneck",
            "e7 global vector",
            float(vecs["e7"] == (1, 1)),
            1.0,
            vecs["e7"] == (1, 1),
        )
    )
    dec = all(check_decodability(net, coding, t, 0) for t in ("t1", "t2"))
    out.append(CheckResult("butterfly_decodable", "both sinks", float(dec), 1.0, dec))

    layout = MultiplexLayout(f, 2, 2, 1, (2, 2))
    coding2 = butterfly_coding(f, 2)
    B = eavesdrop_matrix(net, coding2, [("e7",), ("e7",)], layout)
    expect = FieldMatrix(f, [[1, 1, 0, 0], [0, 0, 1, 1]])
    out.append(
        CheckResult(
            "eavesdrop_block_structure",
            "constant tap on e7, m=2",
            float(B == expect),
            1.0,
            B == expect,
        )
    )
    rng = derive_rng(seed, "verify:eavesdrop_rank")
    bad = 0
    sets = enumerate_eavesdropper_sets(net, 2)
    for _ in range(40):
        slots = [sets[rng.randrange(len(sets))] for _ in range(layout.m)]
        if eavesdrop_matrix(net, coding2, slots, layout).rank() > 2 * layout.m:
            bad += 1
    out.append(CheckResult("eavesdrop_rank_bound", "40 random tap schedules", bad, 0, bad == 0))

    bad = 0
    f3 = GF(3)
    for _ in range(10):
        coding3 = LocalCoding.random(net, f3, 2, 1, rng)
        gv = global_coding_vectors(net, coding3, 0)
        M = FieldMatrix(f3, [list(gv[l.id]) for l in net.in_links("t1")])
        A = sample_gl(M.nrows, f3, rng)
        if (A @ M).rank() != M.rank():
            bad += 1
    out.append(
        CheckResult("decodability_invariant", "10 random codings, invertible remix", bad, 0, bad == 0)
    )

    c_a = LocalCoding.random(net, f3, 2, 2, derive_rng(seed, "verify:coding"))
    c_b = LocalCoding.random(net, f3, 2, 2, derive_rng(seed, "verify:coding"))
    same = c_a.slot_maps == c_b.slot_maps and global_coding_vectors(
        net, c_a, 1
    ) == global_coding_vectors(net, c_b, 1)
    out.append(CheckResult("coding_deterministic", "same seed, same vectors", float(same), 1.0, same))
    return out


def _check_oracle_equivalence(seed: int) -> list[CheckResult]:
    rng = derive_rng(seed, "verify:oracle")
    f = GF(2)
    layouts = (
        MultiplexLayout(f, 1, 2, 1, (1, 1)),
        MultiplexLayout(f, 1, 3, 1, (2, 1)),
        MultiplexLayout(f, 2, 2, 2, (1, 2, 1)),
    )
    tol = 1e-9
    worst = 0.0
    quant_worst = 0.0
    floor_margin = math.inf
    instances = 0
    for layout in layouts:
        mn = layout.mn
        if mn == 2:
            l_pool = enumerate_gl(mn, f)
        else:
            l_pool = [sample_gl(mn, f, rng) for _ in range(12)]
        subsets = all_nonempty_subsets(layout.T)
        lnq = math.log(layout.q)
        bs = [random_matrix(f, rows, mn, rng) for rows in range(1, mn + 1) for _ in range(8)]
        oracles = brute_force_leakage(layout, l_pool, bs, subsets)
        for j, B in enumerate(bs):
            basis = observation_basis(layout, B)
            rank_b = len(basis.pivots)
            floors = {sub.label: leakage_floor(layout, sub, rank_b) for sub in subsets}
            for L, by_b in zip(l_pool, oracles, strict=True):
                oracle = by_b[j]
                profile = leakage_profile(layout, L, basis, subsets)
                for label, res in profile.items():
                    worst = max(worst, abs(res.nats - oracle[label]))
                    quant = abs(res.nats / lnq - round(res.nats / lnq))
                    quant_worst = max(quant_worst, quant)
                    if rank_b == B.nrows:
                        floor_margin = min(floor_margin, res.nats - floors[label])
                    instances += 1
    return [
        CheckResult("oracle_equivalence", f"{instances} (L,B,I) instances", worst, tol, worst <= tol),
        CheckResult("leakage_quantized", f"{instances} instances", quant_worst, tol, quant_worst <= tol),
        CheckResult("leakage_floor", "full-rank instances", floor_margin, 0.0, floor_margin >= -REAL_TOLERANCE),
    ]


def _check_leakage_order(seed: int) -> list[CheckResult]:
    rng = derive_rng(seed, "verify:leakage_order")
    f = GF(2)
    layout = MultiplexLayout(f, 2, 2, 2, (1, 2, 1))
    subsets = all_nonempty_subsets(2)
    bad_mono = 0
    bad_dpi = 0
    for _ in range(60):
        L = sample_gl(4, f, rng)
        rows = rng.randrange(1, 4)
        B = random_matrix(f, rows, 4, rng)
        extra = random_matrix(f, rng.randrange(1, 3), 4, rng)
        B_more = FieldMatrix(f, B.rows_list() + extra.rows_list())
        A = random_matrix(f, rng.randrange(1, rows + 1), rows, rng)
        AB = A @ B
        more = leakage_profile(layout, L, B_more, subsets)
        post = leakage_profile(layout, L, AB, subsets)
        for label, res in leakage_profile(layout, L, B, subsets).items():
            if more[label].nats < res.nats - REAL_TOLERANCE:
                bad_mono += 1
            if post[label].nats > res.nats + REAL_TOLERANCE:
                bad_dpi += 1
    return [
        CheckResult("leakage_monotone_rows", "60 random (L,B) extensions", bad_mono, 0, bad_mono == 0),
        CheckResult("leakage_data_processing", "60 random post-processings", bad_dpi, 0, bad_dpi == 0),
    ]


def hand_instance_joint() -> JointDistribution:
    """X uniform on GF(2)^2, Z = first coordinate (coordinate 0 digit)."""
    return JointDistribution.from_deterministic_z(4, lambda x: x % 2, 2)


def hand_instance_family() -> HashFamilySpec:
    layout = MultiplexLayout(GF(2), 1, 2, 1, (1, 1))
    return HashFamilySpec.projection_family(layout, SubsetIndex({1}))


def _check_hashing_inequalities(seed: int) -> list[CheckResult]:
    rng = derive_rng(seed, "verify:hashing")
    out = []
    fam = hand_instance_family()
    joint = hand_instance_joint()
    res = verify_hashed_mi_bound(joint, fam, 1.0)
    pinned_ok = abs(res["lhs"] - 4 / 3) <= REAL_TOLERANCE and abs(res["rhs"] - 2.0) <= REAL_TOLERANCE
    out.append(CheckResult("hash_bound_pinned", "uniform GF(2)^2, Z = x0, rho=1", res["lhs"], res["rhs"], res["holds"] and pinned_ok))

    ok, worst = fam.is_two_universal()
    out.append(CheckResult("projection_family_two_universal", "GL(2,2) family", float(worst), 0.5, ok))

    # (family, random joints drawn for it): |S| = 2 over |X| = 4, then |X| = 8
    layout3 = MultiplexLayout(GF(2), 1, 3, 1, (1, 2))
    families = [(fam, 120), (HashFamilySpec.projection_family(layout3, SubsetIndex({1})), 20)]
    worst_excess = -math.inf
    checked = 0
    for family, n_joints in families:
        for _ in range(n_joints):
            nz = rng.randrange(2, 9)
            joint = JointDistribution.dirichlet(family.domain_size, nz, rng)
            for rho in RHO_GRID:
                r1 = verify_hashed_mi_bound(joint, family, rho)
                r2 = verify_hashed_entropy_bound(joint, family, rho)
                worst_excess = max(worst_excess, r1["lhs"] - r1["rhs"], r2["lhs"] - r2["rhs"])
                checked += 2
    out.append(CheckResult("hash_bounds_random", f"{checked} joint/rho checks", worst_excess, 0.0, worst_excess <= REAL_TOLERANCE))
    return out


def _check_rho_argmin(seed: int) -> list[CheckResult]:
    rng = derive_rng(seed, "verify:rho_argmin")
    grid = [round(0.01 * i, 2) for i in range(1, 101)]
    bad5 = 0
    bad7 = 0
    for _ in range(20):
        q = rng.choice((2, 3, 5, 16))
        f = GF(q)
        m = rng.randrange(1, 6)
        n = rng.randrange(2, 5)
        mu = rng.randrange(1, n)
        C1 = 2 * 1 + 1 + rng.randrange(0, 20)  # T = 1
        # low-rate regime for the mean bound
        k1 = rng.randrange(0, m * (n - mu) + 1)
        layout = MultiplexLayout(f, m, n, 1, (k1, m * n - k1))
        sub = SubsetIndex({1})
        vals = [
            (rho, ub5_bound(layout, sub, mu, BoundParams(C1, C1, rho))) for rho in grid
        ]
        if rho_grid_argmin(vals) != 1.0:
            bad5 += 1
        # high-rate regime for the per-slot bound
        k1 = rng.randrange(m * (n - mu), m * n + 1)
        layout = MultiplexLayout(f, m, n, 1, (k1, m * n - k1))
        vals = [
            (rho, ub7_bound(layout, sub, mu, BoundParams(C1, C1, rho))) for rho in grid
        ]
        if rho_grid_argmin(vals) != 1.0:
            bad7 += 1
    return [
        CheckResult("rho_argmin_mean_bound", "20 random parameterizations", bad5, 0, bad5 == 0),
        CheckResult("rho_argmin_per_slot_bound", "20 random parameterizations", bad7, 0, bad7 == 0),
    ]


def _check_guarantee(seed: int) -> list[CheckResult]:
    rng = derive_rng(seed, "verify:guarantee")
    f = GF(2)
    net = butterfly_network()
    out = []
    for T, m, k in ((1, 2, (2, 2)), (2, 3, (2, 2, 2))):
        layout = MultiplexLayout(f, m, 2, T, k)
        coding = butterfly_coding(f, m)
        params = BoundParams.defaults(T)
        support = observation_support(EavesdropperModel("traditional", 1), net, coding, layout)
        res = guarantee_experiment(layout, support, 1, params, rng, 60)
        p = res["threshold"]
        sigma = math.sqrt(p * (1 - p) / res["trials"])
        bound = p - 3 * sigma
        out.append(
            CheckResult(
                "guarantee_fraction",
                f"butterfly T={T}, {res['trials']} maps",
                res["fraction_good"],
                bound,
                res["fraction_good"] >= bound,
            )
        )
    return out


def _check_certify_monotone(seed: int) -> list[CheckResult]:
    rng = derive_rng(seed, "verify:certify")
    f = GF(2)
    net = butterfly_network()
    m = 5
    layout = MultiplexLayout(f, m, 2, 1, (1, 2 * m - 1))
    observations = constant_tap_observations(net, butterfly_coding(f, m), 1, layout)
    tight = BoundParams(C1=3, C2=3)
    loose = BoundParams(C1=5, C2=5)
    checked = 0
    bad = 0
    for _ in range(10):
        L = sample_gl(layout.mn, f, rng)
        res_t = certify_universal_zero(layout, observations, 1, tight, L)
        if res_t["worst_case_nats"]["1"] == 0.0:
            checked += 1
            res_l = certify_universal_zero(layout, observations, 1, loose, L)
            if not (res_t["certified"] and res_l["certified"]):
                bad += 1
    return [
        CheckResult(
            "certify_monotone", f"{checked} zero-leakage maps, C1*C2 tightened", bad, 0, bad == 0
        )
    ]


def _check_report_determinism(seed: int) -> list[CheckResult]:
    from .experiments import DEFAULT_CONFIG, REPORT_COLUMNS, rows_to_csv, run_simulate

    config = dict(DEFAULT_CONFIG, seed=seed, trials={"L": 5, "B": 5})
    meta1, rows1 = run_simulate(config)
    meta2, rows2 = run_simulate(config)
    same = meta1 == meta2 and rows_to_csv(rows1, REPORT_COLUMNS) == rows_to_csv(rows2, REPORT_COLUMNS)
    bounded = all(
        row["floor_nats"] - REAL_TOLERANCE
        <= row["leakage_nats"]
        <= row["k_I"] * math.log(row["q"]) + REAL_TOLERANCE
        for row in rows1
    )
    return [
        CheckResult("report_determinism", "same config run twice", float(same), 1.0, same),
        CheckResult("report_rows_bounded", "floor <= leakage <= ceiling", float(bounded), 1.0, bounded),
    ]


def _check_capacity(seed: int) -> list[CheckResult]:
    cases = [
        ((1.5, 0.5), 2, True),
        ((2.5, 0.0), 2, False),
        ((0.0, 0.0), 2, True),
        ((3.0,), 2, False),
    ]
    bad = sum(1 for rates, n, want in cases if capacity_membership(rates, n) != want)
    return [CheckResult("capacity_membership", f"{len(cases)} pinned cases", bad, 0, bad == 0)]


CHECKS = (
    _check_field_axioms,
    _check_field_inverses,
    _check_rank_nullity,
    _check_inverse_roundtrip,
    _check_gl_uniformity,
    _check_two_universal,
    _check_encode_decode,
    _check_projection,
    _check_butterfly,
    _check_oracle_equivalence,
    _check_leakage_order,
    _check_hashing_inequalities,
    _check_rho_argmin,
    _check_guarantee,
    _check_certify_monotone,
    _check_report_determinism,
    _check_capacity,
)


def run_verification(seed: int) -> list[CheckResult]:
    rows: list[CheckResult] = []
    for fn in CHECKS:
        rows.extend(fn(seed))
    return rows
