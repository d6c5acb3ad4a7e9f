"""Exact information leakage of message subsets to an eavesdropper.

The messages are s = L x for a uniform word x, and the eavesdropper sees
z = B x.  Subset I's blocks are L_I x, so its leakage is

    (k_I - rank(L_I reduced modulo rowspace B)) * ln q   nats,

an integer multiple of ln q.  That rank, rank [B; L_I] - rank B, equals
dim proj_I(ker(B L^-1)).  `brute_force_leakage`, the independent oracle,
recomputes the leakage of each subset from the full joint distribution,
for every pair of a list of maps and a list of observations.  It
eliminates nothing: one table per map gives each message's preimage x,
one per observation gives B x for every x, and a pair's z's are lookups.

`leakage_table` is the rank path in the oracle's shape: the
`leakage_profile` of every (map, observation) pair, map by map.  Leakage
depends on B only through rowspace B, so it reduces each observation once,
keys its row space by the unique reduced form, and evaluates one profile
per map and distinct row space; no other function keys row spaces.
`average_over_support` and `worst_case_leakage`, the one place that
aggregates leakage over a list of observations (weighted mean, maximum),
simulate's report and verify's oracle check all read leakage through it.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Iterator
from operator import add

from .errors import SingularMatrix
from .matrix import FieldMatrix, _Echelon
from .multiplex import (
    MultiplexLayout, SubsetIndex, _check_map, _FrozenRecord, _ordered_sum, iter_message_vectors,
)
from .network import (
    EavesdropperModel,
    LocalCoding,
    Network,
    _check_observation,
    observation_support,
    realize_eavesdropper,
)


class LeakageResult(_FrozenRecord):
    """Leakage of one subset under one (L, B) pair, in nats."""

    __slots__ = _fields = ("k_sub", "rank_b", "kernel_dim", "nats")

    def __init__(self, k_sub: int, rank_b: int, kernel_dim: int, nats: float):
        setattr_ = object.__setattr__
        setattr_(self, "k_sub", k_sub)
        setattr_(self, "rank_b", rank_b)
        setattr_(self, "kernel_dim", kernel_dim)
        setattr_(self, "nats", nats)

    @property
    def bits(self) -> float:
        return self.nats / math.log(2)


def leakage_profile(
    layout: MultiplexLayout,
    L: FieldMatrix,
    B: FieldMatrix | _Echelon,
    subsets,
) -> dict[str, LeakageResult]:
    """exact_leakage for several subsets, reducing L modulo B's row space once.

    B is an observation matrix, or the echelon basis of its row space that
    `leakage_table` built for this layout.  Only the rows of blocks 1..T
    are reduced: no subset reads the random block's.  The residues stay
    packed in the engine's form, and a subset's rank is the number of its
    residues a fresh basis accepts.
    """
    _check_map(layout, L)
    if isinstance(B, FieldMatrix):
        _check_observation(layout, B)
        B = B._rref_rows()
    # raises SingularMatrix for a singular L.  Cached on L, which meets many
    # row spaces, it costs less than `L.rank()` per call (measured in verify)
    L.inverse()
    field = layout.field
    rank_b = len(B.pivots)
    reduce_packed, pack = B.reduce_packed, B.pack
    residues = [reduce_packed(pack(row)) for row in L._rows[:layout.offsets()[layout.T]]]
    lnq = math.log(layout.q)
    subset_coordinates = layout.subset_coordinates
    out: dict[str, LeakageResult] = {}
    for subset in subsets:
        insert_packed = _Echelon(field).insert_packed
        coords = subset_coordinates(subset)
        kernel_dim = 0
        for i in coords:
            if insert_packed(residues[i]):
                kernel_dim += 1
        k_sub = len(coords)
        out[subset.label] = LeakageResult(
            k_sub=k_sub,
            rank_b=rank_b,
            kernel_dim=kernel_dim,
            nats=(k_sub - kernel_dim) * lnq,
        )
    return out


def leakage_table(
    layout: MultiplexLayout, maps, observations, subsets
) -> Iterator[list[dict[str, LeakageResult]]]:
    """leakage_profile for every pair of a map of `maps` and an observation
    of `observations`, in the shape of `brute_force_leakage`: for each map,
    in order, one profile per observation, in order.

    A generator, so maps may stream.  Before the first map it checks and
    reduces each observation once and keys its row space by
    `_Echelon.space_key`, the unique reduced form; each map then takes one
    profile per distinct row space, which every observation of that space
    shares.
    """
    bases: list[_Echelon] = []
    index: list[int] = []
    seen: dict[tuple, int] = {}
    for B in observations:
        _check_observation(layout, B)
        basis = B._rref_rows()
        at = seen.setdefault(basis.space_key(), len(bases))
        if at == len(bases):
            bases.append(basis)
        index.append(at)
    for L in maps:
        distinct = [leakage_profile(layout, L, basis, subsets) for basis in bases]
        yield [distinct[i] for i in index]


def exact_leakage(
    layout: MultiplexLayout, L: FieldMatrix, B: FieldMatrix, subset: SubsetIndex
) -> LeakageResult:
    """Closed-form leakage from the rank of L_I reduced modulo rowspace B."""
    return leakage_profile(layout, L, B, [subset])[subset.label]


def brute_force_leakage(
    layout: MultiplexLayout, maps, observations, subsets
) -> list[list[dict[str, float]]]:
    """Mutual information from the explicit joint distribution, in nats:
    `out[i][j]` holds one value per subset label for map i of `maps` and
    observation j of `observations`, both in order.

    Enumerates all q^(m*n) equiprobable message vectors s once per call,
    with each subset's blocks of s and their marginal counts.  The
    eavesdropper's z = B L^-1 s is B w at the word w with L w = s, so the
    call builds one table per map, the index of each s's preimage w, and
    one per observation, B w for every w, both from row products alone,
    and each (map, observation) pair reads its z's by list lookup.  Blocks
    and z's are kept as first-seen integer labels.  Per pair and subset it
    tabulates the joint counts of (blocks, z) and sums
    p * ln(p / (p_a p_z)) in first-seen order, taking each logarithm once
    per call: ln(c q^(m*n)) per count c, and the log of each key's marginal
    product once per (observation, subset).  No elimination: a map that
    is not a bijection raises SingularMatrix with its rank read off its
    image size.  Independent of the rank-based path.
    """
    messages = iter_message_vectors(layout)  # checks the enumeration bound first
    q, total = layout.q, layout.q ** layout.mn
    messages = list(messages)
    # per observation: the z label of B w for every w, and each label's
    # count.  The library enumerated `messages` itself, so mul_vector's
    # operand check would only repeat on every symbol.
    z_tables = []
    for B in observations:
        _check_observation(layout, B)
        seen: dict[tuple[int, ...], int] = {}
        labels = [seen.setdefault(tuple(B._mul_vector(w)), len(seen)) for w in messages]
        z_tables.append((labels, Counter(labels)))
    # per map: the index of the preimage w of every s
    index = {s: i for i, s in enumerate(messages)}
    preimages = []
    for L in maps:
        _check_map(layout, L)
        images = [index[tuple(L._mul_vector(w))] for w in messages]
        size = len(set(images))  # q^rank: the image is a subspace
        if size < total:
            rank = next(r for r in range(layout.mn) if q**r == size)
            raise SingularMatrix(f"map of rank {rank} < {layout.mn} is not a bijection")
        pre = [0] * total
        for w, s in enumerate(images):
            pre[s] = w
        preimages.append(pre)
    # per subset: its blocks' labels a, scaled so that a * total + z keys the
    # pair (a, z), since every z label is below total; and each a's count
    columns = []
    for sub in subsets:
        coords = layout.subset_coordinates(sub)
        seen = {}
        labels = [seen.setdefault(tuple(s[c] for c in coords), len(seen)) for s in messages]
        columns.append((sub.label, [a * total for a in labels], Counter(labels)))
    log = math.log
    # log(c * total) for every count c a pair (a, z) can reach, at most the
    # count of its a; and per (observation, subset) the log of each key's
    # marginal product marg_a[a] * marg_z[z], taken once for all maps
    most = max((max(marg_a.values()) for _, _, marg_a in columns), default=0)
    log_count = [0.0] + [log(c * total) for c in range(1, most + 1)]
    log_marginals = [[{} for _ in columns] for _ in z_tables]
    out = []
    for pre in preimages:
        row = []
        for (labels, marg_z), memos in zip(z_tables, log_marginals):
            zs = list(map(labels.__getitem__, pre))
            mis = {}
            for (label, keys, marg_a), memo in zip(columns, memos):
                mi = 0.0
                for key, c in Counter(map(add, keys, zs)).items():
                    log_marginal = memo.get(key)
                    if log_marginal is None:
                        a, z = divmod(key, total)
                        log_marginal = memo[key] = log(marg_a[a] * marg_z[z])
                    mi += c * (log_count[c] - log_marginal)
                mis[label] = max(mi / total, 0.0)
            row.append(mis)
        out.append(row)
    return out


def average_over_support(
    layout: MultiplexLayout, maps, support, subsets, rho: float = 1.0
) -> Iterator[dict[str, dict]]:
    """For each map L of `maps`, in order: per subset label, `mean_nats` and
    `mean_exp_rho`, the leakage and exp(rho * leakage) averaged over
    `support`, a list of (B, weight) pairs, and the per-B leakage `samples`.

    A generator over `leakage_table`'s rows, so maps may stream.
    """
    weights = [w for _, w in support]
    for profiles in leakage_table(layout, maps, [B for B, _ in support], subsets):
        out = {}
        for sub in subsets:
            samples = [prof[sub.label].nats for prof in profiles]
            out[sub.label] = {
                "mean_nats": _ordered_sum(w * x for w, x in zip(weights, samples)),
                "mean_exp_rho": _ordered_sum(w * math.exp(rho * x) for w, x in zip(weights, samples)),
                "samples": samples,
            }
        yield out


def average_leakage(
    layout: MultiplexLayout,
    L: FieldMatrix,
    model: EavesdropperModel,
    net: Network | None,
    coding: LocalCoding | None,
    subsets,
    rng: random.Random,
    trials: int,
    rho: float = 1.0,
) -> dict[str, dict]:
    """average_over_support over the eavesdropper model's observations.

    Exhaustive (exact expectation) whenever `observation_support` lists the
    model's distribution; Monte Carlo over `trials` equally weighted draws
    otherwise.  Each subset's entry also records `exhaustive`.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    support = observation_support(model, net, coding, layout)
    exhaustive = support is not None
    if support is None:
        support = [
            (realize_eavesdropper(model, net, coding, layout, rng), 1.0 / trials)
            for _ in range(trials)
        ]
    averages = next(average_over_support(layout, [L], support, subsets, rho))
    return {label: dict(avg, exhaustive=exhaustive) for label, avg in averages.items()}


def worst_case_leakage(
    layout: MultiplexLayout, L: FieldMatrix, observations, subsets
) -> dict[str, dict]:
    """Per subset label: `max_nats`, the largest leakage over `observations`,
    a list of (tap set, B) pairs; `argmax`, the first tap set attaining it;
    and `per_set`, the (tap set, nats) pairs in order, read from
    `leakage_table`."""
    profiles = next(leakage_table(layout, [L], [B for _, B in observations], subsets))
    out = {}
    for sub in subsets:
        per_set = [(s, prof[sub.label].nats) for (s, _), prof in zip(observations, profiles)]
        argmax, max_nats = max(per_set, key=lambda t: t[1])
        out[sub.label] = {"max_nats": max_nats, "argmax": argmax, "per_set": per_set}
    return out
