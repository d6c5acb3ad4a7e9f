"""Exact information leakage of message subsets to an eavesdropper.

The messages are s = L x for a uniform word x, and the eavesdropper sees
z = B x.  Subset I's blocks are L_I x, so its leakage is

    (k_I - rank(L_I reduced modulo rowspace B)) * ln q   nats,

an integer multiple of ln q.  That rank, rank [B; L_I] - rank B, equals
dim proj_I(ker(B L^-1)).  `brute_force_leakage`, the independent oracle,
recomputes the leakage of each subset from the full joint distribution.

`average_over_support` and `worst_case_leakage` are the one place that
aggregates leakage over a list of observations (weighted mean, maximum).
Leakage depends on B only through rowspace B, so both evaluate one
`leakage_profile` per distinct row space and fill the per-B results back
in the listed order.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Iterator

from .matrix import FieldMatrix, _Echelon
from .multiplex import MultiplexLayout, SubsetIndex, _check_map, _FrozenRecord, iter_message_vectors
from .network import (
    EavesdropperModel,
    LocalCoding,
    Network,
    ObservationSpaces,
    _check_observation,
    observation_basis,
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

    B is an observation matrix, or the echelon basis of its row space built
    for this layout by `network.observation_basis` or an
    `ObservationSpaces`.  The residues
    stay packed in the engine's form, and a subset's rank is the number of
    its residues a fresh basis accepts.
    """
    _check_map(layout, L)
    basis = observation_basis(layout, B) if isinstance(B, FieldMatrix) else B
    L.inverse()  # raises SingularMatrix for a singular L; cached on L
    field = layout.field
    rank_b = len(basis.pivots)
    residues = [basis.reduce_packed(basis.pack(row)) for row in L._rows]
    lnq = math.log(layout.q)
    out: dict[str, LeakageResult] = {}
    for subset in subsets:
        span = _Echelon(field)
        coords = layout.subset_coordinates(subset)
        kernel_dim = sum(span.insert_packed(residues[i]) for i in coords)
        k_sub = len(coords)
        out[subset.label] = LeakageResult(
            k_sub=k_sub,
            rank_b=rank_b,
            kernel_dim=kernel_dim,
            nats=(k_sub - kernel_dim) * lnq,
        )
    return out


def observation_profiles(
    layout: MultiplexLayout, L: FieldMatrix, spaces: ObservationSpaces, subsets
) -> list[dict[str, LeakageResult]]:
    """leakage_profile for every listed observation of `spaces`, in order,
    evaluated once per distinct row space."""
    distinct = [leakage_profile(layout, L, basis, subsets) for basis in spaces.bases]
    return [distinct[i] for i in spaces.index]


def exact_leakage(
    layout: MultiplexLayout, L: FieldMatrix, B: FieldMatrix, subset: SubsetIndex
) -> LeakageResult:
    """Closed-form leakage from the rank of L_I reduced modulo rowspace B."""
    return leakage_profile(layout, L, B, [subset])[subset.label]


def brute_force_leakage(
    layout: MultiplexLayout, maps, B: FieldMatrix, subsets
) -> list[dict[str, float]]:
    """Mutual information from the explicit joint distribution, in nats:
    for each map L of `maps`, in order, one value per subset label.

    Enumerates all q^(m*n) equiprobable message vectors s once per call,
    with each subset's blocks of s and their marginal counts.  Per map it
    computes z = B L^-1 s once per s, tabulates for each subset the joint
    distribution of (subset blocks of s, z), and sums p * ln(p / (p_a p_z))
    in first-seen order.  Independent of the rank-based path.
    """
    messages = iter_message_vectors(layout)  # checks the enumeration bound first
    _check_observation(layout, B)
    total = layout.q ** layout.mn
    messages = list(messages)
    columns = []
    for sub in subsets:
        coords = layout.subset_coordinates(sub)
        blocks = [tuple(s[c] for c in coords) for s in messages]
        columns.append((sub.label, blocks, Counter(blocks)))
    log = math.log
    out = []
    for L in maps:
        _check_map(layout, L)
        C = B @ L.inverse()
        # the library enumerated `messages` itself, so mul_vector's operand
        # check would only repeat on every symbol
        zs = [tuple(C._mul_vector(s)) for s in messages]
        marg_z = Counter(zs)
        mis = {}
        for label, blocks, marg_a in columns:
            mi = 0.0
            for (a, z), c in Counter(zip(blocks, zs)).items():
                mi += c * (log(c * total) - log(marg_a[a] * marg_z[z]))
            mis[label] = max(mi / total, 0.0)
        out.append(mis)
    return out


def average_over_support(
    layout: MultiplexLayout, maps, support, subsets, rho: float = 1.0
) -> Iterator[dict[str, dict]]:
    """For each map L of `maps`, in order: per subset label, `mean_nats` and
    `mean_exp_rho`, the leakage and exp(rho * leakage) averaged over
    `support`, a list of (B, weight) pairs, and the per-B leakage `samples`.

    A generator.  The support's row spaces are reduced once, before the
    first map, and each map takes one leakage_profile per distinct space.
    """
    spaces = ObservationSpaces(layout, [B for B, _ in support])
    weights = [w for _, w in support]
    for L in maps:
        profiles = observation_profiles(layout, L, spaces, subsets)
        out = {}
        for sub in subsets:
            samples = [prof[sub.label].nats for prof in profiles]
            out[sub.label] = {
                "mean_nats": sum(w * x for w, x in zip(weights, samples)),
                "mean_exp_rho": sum(w * math.exp(rho * x) for w, x in zip(weights, samples)),
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
    and `per_set`, the (tap set, nats) pairs in order.  One leakage_profile
    per distinct row space."""
    spaces = ObservationSpaces(layout, [B for _, B in observations])
    profiles = observation_profiles(layout, L, spaces, subsets)
    out = {}
    for sub in subsets:
        per_set = [(s, prof[sub.label].nats) for (s, _), prof in zip(observations, profiles)]
        argmax, max_nats = max(per_set, key=lambda t: t[1])
        out[sub.label] = {"max_nats": max_nats, "argmax": argmax, "per_set": per_set}
    return out
