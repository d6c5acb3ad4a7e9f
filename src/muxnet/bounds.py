"""Closed-form leakage bounds and their numerical verification.

Covers the hashing inequalities

    E_f exp(rho * I(f(X); Z))   <= 1 + |S|^rho * E[P(X|Z)^rho]
    E_f exp(-rho * H(f(X) | Z)) <= |S|^-rho + E[P(X|Z)^rho]

checked by exhaustive enumeration over a hash family and a joint
distribution, the decay bound family parameterized by (C1, C2, rho), the
probability guarantees they buy, the exact-zero certification they imply,
and the capacity-region membership predicate sum(R_i) <= n.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError
from .matrix import FieldMatrix, all_vectors, enumerate_gl, sample_gl
from .multiplex import MultiplexLayout, SubsetIndex, all_nonempty_subsets
from .leakage import average_over_support, worst_case_leakage

REAL_TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# Joint distributions and hash families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JointDistribution:
    """Probability table p(x, z) over {0..nx-1} x {0..nz-1}."""

    probs: tuple[tuple[float, ...], ...]
    # family -> family_statistics(self, family); filled on first use.
    _family_stats: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # rho -> conditional_power_mean(rho); both hashing bounds read it.
    _power_means: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # marginal_z(), filled on first use.
    _marginal_z: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in row) for row in self.probs)
        object.__setattr__(self, "probs", rows)
        if not rows or not rows[0]:
            raise ValueError("joint table must be nonempty")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("joint table must be rectangular")
        if any(v < 0 for r in rows for v in r):
            raise ValueError("probabilities must be nonnegative")
        total = sum(v for r in rows for v in r)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"joint table sums to {total}, expected 1")

    @property
    def nx(self) -> int:
        return len(self.probs)

    @property
    def nz(self) -> int:
        return len(self.probs[0])

    def marginal_z(self) -> tuple[float, ...]:
        """P(Z = z) for every z, computed once per joint."""
        if self._marginal_z is None:
            pz = tuple(sum(self.probs[x][z] for x in range(self.nx)) for z in range(self.nz))
            object.__setattr__(self, "_marginal_z", pz)
        return self._marginal_z

    def conditional_power_mean(self, rho: float) -> float:
        """E over (X, Z) of P(X|Z)^rho, computed once per rho."""
        acc = self._power_means.get(rho)
        if acc is not None:
            return acc
        pz = self.marginal_z()
        acc = 0.0
        for x in range(self.nx):
            for z in range(self.nz):
                p = self.probs[x][z]
                if p > 0:
                    acc += p * (p / pz[z]) ** rho
        self._power_means[rho] = acc
        return acc

    @classmethod
    def dirichlet(cls, nx: int, nz: int, rng: random.Random) -> "JointDistribution":
        """Symmetric Dirichlet(1): uniform over the joint simplex."""
        gammas = [[rng.expovariate(1.0) for _ in range(nz)] for _ in range(nx)]
        total = sum(v for row in gammas for v in row)
        return cls(tuple(tuple(v / total for v in row) for row in gammas))

    @classmethod
    def from_deterministic_z(cls, nx: int, z_of_x, nz: int) -> "JointDistribution":
        """X uniform on nx points, Z = z_of_x(X)."""
        rows = [[0.0] * nz for _ in range(nx)]
        for x in range(nx):
            rows[x][z_of_x(x)] = 1.0 / nx
        return cls(tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class HashFamilySpec:
    """A finite family of functions {0..nx-1} -> {0..output_size-1}.

    `maps[f][x]` is the image of x under the f-th function.
    """

    maps: tuple[tuple[int, ...], ...]
    output_size: int

    def __post_init__(self):
        if not self.maps:
            raise ValueError("family must be nonempty")
        nx = len(self.maps[0])
        for fmap in self.maps:
            if len(fmap) != nx:
                raise ValueError("family maps must share a domain")
            if any(not 0 <= s < self.output_size for s in fmap):
                raise ValueError("map value outside the output range")

    @property
    def domain_size(self) -> int:
        return len(self.maps[0])

    @classmethod
    def projection_family(cls, layout: MultiplexLayout, subset: SubsetIndex) -> "HashFamilySpec":
        """The family {project_subset . L} over all invertible L.

        Domain indices encode vectors digit-wise with coordinate 0 least
        significant, so the first coordinate varies fastest; this is not the
        order of `iter_message_vectors`, where the last one does.
        """
        q = layout.q
        mn = layout.mn
        coords = layout.subset_coordinates(subset)
        mats = enumerate_gl(mn, layout.field)
        vectors = all_vectors(layout.field, mn)
        maps = []
        for L in mats:
            fmap = []
            for vec in vectors:
                img = L.mul_vector(vec)
                s_idx = 0
                for pos, c in enumerate(coords):
                    s_idx += img[c] * q**pos
                fmap.append(s_idx)
            maps.append(tuple(fmap))
        return cls(tuple(maps), q ** len(coords))

    def is_two_universal(self) -> tuple[bool, Fraction]:
        """Exact worst-pair collision probability against 1/|S|."""
        nf = len(self.maps)
        worst = Fraction(0)
        nx = self.domain_size
        for x1 in range(nx):
            for x2 in range(x1 + 1, nx):
                hits = sum(1 for fmap in self.maps if fmap[x1] == fmap[x2])
                p = Fraction(hits, nf)
                if p > worst:
                    worst = p
        return worst <= Fraction(1, self.output_size), worst


def family_statistics(
    joint: JointDistribution, family: HashFamilySpec
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(I(f(X); Z), H(f(X) | Z)) in nats for every member of the family.

    Neither depends on rho, so the result is computed once per
    (joint, family) pair and cached on the joint.  Members with the same
    map share one computation: a projection family lists each map many
    times (168 members, 7 maps for GL(3, 2)).
    """
    cached = joint._family_stats.get(family)
    if cached is not None:
        return cached
    if family.domain_size != joint.nx:
        raise ValueError(
            f"family domain {family.domain_size} != joint |X| = {joint.nx}"
        )
    pz = joint.marginal_z()
    per_map = {}
    for fmap in family.maps:
        if fmap not in per_map:
            per_map[fmap] = _map_statistics(joint, fmap, family.output_size, pz)
    stats = (
        tuple(per_map[fmap][0] for fmap in family.maps),
        tuple(per_map[fmap][1] for fmap in family.maps),
    )
    joint._family_stats[family] = stats
    return stats


def _map_statistics(
    joint: JointDistribution, fmap: tuple[int, ...], output_size: int, pz: tuple[float, ...]
) -> tuple[float, float]:
    """(I(f(X); Z), H(f(X) | Z)) in nats for the one map f = fmap."""
    log = math.log
    table = [[0.0] * joint.nz for _ in range(output_size)]
    for x in range(joint.nx):
        row = joint.probs[x]
        trow = table[fmap[x]]
        for z in range(joint.nz):
            trow[z] += row[z]
    ps = [sum(trow) for trow in table]
    mi = 0.0
    h = 0.0
    for s in range(output_size):
        for z in range(joint.nz):
            p = table[s][z]
            if p > 0:
                mi += p * log(p / (ps[s] * pz[z]))
                h -= p * log(p / pz[z])
    return max(mi, 0.0), max(h, 0.0)


def _mean_exp(scale: float, values: tuple[float, ...]) -> float:
    """The mean of exp(scale * v) over `values`, one exp per distinct value
    and summed in member order, so the float equals the per-member sum."""
    exps = {v: math.exp(scale * v) for v in dict.fromkeys(values)}
    return sum(exps[v] for v in values) / len(values)


def verify_hashed_mi_bound(joint: JointDistribution, family: HashFamilySpec, rho: float) -> dict:
    """Check E_f exp(rho I(f(X);Z)) <= 1 + |S|^rho E[P(X|Z)^rho]."""
    if not 0 <= rho <= 1:
        raise DomainError(f"rho = {rho} outside [0, 1]")
    mis = family_statistics(joint, family)[0]
    lhs = _mean_exp(rho, mis)
    rhs = 1.0 + family.output_size**rho * joint.conditional_power_mean(rho)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + REAL_TOLERANCE}


def verify_hashed_entropy_bound(joint: JointDistribution, family: HashFamilySpec, rho: float) -> dict:
    """Check E_f exp(-rho H(f(X)|Z)) <= |S|^-rho + E[P(X|Z)^rho]."""
    if not 0 <= rho <= 1:
        raise DomainError(f"rho = {rho} outside [0, 1]")
    ents = family_statistics(joint, family)[1]
    lhs = _mean_exp(-rho, ents)
    rhs = family.output_size ** (-rho) + joint.conditional_power_mean(rho)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + REAL_TOLERANCE}


# ---------------------------------------------------------------------------
# Bound formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundParams:
    """Slack constants of the guarantee bounds; both must exceed 2(2^T - 1)."""

    C1: float
    C2: float
    rho: float = 1.0

    def validate_for(self, T: int) -> "BoundParams":
        floor = 2 * (2**T - 1)
        if not 0 < self.rho <= 1:
            raise ValueError(f"rho = {self.rho} outside (0, 1]")
        if self.C1 <= floor:
            raise ValueError(f"C1 = {self.C1} must exceed 2(2^T - 1) = {floor}")
        if self.C2 <= floor:
            raise ValueError(f"C2 = {self.C2} must exceed 2(2^T - 1) = {floor}")
        return self

    @classmethod
    def defaults(cls, T: int) -> "BoundParams":
        """Smallest round constants that keep both guarantees above 1/2."""
        c = 4 * (2**T - 1) + 1
        return cls(C1=c, C2=c, rho=1.0)

    @classmethod
    def for_universal(cls, T: int, n_tap_sets: int) -> "BoundParams":
        """The default C1, and C2 large enough that the per-realization
        guarantee exceeds 1 - 1/C_E."""
        return cls(C1=4 * (2**T - 1) + 1, C2=2 * (2**T - 1) * n_tap_sets + 1, rho=1.0)


def _decay_factor(layout: MultiplexLayout, k_sub: int, mu: int, rho: float) -> float:
    """q^(-m rho (n - mu - k_sub/m)) via the integer exponent k_sub - m(n - mu)."""
    units = k_sub - layout.m * (layout.n - mu)
    return float(layout.q) ** (rho * units)


def ub2_bound(layout: MultiplexLayout, subset: SubsetIndex, mu: int, rho: float) -> float:
    """Bound on E_l exp(rho * leakage) for one observation realization."""
    if not 0 < rho <= 1:
        raise DomainError(f"rho = {rho} outside (0, 1]")
    return 1.0 + _decay_factor(layout, layout.subset_length(subset), mu, rho)


def ub5_bound(layout: MultiplexLayout, subset: SubsetIndex, mu: int, params: BoundParams) -> float:
    """Bound on E_b leakage for a good map, in nats."""
    k_sub = layout.subset_length(subset)
    return params.C1 * _decay_factor(layout, k_sub, mu, params.rho) / params.rho


def ub6_bound(layout: MultiplexLayout, subset: SubsetIndex, mu: int, params: BoundParams) -> float:
    """Bound on E_b exp(rho * leakage) for a good map."""
    k_sub = layout.subset_length(subset)
    return params.C1 * (1.0 + _decay_factor(layout, k_sub, mu, params.rho))


def _per_slot_overflow(layout: MultiplexLayout, subset: SubsetIndex, mu: int) -> float:
    k_sub = layout.subset_length(subset)
    overflow = k_sub / layout.m - (layout.n - mu)
    if overflow < 0:
        raise DomainError(
            f"per-slot rate {k_sub}/{layout.m} below n - mu = {layout.n - mu}; "
            "the per-slot bounds only apply above it"
        )
    return overflow


def ub7_bound(layout: MultiplexLayout, subset: SubsetIndex, mu: int, params: BoundParams) -> float:
    """Per-slot bound on E_b leakage/m in the high-rate regime."""
    overflow = _per_slot_overflow(layout, subset, mu)
    return (1.0 + math.log(params.C1)) / (layout.m * params.rho) + overflow * math.log(layout.q)


def ub8_bound(layout: MultiplexLayout, subset: SubsetIndex, mu: int, params: BoundParams) -> float:
    """Bound on the leakage of a single good (map, observation) pair, in nats."""
    k_sub = layout.subset_length(subset)
    return params.C1 * params.C2 * _decay_factor(layout, k_sub, mu, params.rho) / params.rho


def guarantee_probability(T: int, C: float) -> float:
    """1 - 2(2^T - 1)/C: with C = C1, a lower bound on the probability that a
    random map is good; with C = C2, on the per-observation probability for
    a good map."""
    return 1.0 - 2.0 * (2**T - 1) / C


# ---------------------------------------------------------------------------
# Experiments on sampled maps
# ---------------------------------------------------------------------------

def guarantee_experiment(
    layout: MultiplexLayout,
    support,
    mu: int,
    params: BoundParams,
    rng: random.Random,
    L_trials: int,
) -> dict:
    """Fraction of sampled maps whose averaged leakage meets ub5 and ub6.

    Each map's leakage is averaged over `support`, a list of (B, weight)
    pairs such as `network.observation_support` returns, whose row spaces
    are reduced once for all maps.  A map is good when every nonempty
    subset satisfies both bounds; the returned fraction is guaranteed to
    exceed 1 - 2(2^T - 1)/C1 in expectation.
    """
    if L_trials < 1:
        raise ValueError("L_trials must be at least 1")
    params.validate_for(layout.T)
    subsets = all_nonempty_subsets(layout.T)
    targets = {
        sub.label: (ub5_bound(layout, sub, mu, params), ub6_bound(layout, sub, mu, params))
        for sub in subsets
    }
    good = dict.fromkeys(targets, 0)
    good_total = 0
    tol = REAL_TOLERANCE
    maps = (sample_gl(layout.mn, layout.field, rng) for _ in range(L_trials))
    for averages in average_over_support(layout, maps, support, subsets, params.rho):
        all_ok = True
        for label, (ub5, ub6) in targets.items():
            avg = averages[label]
            if avg["mean_nats"] <= ub5 + tol and avg["mean_exp_rho"] <= ub6 + tol:
                good[label] += 1
            else:
                all_ok = False
        good_total += all_ok
    return {
        "fraction_good": good_total / L_trials,
        "threshold": guarantee_probability(layout.T, params.C1),
        "trials": L_trials,
        "per_subset": {
            label: {"ub5": ub5, "ub6": ub6, "fraction": good[label] / L_trials}
            for label, (ub5, ub6) in targets.items()
        },
    }


def certify_universal_zero(
    layout: MultiplexLayout,
    observations,
    mu: int,
    params: BoundParams,
    L: FieldMatrix,
) -> dict:
    """Certify exact-zero leakage wherever the single-pair bound forces it.

    `observations` lists (tap set, B) for every constant tap set of size mu
    (`network.constant_tap_observations`).  A subset is gated when its ub8
    value falls below ln q: leakage is an integer multiple of ln q, so any
    leakage under the bound must vanish.  Certification checks that every
    gated subset leaks exactly zero for every tap set; the first violation
    is returned as a witness.
    """
    params.validate_for(layout.T)
    subsets = all_nonempty_subsets(layout.T)
    worst = worst_case_leakage(layout, L, observations, subsets)
    lnq = math.log(layout.q)
    gated = [sub.label for sub in subsets if ub8_bound(layout, sub, mu, params) < lnq]
    witness = next(
        ((label, worst[label]["argmax"]) for label in gated if worst[label]["max_nats"] > 0.0),
        None,
    )
    return {
        "certified": witness is None,
        "witness": witness,
        "gated_subsets": gated,
        "worst_case_nats": {label: w["max_nats"] for label, w in worst.items()},
    }


# ---------------------------------------------------------------------------
# Capacity region and converse floor
# ---------------------------------------------------------------------------

def capacity_membership(rates, n: int) -> bool:
    """True iff all rates are nonnegative and their sum is at most n."""
    rates = list(rates)
    return all(r >= 0 for r in rates) and sum(rates) <= n


def rate_leakage_floor(rates, members, n: int, mu: int) -> float:
    """Asymptotic per-slot leakage floor of one subset, in symbols."""
    total = sum(rates[i - 1] for i in members)
    return max(0.0, total - (n - mu))


def leakage_floor(layout: MultiplexLayout, subset: SubsetIndex, rank_b: int) -> float:
    """Exact lower bound (nats) on leakage given the observation rank.

    The posterior kernel has dimension m*n - rank_b, so the hidden part of
    the subset is at most that large: leakage is at least
    (k_sub - (m*n - rank_b)) * ln q when positive.
    """
    if rank_b < 0 or rank_b > layout.mn:
        raise ValueError(f"rank {rank_b} impossible for {layout.mn} columns")
    k_sub = layout.subset_length(subset)
    return max(0, k_sub - layout.mn + rank_b) * math.log(layout.q)


def rho_grid_argmin(values_by_rho: list[tuple[float, float]]) -> float:
    """Grid point with the smallest value; ties resolved toward larger rho."""
    best_rho, best_val = values_by_rho[0]
    for rho, val in values_by_rho[1:]:
        if val <= best_val:
            best_rho, best_val = rho, val
    return best_rho
