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

import itertools
import math
import operator
import random
import sys
from fractions import Fraction

from .errors import DomainError
from .fields import is_element
from .matrix import FieldMatrix, all_vectors, enumerate_gl, sample_gl
from .multiplex import MultiplexLayout, SubsetIndex, _FrozenRecord, _ordered_sum, all_nonempty_subsets
from .leakage import average_over_support, worst_case_leakage

REAL_TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# Joint distributions and hash families
# ---------------------------------------------------------------------------

class JointDistribution(_FrozenRecord):
    """Probability table p(x, z) over {0..nx-1} x {0..nz-1}.  Its caches
    are not fields: they stay out of equality, hash and repr."""

    __slots__ = ("probs", "_family_stats", "_power_means", "_marginal_z", "_conditionals")
    _fields = ("probs",)

    def __init__(self, probs: tuple[tuple[float, ...], ...]):
        rows = tuple(tuple(row) for row in probs)
        if not rows or not rows[0]:
            raise ValueError("probs is empty")
        for x, row in enumerate(rows):
            if len(row) != len(rows[0]):
                raise ValueError(f"probs[{x}] has {len(row)} cells, expected {len(rows[0])}")
            for z, v in enumerate(row):
                # nan fails both comparisons; bool, str and ints beyond the
                # float range fail too
                if not (type(v) in (int, float) and 0 <= v <= sys.float_info.max):
                    raise ValueError(f"probs[{x}][{z}] = {v!r} is not a finite number >= 0")
        rows = tuple(tuple(float(v) for v in row) for row in rows)
        total = _ordered_sum(v for r in rows for v in r)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probs sums to {total}, expected 1")
        self._set_fields(rows)
        # id(family) -> (family, `_distinct_statistics(self, family)`); the
        # entry keeps the family alive, so its id is not reused.
        object.__setattr__(self, "_family_stats", {})
        # rho -> conditional_power_mean(rho); both hashing bounds read it.
        object.__setattr__(self, "_power_means", {})
        object.__setattr__(self, "_marginal_z", tuple(map(_ordered_sum, zip(*rows))))
        # the p and the p / p_z of every cell with p > 0, in row order, as
        # two tuples, filled by the first conditional_power_mean
        object.__setattr__(self, "_conditionals", None)

    @property
    def nx(self) -> int:
        return len(self.probs)

    def marginal_z(self) -> tuple[float, ...]:
        """P(Z = z) for every z, computed when the joint is built."""
        return self._marginal_z

    def conditional_power_mean(self, rho: float) -> float:
        """E over (X, Z) of P(X|Z)^rho, computed once per rho."""
        acc = self._power_means.get(rho)
        if acc is not None:
            return acc
        cells = self._conditionals
        if cells is None:
            pz = self.marginal_z()
            cells = tuple(zip(*[
                (p, p / pzz) for row in self.probs for p, pzz in zip(row, pz) if p > 0
            ]))
            object.__setattr__(self, "_conditionals", cells)
        probs, conds = cells
        # the sum of p * (p / p_z)^rho, term by term in row order
        acc = _ordered_sum(map(operator.mul, probs, map(pow, conds, itertools.repeat(rho))))
        self._power_means[rho] = acc
        return acc

    @classmethod
    def dirichlet(cls, nx: int, nz: int, rng: random.Random) -> "JointDistribution":
        """Symmetric Dirichlet(1): uniform over the joint simplex."""
        gammas = [[rng.expovariate(1.0) for _ in range(nz)] for _ in range(nx)]
        total = _ordered_sum(v for row in gammas for v in row)
        return cls([[v / total for v in row] for row in gammas])

    @classmethod
    def from_deterministic_z(cls, nx: int, z_of_x, nz: int) -> "JointDistribution":
        """X uniform on nx points, Z = z_of_x(X)."""
        rows = [[0.0] * nz for _ in range(nx)]
        for x in range(nx):
            rows[x][z_of_x(x)] = 1.0 / nx
        return cls(rows)


class HashFamilySpec(_FrozenRecord):
    """A finite family of functions {0..nx-1} -> {0..output_size-1}.

    `maps[f][x]` is the image of x under the f-th function.  The distinct
    maps, in first-seen order, and each member's index into them are found
    once, when the family is built; they are not fields.
    """

    __slots__ = ("maps", "output_size", "_distinct", "_member_index")
    _fields = ("maps", "output_size")

    def __init__(self, maps: tuple[tuple[int, ...], ...], output_size: int):
        maps = tuple(map(tuple, maps))
        if not maps:
            raise ValueError("maps is empty")
        nx = len(maps[0])
        for f, fmap in enumerate(maps):
            if len(fmap) != nx:
                raise ValueError(f"maps[{f}] has {len(fmap)} values, expected {nx}")
            for x, s in enumerate(fmap):
                if not is_element(s, output_size):
                    raise ValueError(f"maps[{f}][{x}] = {s!r} is not an integer in [0, {output_size})")
        self._set_fields(maps, output_size)
        index: dict[tuple[int, ...], int] = {}
        members = tuple(index.setdefault(fmap, len(index)) for fmap in maps)
        object.__setattr__(self, "_distinct", tuple(index))
        object.__setattr__(self, "_member_index", members)

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
        weights = [(c, q**pos) for pos, c in enumerate(coords)]
        maps = []
        for L in mats:
            # the library enumerated the vectors: mul_vector's check would
            # only repeat on every symbol
            images = map(L._mul_vector, vectors)
            maps.append([sum(img[c] * w for c, w in weights) for img in images])
        return cls(maps, q ** len(coords))

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


def _distinct_statistics(
    joint: JointDistribution, family: HashFamilySpec
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(I(f(X); Z), H(f(X) | Z)) in nats for each distinct map f of the
    family, in first-seen order.  Neither depends on rho, so the pair is
    computed once per (joint, family object) and cached on the joint; a
    projection family lists each map many times (168 members, 7 maps for
    GL(3, 2))."""
    cached = joint._family_stats.get(id(family))
    if cached is not None:
        return cached[1]
    if family.domain_size != joint.nx:
        raise ValueError(f"family domain {family.domain_size} != joint |X| = {joint.nx}")
    pz = joint.marginal_z()
    per_map = [_map_statistics(joint, fmap, family.output_size, pz) for fmap in family._distinct]
    stats = tuple(zip(*per_map))
    joint._family_stats[id(family)] = (family, stats)
    return stats


def _map_statistics(
    joint: JointDistribution, fmap: tuple[int, ...], output_size: int, pz: tuple[float, ...]
) -> tuple[float, float]:
    """(I(f(X); Z), H(f(X) | Z)) in nats for the one map f = fmap."""
    log = math.log
    table = [[0.0] * len(pz) for _ in range(output_size)]
    for row, s in zip(joint.probs, fmap):
        trow = table[s]
        for z, v in enumerate(row):
            trow[z] += v
    mi = 0.0
    h = 0.0
    for trow in table:
        ps = _ordered_sum(trow)
        for p, pzz in zip(trow, pz):
            if p > 0:
                mi += p * log(p / (ps * pzz))
                h -= p * log(p / pzz)
    return max(mi, 0.0), max(h, 0.0)


def _mean_exp(scale: float, distinct: tuple[float, ...], member_index: tuple[int, ...]) -> float:
    """The mean of exp(scale * v) over the family's members, whose values
    are `distinct[i]` for i in `member_index`: one exp per distinct map,
    summed in member order."""
    exps = [math.exp(scale * v) for v in distinct]
    return _ordered_sum(map(exps.__getitem__, member_index)) / len(member_index)


def verify_hashed_mi_bound(joint: JointDistribution, family: HashFamilySpec, rho: float) -> dict:
    """Check E_f exp(rho I(f(X);Z)) <= 1 + |S|^rho E[P(X|Z)^rho]."""
    if not 0 <= rho <= 1:
        raise DomainError(f"rho = {rho} outside [0, 1]")
    mis = _distinct_statistics(joint, family)[0]
    lhs = _mean_exp(rho, mis, family._member_index)
    rhs = 1.0 + family.output_size**rho * joint.conditional_power_mean(rho)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + REAL_TOLERANCE}


def verify_hashed_entropy_bound(joint: JointDistribution, family: HashFamilySpec, rho: float) -> dict:
    """Check E_f exp(-rho H(f(X)|Z)) <= |S|^-rho + E[P(X|Z)^rho]."""
    if not 0 <= rho <= 1:
        raise DomainError(f"rho = {rho} outside [0, 1]")
    ents = _distinct_statistics(joint, family)[1]
    lhs = _mean_exp(-rho, ents, family._member_index)
    rhs = family.output_size ** (-rho) + joint.conditional_power_mean(rho)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + REAL_TOLERANCE}


# ---------------------------------------------------------------------------
# Bound formulas
# ---------------------------------------------------------------------------

class BoundParams(_FrozenRecord):
    """Slack constants of the guarantee bounds; both must exceed 2(2^T - 1)."""

    __slots__ = _fields = ("C1", "C2", "rho")

    def __init__(self, C1: float, C2: float, rho: float = 1.0):
        # written out: verify's rho_argmin check builds 4,008 per run
        object.__setattr__(self, "C1", C1)
        object.__setattr__(self, "C2", C2)
        object.__setattr__(self, "rho", rho)

    def validate_for(self, T: int) -> "BoundParams":
        floor = 2 * (2**T - 1)
        # each comparison is written so that nan fails it
        if not 0 < self.rho <= 1:
            raise ValueError(f"rho = {self.rho} outside (0, 1]")
        for name, c in (("C1", self.C1), ("C2", self.C2)):
            if not floor < c < math.inf:
                raise ValueError(f"{name} = {c} must be finite and exceed 2(2^T - 1) = {floor}")
        return self

    @classmethod
    def defaults(cls, T: int) -> "BoundParams":
        """Smallest round constants that keep both guarantees above 1/2."""
        c = 4 * (2**T - 1) + 1
        return cls(C1=c, C2=c, rho=1.0)


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
    return all(r >= 0 for r in rates) and _ordered_sum(rates) <= n


def rate_leakage_floor(rates, members, n: int, mu: int) -> float:
    """Asymptotic per-slot leakage floor of one subset, in symbols."""
    total = _ordered_sum(rates[i - 1] for i in members)
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
