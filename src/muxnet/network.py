"""Linear network coding over acyclic delay-free multigraphs.

Global coding vectors are propagated in topological order from the source,
receiver decodability is a rank check on a sink's incoming vectors, and an
eavesdropper tapping mu links per slot observes the block-diagonal matrix
stacking the tapped links' global vectors, one mu x n block per time slot.
The module builds observation matrices and their distributions and
reduces none of them: `leakage.leakage_table` keys their row spaces.
"""

from __future__ import annotations

import itertools
import math
import random
import sys

from .errors import (
    CycleDetected,
    DuplicateLink,
    EnumerationTooLarge,
    InfeasibleMu,
    MissingCoefficient,
    ShapeError,
    WrongSlotCount,
)
from .fields import FieldSpec, is_element
from .matrix import FieldMatrix, sample_full_rank
from .multiplex import MultiplexLayout, _FrozenRecord, _ordered_sum

# Largest number of tap sets enumerate_eavesdropper_sets lists, and of
# per-slot tap schedules observation_support lists for a statistical model.
MAX_TAP_SETS = 1 << 16


class Link(_FrozenRecord):
    __slots__ = _fields = ("id", "tail", "head")

    def __init__(self, id: str, tail: str, head: str):
        self._set_fields(id, tail, head)


class Network:
    """Single-source acyclic directed multigraph with named links."""

    def __init__(self, nodes, source, links, sinks):
        self.nodes = tuple(nodes)
        self.source = source
        self.sinks = tuple(sinks)
        node_set = set()
        for i, v in enumerate(self.nodes):
            if v in node_set:
                raise ValueError(f"nodes[{i}] = {v!r} repeats a node")
            node_set.add(v)
        if source not in node_set:
            raise ValueError(f"source = {source!r} is not a node")
        for i, s in enumerate(self.sinks):
            if s not in node_set:
                raise ValueError(f"sinks[{i}] = {s!r} is not a node")
            if s in self.sinks[:i]:
                raise ValueError(f"sinks[{i}] = {s!r} repeats a sink")
        self.links: tuple[Link, ...] = tuple(links)
        self._by_id: dict[str, Link] = {}
        for i, l in enumerate(self.links):
            if l.id in self._by_id:
                raise ValueError(f"links[{i}].id = {l.id!r} repeats a link id")
            self._by_id[l.id] = l
            for end in ("tail", "head"):
                if getattr(l, end) not in node_set:
                    raise ValueError(f"links[{i}].{end} = {getattr(l, end)!r} is not a node")
            if l.tail == l.head:
                raise CycleDetected(f"links[{i}] = {l.id!r} loops on node {l.tail!r}")
        self._out: dict[str, list[Link]] = {v: [] for v in self.nodes}
        self._in: dict[str, list[Link]] = {v: [] for v in self.nodes}
        for l in self.links:
            self._out[l.tail].append(l)
            self._in[l.head].append(l)
        self.topo_order = self._topological_order()

    def _topological_order(self) -> tuple[str, ...]:
        indeg = {v: 0 for v in self.nodes}
        for l in self.links:
            indeg[l.head] += 1
        queue = [v for v in self.nodes if indeg[v] == 0]
        order = []
        while queue:
            v = queue.pop(0)
            order.append(v)
            for l in self._out[v]:
                indeg[l.head] -= 1
                if indeg[l.head] == 0:
                    queue.append(l.head)
        if len(order) != len(self.nodes):
            raise CycleDetected("links contain a directed cycle")
        return tuple(order)

    def link(self, link_id: str) -> Link:
        try:
            return self._by_id[link_id]
        except KeyError:
            raise ValueError(f"link_id = {link_id!r} is not a link of the network") from None

    def out_links(self, node: str) -> list[Link]:
        return list(self._out[node])

    def in_links(self, node: str) -> list[Link]:
        return list(self._in[node])

    def link_ids(self) -> tuple[str, ...]:
        return tuple(l.id for l in self.links)


class LocalCoding:
    """Per-link combination coefficients, one map per time slot.

    For a link out of the source the inner map is keyed by source-input
    index (0..n-1); elsewhere it is keyed by incoming link id.  Keys absent
    from an inner map mean coefficient zero, but a link absent from a slot
    map altogether is an error.
    """

    def __init__(self, field: FieldSpec, n: int, slot_maps):
        if not is_element(n, math.inf):  # n = 0 passes; check_decodability reads it
            raise ValueError(f"n = {n!r} is not a nonnegative integer")
        self.field = field
        self.n = n
        self.slot_maps = tuple(dict(m) for m in slot_maps)
        if not self.slot_maps:
            raise WrongSlotCount("slot_maps is empty; need one map per slot")
        for cm in self.slot_maps:
            for link_id, coeffs in cm.items():
                for key, c in coeffs.items():
                    # the key is shown as in a network document
                    if not is_element(c, field.q):
                        raise ValueError(
                            f"coding[{link_id!r}][{str(key)!r}] = {c!r} "
                            f"is not an element of GF({field.q})"
                        )

    @property
    def slots(self) -> int:
        return len(self.slot_maps)

    def slot_map(self, slot: int) -> dict:
        if not 0 <= slot < self.slots:
            raise WrongSlotCount(f"slot {slot} outside 0..{self.slots - 1}")
        return self.slot_maps[slot]

    @classmethod
    def constant(cls, field: FieldSpec, n: int, coeffs: dict, m: int) -> "LocalCoding":
        return cls(field, n, [coeffs] * m)

    @classmethod
    def random(
        cls,
        net: Network,
        field: FieldSpec,
        n: int,
        m: int,
        rng: random.Random,
    ) -> "LocalCoding":
        """All local coefficients iid uniform, the same in every slot."""
        if len(net.out_links(net.source)) < n:
            raise ValueError(f"n = {n} exceeds the {len(net.out_links(net.source))} source links")

        def one_slot() -> dict:
            cm: dict = {}
            for link in net.links:
                if link.tail == net.source:
                    cm[link.id] = {j: field.rand(rng) for j in range(n)}
                else:
                    cm[link.id] = {
                        inl.id: field.rand(rng) for inl in net.in_links(link.tail)
                    }
            return cm

        return cls(field, n, [one_slot()] * m)


class EavesdropperModel(_FrozenRecord):
    """Which links the eavesdropper sees, and how that choice is drawn.

    kind "traditional": one fixed mu-subset, constant over the block
    (links=None means uniformly random over all mu-subsets).
    kind "statistical": fresh mu-subset per slot from `distribution`
    (None means uniform; otherwise (links, p) pairs, each weight p a
    finite number >= 0 and their sum a positive float).
    kind "direct": a raw observation matrix, uniform over the full-rank
    mu*m x m*n matrices.
    Every field is checked when the model is built: mu is a plain int
    >= 1, and `links` on a non-traditional model or `distribution` on a
    non-statistical one raises ValueError instead of being ignored.  Each
    message starts with the offending field, e.g. `links[1] = 'e7'
    repeats a link`.
    """

    __slots__ = _fields = ("kind", "mu", "links", "distribution")

    def __init__(self, kind: str, mu: int, links: tuple[str, ...] | None = None,
                 distribution: tuple[tuple[tuple[str, ...], float], ...] | None = None):
        if kind not in ("traditional", "statistical", "direct"):
            raise ValueError(f"kind = {kind!r} is not traditional, statistical or direct")
        if not is_element(mu, math.inf) or mu < 1:
            raise ValueError(f"mu = {mu!r} is not a positive integer")
        for name, value, reader in (("links", links, "traditional"),
                                    ("distribution", distribution, "statistical")):
            if value is not None and kind != reader:
                raise ValueError(f"{name} is read only by the {reader} kind, not {kind!r}")
        if links is not None:
            links = tuple(links)
            for i, link in enumerate(links):
                if link in links[:i]:
                    raise DuplicateLink(f"links[{i}] = {link!r} repeats a link")
            if len(links) != mu:
                raise ValueError(f"links = {links} has {len(links)} links, expected mu = {mu}")
        if distribution is not None:
            distribution = tuple((tuple(s), w) for s, w in distribution)
            for i, (tap_set, w) in enumerate(distribution):
                if len(set(tap_set)) != len(tap_set) or len(tap_set) != mu:
                    raise DuplicateLink(f"distribution[{i}].links = {tap_set} is not a mu-subset")
                if not (type(w) in (int, float) and 0 <= w <= sys.float_info.max):
                    raise ValueError(f"distribution[{i}].p = {w!r} is not finite and >= 0")
            total = _ordered_sum(w for _, w in distribution)
            if not 0 < total <= sys.float_info.max:
                raise ValueError(f"distribution weights sum to {total}, not a positive float")
        self._set_fields(kind, mu, links, distribution)


def global_coding_vectors(
    net: Network, coding: LocalCoding, slot: int
) -> dict[str, tuple[int, ...]]:
    """Global coding vector of every link at the given slot."""
    f = coding.field
    n = coding.n
    if len(net.out_links(net.source)) < n:
        raise ValueError(
            f"source has {len(net.out_links(net.source))} outgoing links, needs {n}"
        )
    cm = coding.slot_map(slot)
    vecs: dict[str, tuple[int, ...]] = {}
    for v in net.topo_order:
        for link in net._out[v]:
            try:
                coeffs = cm[link.id]
            except KeyError:
                raise MissingCoefficient(
                    f"no coefficients for link {link.id!r} at slot {slot}"
                ) from None
            acc = [0] * n
            if v == net.source:
                for j, c in coeffs.items():
                    if not is_element(j, n):
                        raise MissingCoefficient(
                            f"source link {link.id!r} references input {j!r} outside 0..{n - 1}"
                        )
                    acc[j] = f.add(acc[j], c)
            else:
                for inl in net._in[v]:
                    c = coeffs.get(inl.id, 0)
                    if c:
                        src = vecs[inl.id]
                        acc = [f.add(a, f.mul(c, s)) for a, s in zip(acc, src)]
            vecs[link.id] = tuple(acc)
    return vecs


def check_decodability(net: Network, coding: LocalCoding, sink: str, slot: int) -> bool:
    """True iff the sink's incoming global vectors have full rank n."""
    vecs = global_coding_vectors(net, coding, slot)
    rows = [list(vecs[l.id]) for l in net.in_links(sink)]
    if not rows:
        return coding.n == 0
    mat = FieldMatrix(coding.field, rows, ncols=coding.n)
    return mat.rank() == coding.n


def eavesdrop_matrix(
    net: Network, coding: LocalCoding, slots, layout: MultiplexLayout
) -> FieldMatrix:
    """Block-diagonal observation matrix for the given per-slot tap sets.

    Global coding vectors are computed once per run of equal slot maps.
    """
    if layout.n != coding.n:
        raise ShapeError(f"layout n = {layout.n} but coding n = {coding.n}")
    slots = [tuple(s) for s in slots]
    if len(slots) != layout.m:
        raise WrongSlotCount(f"got {len(slots)} tap sets for m = {layout.m} slots")
    mu = len(slots[0]) if slots else 0
    rows = []
    vecs = None
    for t, tapped in enumerate(slots):
        if len(set(tapped)) != len(tapped):
            raise DuplicateLink(f"slot {t} taps {tapped}, which repeats a link")
        if len(tapped) != mu:
            raise WrongSlotCount(f"slot {t} taps {len(tapped)} links, expected {mu}")
        if vecs is None or coding.slot_map(t) != coding.slot_map(t - 1):
            vecs = global_coding_vectors(net, coding, t)
        for link_id in tapped:
            net.link(link_id)
            row = [0] * layout.mn
            gv = vecs[link_id]
            row[t * layout.n:(t + 1) * layout.n] = list(gv)
            rows.append(row)
    return FieldMatrix(layout.field, rows, ncols=layout.mn)


def enumerate_eavesdropper_sets(net: Network, mu: int) -> list[tuple[str, ...]]:
    """All mu-subsets of links, sorted, at most MAX_TAP_SETS of them; the
    count is the constant C_E."""
    ids = sorted(net.link_ids())
    if mu > len(ids):
        raise InfeasibleMu(f"mu = {mu} exceeds the {len(ids)} links available")
    total = math.comb(len(ids), mu)
    if total > MAX_TAP_SETS:
        raise EnumerationTooLarge(f"{total} tap sets exceed {MAX_TAP_SETS}")
    return [tuple(c) for c in itertools.combinations(ids, mu)]


def _check_observation(layout: MultiplexLayout, B: FieldMatrix) -> None:
    """B observes words of `layout`: m*n columns over its field."""
    if B.field != layout.field or B.ncols != layout.mn:
        raise ShapeError(f"B must have m*n = {layout.mn} columns over GF({layout.q})")


def realize_eavesdropper(
    model: EavesdropperModel,
    net: Network | None,
    coding: LocalCoding | None,
    layout: MultiplexLayout,
    rng: random.Random,
) -> FieldMatrix:
    """Draw one realization of `model` and return its observation matrix:
    `eavesdrop_matrix` of the drawn tap sets, or for a direct model the drawn
    B itself, which needs no network.  mu, the network and its coding are
    checked before any draw."""
    if model.mu > layout.n:
        raise InfeasibleMu(f"mu = {model.mu} exceeds n = {layout.n}")
    if model.kind == "direct":
        return sample_full_rank(layout.field, model.mu * layout.m, layout.mn, rng)
    if net is None or coding is None:
        raise ValueError(f"{model.kind} model requires a network and its coding")
    ids = sorted(net.link_ids())
    if model.mu > len(ids):
        raise InfeasibleMu(f"mu = {model.mu} exceeds the {len(ids)} links available")
    if model.kind == "traditional":
        chosen = model.links or tuple(sorted(rng.sample(ids, model.mu)))
        slots = [chosen] * layout.m
    elif model.distribution is None:
        slots = [tuple(sorted(rng.sample(ids, model.mu))) for _ in range(layout.m)]
    else:
        sets = [s for s, _ in model.distribution]
        slots = rng.choices(sets, [w for _, w in model.distribution], k=layout.m)
    return eavesdrop_matrix(net, coding, slots, layout)


def constant_tap_observations(
    net: Network, coding: LocalCoding, mu: int, layout: MultiplexLayout
) -> list[tuple[tuple[str, ...], FieldMatrix]]:
    """(tap set, observation matrix) for every mu-subset tapped in all slots."""
    return [
        (s, eavesdrop_matrix(net, coding, [s] * layout.m, layout))
        for s in enumerate_eavesdropper_sets(net, mu)
    ]


def observation_support(
    model: EavesdropperModel,
    net: Network | None,
    coding: LocalCoding | None,
    layout: MultiplexLayout,
) -> list[tuple[FieldMatrix, float]] | None:
    """The distribution of the observation matrix, as (B, probability) pairs.

    None where it must be sampled: a direct model, no network or coding, or
    more than MAX_TAP_SETS statistical tap schedules.  A uniform traditional
    model over more than MAX_TAP_SETS tap sets raises EnumerationTooLarge.
    """
    if model.kind == "direct" or net is None or coding is None:
        return None
    if model.kind == "traditional":
        if model.links is not None:
            return [(eavesdrop_matrix(net, coding, [model.links] * layout.m, layout), 1.0)]
        taps = constant_tap_observations(net, coding, model.mu, layout)
        return [(B, 1.0 / len(taps)) for _, B in taps]
    dist = model.distribution
    size = len(dist) if dist is not None else math.comb(len(net.links), model.mu)
    if size ** layout.m > MAX_TAP_SETS:
        return None
    if dist is None:
        sets = enumerate_eavesdropper_sets(net, model.mu)
        per_slot = [(s, 1.0 / len(sets)) for s in sets]
    else:
        total = _ordered_sum(w for _, w in dist)
        per_slot = [(s, w / total) for s, w in dist]
    return [
        (eavesdrop_matrix(net, coding, [s for s, _ in combo], layout), math.prod(p for _, p in combo))
        for combo in itertools.product(per_slot, repeat=layout.m)
    ]


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def butterfly_network() -> Network:
    """The 7-node, 9-link butterfly multicast network."""
    nodes = ["s", "a", "b", "c", "d", "t1", "t2"]
    links = [
        Link("e1", "s", "a"),
        Link("e2", "s", "b"),
        Link("e3", "a", "c"),
        Link("e4", "b", "c"),
        Link("e5", "a", "t1"),
        Link("e6", "b", "t2"),
        Link("e7", "c", "d"),
        Link("e8", "d", "t1"),
        Link("e9", "d", "t2"),
    ]
    return Network(nodes, "s", links, ["t1", "t2"])


def butterfly_coding(field: FieldSpec, m: int) -> LocalCoding:
    """Standard all-ones butterfly coding; decodable over any field."""
    coeffs = {
        "e1": {0: 1},
        "e2": {1: 1},
        "e3": {"e1": 1},
        "e5": {"e1": 1},
        "e4": {"e2": 1},
        "e6": {"e2": 1},
        "e7": {"e3": 1, "e4": 1},
        "e8": {"e7": 1},
        "e9": {"e7": 1},
    }
    return LocalCoding.constant(field, 2, coeffs, m)


def parallel_network(n: int) -> Network:
    """n parallel source-to-sink links; the smallest n-input network."""
    nodes = ["s", "t"]
    links = [Link(f"e{j + 1}", "s", "t") for j in range(n)]
    return Network(nodes, "s", links, ["t"])


def parallel_coding(field: FieldSpec, n: int, m: int) -> LocalCoding:
    coeffs = {f"e{j + 1}": {j: 1} for j in range(n)}
    return LocalCoding.constant(field, n, coeffs, m)

