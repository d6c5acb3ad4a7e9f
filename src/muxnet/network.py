"""Linear network coding over acyclic delay-free multigraphs.

Global coding vectors are propagated in topological order from the source,
receiver decodability is a rank check on a sink's incoming vectors, and an
eavesdropper tapping mu links per slot observes the block-diagonal matrix
stacking the tapped links' global vectors, one mu x n block per time slot.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

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
from .matrix import FieldMatrix, _Echelon, sample_full_rank
from .multiplex import MultiplexLayout

# Largest number of tap sets enumerate_eavesdropper_sets lists, and of
# per-slot tap schedules observation_support lists for a statistical model.
MAX_TAP_SETS = 1 << 16


@dataclass(frozen=True)
class Link:
    id: str
    tail: str
    head: str


class Network:
    """Single-source acyclic directed multigraph with named links."""

    def __init__(self, nodes, source, links, sinks):
        self.nodes = tuple(nodes)
        self.source = source
        self.sinks = tuple(sinks)
        node_set = set(self.nodes)
        if source not in node_set:
            raise ValueError(f"source {source!r} is not a node")
        for s in self.sinks:
            if s not in node_set:
                raise ValueError(f"sink {s!r} is not a node")
        self.links: tuple[Link, ...] = tuple(
            l if isinstance(l, Link) else Link(l["id"], l["tail"], l["head"])
            for l in links
        )
        seen = set()
        for l in self.links:
            if l.id in seen:
                raise ValueError(f"duplicate link id {l.id!r}")
            seen.add(l.id)
            if l.tail not in node_set or l.head not in node_set:
                raise ValueError(f"link {l.id!r} references unknown nodes")
            if l.tail == l.head:
                raise CycleDetected(f"self-loop on node {l.tail!r}")
        self._by_id = {l.id: l for l in self.links}
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
            raise CycleDetected("link graph contains a directed cycle")
        return tuple(order)

    def link(self, link_id: str) -> Link:
        try:
            return self._by_id[link_id]
        except KeyError:
            raise ValueError(f"unknown link id {link_id!r}") from None

    def out_links(self, node: str) -> list[Link]:
        return list(self._out[node])

    def in_links(self, node: str) -> list[Link]:
        return list(self._in[node])

    def link_ids(self) -> tuple[str, ...]:
        return tuple(l.id for l in self.links)

    @classmethod
    def from_json(cls, doc: dict) -> "Network":
        return cls(doc["nodes"], doc["source"], doc["links"], doc["sinks"])


class LocalCoding:
    """Per-link combination coefficients, one map per time slot.

    For a link out of the source the inner map is keyed by source-input
    index (0..n-1); elsewhere it is keyed by incoming link id.  Keys absent
    from an inner map mean coefficient zero, but a link absent from a slot
    map altogether is an error.
    """

    def __init__(self, field: FieldSpec, n: int, slot_maps):
        self.field = field
        self.n = n
        self.slot_maps = tuple(dict(m) for m in slot_maps)
        if not self.slot_maps:
            raise WrongSlotCount("need at least one slot map")
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
            raise ValueError(
                f"source has {len(net.out_links(net.source))} outgoing links, needs {n}"
            )

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


@dataclass(frozen=True)
class EavesdropperModel:
    """Which links the eavesdropper sees, and how that choice is drawn.

    kind "traditional": one fixed mu-subset, constant over the block
    (links=None means uniformly random over all mu-subsets).
    kind "statistical": fresh mu-subset per slot from `distribution`
    (None means uniform; otherwise a list of (links, weight) pairs).
    kind "direct": a raw observation matrix, by default uniform over the
    full-rank mu*m x m*n matrices.
    """

    kind: str
    mu: int
    links: tuple[str, ...] | None = None
    distribution: tuple[tuple[tuple[str, ...], float], ...] | None = None
    matrices: tuple[tuple[FieldMatrix, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("traditional", "statistical", "direct"):
            raise ValueError(f"unknown eavesdropper kind {self.kind!r}")
        if self.mu < 1:
            raise ValueError("mu must be at least 1")
        if self.links is not None:
            links = tuple(self.links)
            if len(set(links)) != len(links):
                raise DuplicateLink(f"fixed tap set {links} repeats a link")
            if len(links) != self.mu:
                raise ValueError(f"fixed tap set has {len(links)} links, mu = {self.mu}")
            object.__setattr__(self, "links", links)
        if self.distribution is not None:
            entries = tuple((tuple(s), w) for s, w in self.distribution)
            for links, _ in entries:
                if len(set(links)) != len(links) or len(links) != self.mu:
                    raise DuplicateLink(f"distribution entry {links} is not a mu-subset")
            object.__setattr__(self, "distribution", entries)


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


def sample_eavesdropper(
    model: EavesdropperModel,
    net: Network | None,
    layout: MultiplexLayout,
    rng: random.Random,
):
    """Draw one eavesdropper realization.

    Returns a list of m tap sets for the traditional and statistical kinds,
    or the observation matrix for kind "direct".
    """
    if model.mu > layout.n:
        raise InfeasibleMu(f"mu = {model.mu} exceeds n = {layout.n}")
    if model.kind == "direct":
        if model.matrices is not None:
            mats = [m for m, _ in model.matrices]
            weights = [w for _, w in model.matrices]
            pick = rng.choices(range(len(mats)), weights=weights)[0]
            return mats[pick]
        mu_m = model.mu * layout.m
        if mu_m > layout.mn:
            raise InfeasibleMu(f"mu*m = {mu_m} rows exceed m*n = {layout.mn} columns")
        return sample_full_rank(layout.field, mu_m, layout.mn, rng)
    if net is None:
        raise ValueError(f"{model.kind} model requires a network")
    ids = sorted(net.link_ids())
    if model.mu > len(ids):
        raise InfeasibleMu(f"mu = {model.mu} exceeds the {len(ids)} links available")
    if model.kind == "traditional":
        if model.links is not None:
            chosen = tuple(model.links)
        else:
            chosen = tuple(sorted(rng.sample(ids, model.mu)))
        return [chosen] * layout.m
    # statistical: independent draw per slot
    out = []
    for _ in range(layout.m):
        if model.distribution is None:
            out.append(tuple(sorted(rng.sample(ids, model.mu))))
        else:
            sets = [s for s, _ in model.distribution]
            weights = [w for _, w in model.distribution]
            pick = rng.choices(range(len(sets)), weights=weights)[0]
            out.append(sets[pick])
    return out


def _check_observation(layout: MultiplexLayout, B: FieldMatrix) -> None:
    """B observes words of `layout`: m*n columns over its field."""
    if B.field != layout.field or B.ncols != layout.mn:
        raise ShapeError(f"B must have m*n = {layout.mn} columns over GF({layout.q})")


def observation_basis(layout: MultiplexLayout, B: FieldMatrix) -> _Echelon:
    """The row echelon basis of rowspace B, for B observing words of
    `layout`; shared bases are read, never changed."""
    _check_observation(layout, B)
    basis = _Echelon(layout.field)
    for row in B.rows_list():
        basis.insert(row)
    return basis


class ObservationSpaces:
    """A list of observation matrices with each distinct row space reduced
    once.

    What an eavesdropper learns from z = B x depends on B only through
    rowspace B, which `_Echelon.space_key` keys by its unique reduced form.
    `bases` holds one back-substituted `observation_basis` per distinct row
    space, in first-seen order, and `index[i]` is the position in `bases`
    of the i-th listed matrix's row space.
    """

    __slots__ = ("bases", "index")

    def __init__(self, layout: MultiplexLayout, matrices):
        self.bases: list[_Echelon] = []
        self.index: list[int] = []
        seen: dict[tuple, int] = {}
        for B in matrices:
            basis = observation_basis(layout, B)
            at = seen.setdefault(basis.space_key(), len(self.bases))
            if at == len(self.bases):
                self.bases.append(basis)
            self.index.append(at)


def realize_eavesdropper(
    model: EavesdropperModel,
    net: Network | None,
    coding: LocalCoding | None,
    layout: MultiplexLayout,
    rng: random.Random,
) -> FieldMatrix:
    """Draw a realization and materialize its observation matrix."""
    drawn = sample_eavesdropper(model, net, layout, rng)
    if isinstance(drawn, FieldMatrix):
        return drawn
    if net is None or coding is None:
        raise ValueError("tap-set models need a network and its coding")
    return eavesdrop_matrix(net, coding, drawn, layout)


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
        total = sum(w for _, w in dist)
        per_slot = [(s, w / total) for s, w in dist]
    return [
        (eavesdrop_matrix(net, coding, [s for s, _ in combo], layout), math.prod(p for _, p in combo))
        for combo in itertools.product(per_slot, repeat=layout.m)
    ]


# ---------------------------------------------------------------------------
# Presets and JSON wiring
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


def coding_from_json(
    net: Network,
    doc,
    field: FieldSpec,
    n: int,
    m: int,
    rng: random.Random | None = None,
) -> LocalCoding:
    """Parse the "coding" entry of a network document.

    "random" draws iid uniform coefficients (slot-constant), anything else
    must be a map link-id -> {in-key: coefficient}.
    """
    if doc == "random":
        if rng is None:
            raise ValueError("random coding needs an rng")
        return LocalCoding.random(net, field, n, m, rng)
    if not isinstance(doc, dict):
        raise ValueError(f'coding = {doc!r} is neither "random" nor an object')
    coeffs: dict = {}
    for link_id, inner in doc.items():
        if not isinstance(inner, dict):
            raise ValueError(f"coding[{link_id!r}] = {inner!r} is not an object")
        if net.link(link_id).tail == net.source:
            coeffs[link_id] = {_source_input(link_id, k, n): v for k, v in inner.items()}
        else:
            coeffs[link_id] = {str(k): v for k, v in inner.items()}
    return LocalCoding.constant(field, n, coeffs, m)


def _source_input(link_id: str, key, n: int) -> int:
    """A source link's coefficient key, a decimal string in a network
    document, as the source input index it names in 0..n-1."""
    text = str(key)
    if not (text.isdecimal() and int(text) < n):
        raise ValueError(f"coding[{link_id!r}][{text!r}] is not a source input in 0..{n - 1}")
    return int(text)
