"""Message layout, block projections, and the invertible-map encoder.

A block of m*n field symbols carries T secret messages of sizes k_1..k_T
plus one supplementary random block of size k_{T+1}.  The transmitted word
is the image of the concatenated blocks under the inverse of an invertible
linear map L; the receiver applies L and splits.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property

from .errors import EnumerationTooLarge, ShapeError, SingularMatrix
from .fields import FieldSpec, check_elements, is_element, random_symbols
from .matrix import FieldMatrix

MAX_MESSAGE_VECTORS = 1 << 16  # largest q^(m*n) that iter_message_vectors lists


@dataclass(frozen=True)
class MultiplexLayout:
    """Block structure (q, m, n, T, k_1..k_{T+1}) of one coding block.

    A bad value raises ValueError starting with its field, e.g. `k has 3
    block sizes, expected T + 1 = 2`."""

    field: FieldSpec
    m: int
    n: int
    T: int
    k: tuple[int, ...]

    def __post_init__(self):
        for name in ("m", "n", "T"):
            v = getattr(self, name)
            if not is_element(v, math.inf) or v < 1:
                raise ValueError(f"{name} = {v!r} is not a positive integer")
        object.__setattr__(self, "k", tuple(self.k))
        if len(self.k) != self.T + 1:
            raise ValueError(f"k has {len(self.k)} block sizes, expected T + 1 = {self.T + 1}")
        for i, v in enumerate(self.k):
            if not is_element(v, math.inf):
                raise ValueError(f"k[{i}] = {v!r} is not a nonnegative integer")
        if sum(self.k) != self.m * self.n:
            raise ValueError(f"k = {self.k} sums to {sum(self.k)}, expected m*n = {self.m * self.n}")
        # subset members -> their coordinates, filled by subset_coordinates
        object.__setattr__(self, "_coordinates", {})

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def mn(self) -> int:
        return self.m * self.n

    def offsets(self) -> tuple[int, ...]:
        out = [0]
        for v in self.k:
            out.append(out[-1] + v)
        return tuple(out)

    def subset_coordinates(self, subset: "SubsetIndex") -> tuple[int, ...]:
        """The subset's block coordinates, computed once per subset and kept
        on the layout."""
        coords = self._coordinates.get(subset.members)
        if coords is None:
            subset.validate_for(self)
            offs = self.offsets()
            coords = tuple(c for i in sorted(subset.members) for c in range(offs[i - 1], offs[i]))
            self._coordinates[subset.members] = coords
        return coords

    def subset_length(self, subset: "SubsetIndex") -> int:
        return len(self.subset_coordinates(subset))


@dataclass(frozen=True)
class SubsetIndex:
    """Nonempty subset of the secret-message indices {1..T}."""

    members: frozenset[int]

    def __init__(self, members):
        members = list(members)
        if not members:
            raise ValueError("subset must be nonempty")
        for i, v in enumerate(members):
            if not is_element(v, math.inf) or v < 1:
                raise ValueError(f"member {i} = {v!r} is not a 1-based message index")
        object.__setattr__(self, "members", frozenset(members))

    def validate_for(self, layout: MultiplexLayout) -> None:
        if max(self.members) > layout.T:
            raise ValueError(f"subset {self.label} exceeds T = {layout.T}")

    @cached_property
    def label(self) -> str:
        return "+".join(str(i) for i in sorted(self.members))


def all_nonempty_subsets(T: int) -> list[SubsetIndex]:
    out = []
    for r in range(1, T + 1):
        for combo in itertools.combinations(range(1, T + 1), r):
            out.append(SubsetIndex(combo))
    return out


@dataclass(frozen=True)
class MessageTuple:
    """The T+1 message blocks of one coding block."""

    blocks: tuple[tuple[int, ...], ...]

    def concat(self) -> list[int]:
        return [v for block in self.blocks for v in block]

    @classmethod
    def from_vector(cls, layout: MultiplexLayout, vec) -> "MessageTuple":
        vec = list(vec)
        if len(vec) != layout.mn:
            raise ShapeError(f"vector length {len(vec)} != m*n = {layout.mn}")
        check_elements(vec, layout.q, "message symbol")
        return cls._split(layout, vec)

    @classmethod
    def _split(cls, layout: MultiplexLayout, vec: list[int]) -> "MessageTuple":
        """The blocks of m*n canonical symbols the library computed itself,
        so `from_vector`'s checks are skipped."""
        offs = layout.offsets()
        return cls(tuple(tuple(vec[offs[i]:offs[i + 1]]) for i in range(layout.T + 1)))

    @classmethod
    def random(cls, layout: MultiplexLayout, rng: random.Random) -> "MessageTuple":
        return cls(tuple(tuple(random_symbols(rng, layout.q, sz)) for sz in layout.k))


def projection_matrix(layout: MultiplexLayout, subset: SubsetIndex) -> FieldMatrix:
    """Selection matrix extracting the blocks in `subset` from the concatenation."""
    coords = layout.subset_coordinates(subset)
    rows = []
    for c in coords:
        row = [0] * layout.mn
        row[c] = 1
        rows.append(row)
    return FieldMatrix(layout.field, rows, ncols=layout.mn)


def _check_map(layout: MultiplexLayout, L: FieldMatrix) -> None:
    if L.field != layout.field:
        raise ShapeError("map and layout disagree on the field")
    if L.nrows != layout.mn or L.ncols != layout.mn:
        raise ShapeError(f"map must be {layout.mn}x{layout.mn}, got {L.nrows}x{L.ncols}")


def encode(layout: MultiplexLayout, L: FieldMatrix, msgs: MessageTuple) -> list[int]:
    """Transmitted word: the preimage under L of the concatenated blocks."""
    _check_map(layout, L)
    s = msgs.concat()
    if len(s) != layout.mn:
        raise ShapeError("message blocks do not match the layout")
    check_elements(s, layout.q, "message symbol")
    return L._solve(s)  # s is checked: skip solve's second pass over it


def decode(layout: MultiplexLayout, L: FieldMatrix, x) -> MessageTuple:
    """Apply L to the received word and split into blocks; exact inverse of encode."""
    _check_map(layout, L)
    x = list(x)
    if len(x) != layout.mn:
        raise ShapeError(f"received word length {len(x)} != m*n = {layout.mn}")
    check_elements(x, layout.q, "received symbol")
    if not L.is_invertible():
        raise SingularMatrix(
            f"decoding map of rank {L.rank()} < {L.nrows} is not invertible"
        )
    return MessageTuple._split(layout, L._mul_vector(x))  # x is checked once, above


def iter_message_vectors(layout: MultiplexLayout):
    """All q^(m*n) concatenated message vectors, in digit order (the last
    coordinate varies fastest), at most MAX_MESSAGE_VECTORS of them."""
    total = layout.q ** layout.mn
    if total > MAX_MESSAGE_VECTORS:
        raise EnumerationTooLarge(f"q^mn = {total} exceeds {MAX_MESSAGE_VECTORS}")
    return itertools.product(range(layout.q), repeat=layout.mn)


def hash_collision_probability(layout: MultiplexLayout, subset: SubsetIndex) -> Fraction:
    """Worst-case collision probability of the projected random bijection.

    For distinct words x1, x2 a collision means the projection of
    L(x1 - x2) vanishes.  For any fixed nonzero difference d, L d is
    uniform over the nonzero vectors, so the collision probability is
    (#nonzero vectors killed by the projection) / (q^mn - 1), the same
    for every d.  Returned as an exact rational.
    """
    from fractions import Fraction  # only this exact-rational path needs it

    k_sub = layout.subset_length(subset)
    kernel_size = layout.q ** (layout.mn - k_sub)
    return Fraction(kernel_size - 1, layout.q ** layout.mn - 1)
