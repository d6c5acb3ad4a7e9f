"""Message layout, block projections, and the invertible-map encoder.

A block of m*n field symbols carries T secret messages of sizes k_1..k_T
plus one supplementary random block of size k_{T+1}.  The transmitted word
is the image of the concatenated blocks under the inverse of an invertible
linear map L; the receiver applies L and splits.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random

from .errors import EnumerationTooLarge, ShapeError, SingularMatrix
from .fields import FieldSpec, check_elements, is_element, random_symbols
from .matrix import FieldMatrix

MAX_MESSAGE_VECTORS = 1 << 16  # largest q^(m*n) that iter_message_vectors lists


def _ordered_sum(values):
    """The sum of `values` added left to right from the integer 0, as
    `sum()` adds on Python 3.10 and 3.11; from 3.12 `sum()` compensates
    float rounding and changes last digits.  Every float total in the
    library is this one, so a seed names one report on every Python."""
    return functools.reduce(operator.add, values, 0)


class _Record:
    """Base of the library's value records.  A record keeps each name of
    `_fields`, in constructor order, in a slot; the repr, value equality
    and hash are those of a dataclass with those fields.  A record is
    equal only to a record of its own class."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set_fields(self, *values) -> None:
        # object.__setattr__ passes a frozen record's guard
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self):
        # copy and pickle rebuild the record through its constructor
        return self.__class__, self._values()


class _FrozenRecord(_Record):
    """A record whose fields `__init__` alone sets, with `object.__setattr__`;
    assigning or deleting one afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MultiplexLayout(_FrozenRecord):
    """Block structure (q, m, n, T, k_1..k_{T+1}) of one coding block.

    A bad value raises ValueError starting with its field, e.g. `k has 3
    block sizes, expected T + 1 = 2`."""

    __slots__ = ("field", "m", "n", "T", "k", "mn", "_offsets", "_coordinates")
    _fields = ("field", "m", "n", "T", "k")

    def __init__(self, field: FieldSpec, m: int, n: int, T: int, k: tuple[int, ...]):
        for name, v in (("m", m), ("n", n), ("T", T)):
            if not is_element(v, math.inf) or v < 1:
                raise ValueError(f"{name} = {v!r} is not a positive integer")
        k = tuple(k)
        if len(k) != T + 1:
            raise ValueError(f"k has {len(k)} block sizes, expected T + 1 = {T + 1}")
        for i, v in enumerate(k):
            if not is_element(v, math.inf):
                raise ValueError(f"k[{i}] = {v!r} is not a nonnegative integer")
        if sum(k) != m * n:
            raise ValueError(f"k = {k} sums to {sum(k)}, expected m*n = {m * n}")
        setattr_ = object.__setattr__
        setattr_(self, "field", field)
        setattr_(self, "m", m)
        setattr_(self, "n", n)
        setattr_(self, "T", T)
        setattr_(self, "k", k)
        # m*n and the block offsets follow from the fields: computed here
        # once, they are not fields themselves
        setattr_(self, "mn", m * n)
        offsets = [0]
        for v in k:
            offsets.append(offsets[-1] + v)
        setattr_(self, "_offsets", tuple(offsets))
        # subset members -> their coordinates, filled by subset_coordinates
        setattr_(self, "_coordinates", {})

    @property
    def q(self) -> int:
        return self.field.q

    def offsets(self) -> tuple[int, ...]:
        """Where each block starts in the concatenation, then m*n."""
        return self._offsets

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


class SubsetIndex(_FrozenRecord):
    """Nonempty subset of the secret-message indices {1..T}; `label` names
    it by its sorted members, e.g. `1+3`."""

    __slots__ = ("members", "label")
    _fields = ("members",)

    def __init__(self, members):
        members = list(members)
        if not members:
            raise ValueError("subset must be nonempty")
        for i, v in enumerate(members):
            if not is_element(v, math.inf) or v < 1:
                raise ValueError(f"member {i} = {v!r} is not a 1-based message index")
        members = frozenset(members)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "label", "+".join(str(i) for i in sorted(members)))

    def validate_for(self, layout: MultiplexLayout) -> None:
        if max(self.members) > layout.T:
            raise ValueError(f"subset {self.label} exceeds T = {layout.T}")


def all_nonempty_subsets(T: int) -> list[SubsetIndex]:
    out = []
    for r in range(1, T + 1):
        for combo in itertools.combinations(range(1, T + 1), r):
            out.append(SubsetIndex(combo))
    return out


class MessageTuple(_FrozenRecord):
    """The T+1 message blocks of one coding block, as a tuple of tuples."""

    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "blocks", tuple(map(tuple, blocks)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.blocks == other.blocks
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.blocks,))

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
        return cls([vec[offs[i]:offs[i + 1]] for i in range(layout.T + 1)])

    @classmethod
    def random(cls, layout: MultiplexLayout, rng: random.Random) -> "MessageTuple":
        return cls([random_symbols(rng, layout.q, sz) for sz in layout.k])


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
    rank = L.rank()
    if rank != L.nrows:
        raise SingularMatrix(f"decoding map of rank {rank} < {L.nrows} is not invertible")
    return MessageTuple._split(layout, L._mul_vector(x))  # x is checked once, above


def iter_message_vectors(layout: MultiplexLayout):
    """All q^(m*n) concatenated message vectors, in digit order (the last
    coordinate varies fastest), at most MAX_MESSAGE_VECTORS of them."""
    total = layout.q ** layout.mn
    if total > MAX_MESSAGE_VECTORS:
        raise EnumerationTooLarge(f"q^mn = {total} exceeds {MAX_MESSAGE_VECTORS}")
    return itertools.product(range(layout.q), repeat=layout.mn)


_Fraction = None  # fractions.Fraction, once hash_collision_probability has run


def hash_collision_probability(layout: MultiplexLayout, subset: SubsetIndex) -> Fraction:
    """Worst-case collision probability of the projected random bijection.

    For distinct words x1, x2 a collision means the projection of
    L(x1 - x2) vanishes.  For any fixed nonzero difference d, L d is
    uniform over the nonzero vectors, so the collision probability is
    (#nonzero vectors killed by the projection) / (q^mn - 1), the same
    for every d.  Returned as an exact rational.
    """
    global _Fraction
    if _Fraction is None:  # bound on the first call: the codec never loads fractions
        from fractions import Fraction as _Fraction
    k_sub = layout.subset_length(subset)
    kernel_size = layout.q ** (layout.mn - k_sub)
    return _Fraction(kernel_size - 1, layout.q ** layout.mn - 1)
