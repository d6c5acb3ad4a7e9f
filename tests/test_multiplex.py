"""Layout, projections, encoder bijectivity, and two-universality."""

import itertools
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from muxnet import (
    GF,
    FieldMatrix,
    HashFamilySpec,
    MessageTuple,
    MultiplexLayout,
    SubsetIndex,
    all_nonempty_subsets,
    decode,
    encode,
    enumerate_gl,
    hash_collision_probability,
    projection_matrix,
    sample_gl,
)
from muxnet.errors import EnumerationTooLarge, ShapeError, SingularMatrix
from muxnet import multiplex
from muxnet.multiplex import MAX_MESSAGE_VECTORS, iter_message_vectors
from muxnet.verification import _enumerate_layouts


def enumerate_layouts(q, mn, m=1):
    """All block layouts with the given total, T ranging over 1..mn."""
    f = GF(q)
    out = []
    for T in range(1, mn + 1):
        for cuts in itertools.combinations(range(mn + T), T):
            parts, prev = [], -1
            for c in cuts:
                parts.append(c - prev - 1)
                prev = c
            parts.append(mn + T - 1 - prev)
            out.append(MultiplexLayout(f, m, mn // m, T, tuple(parts)))
    return out


# ---------------------------------------------------------
# layout validation
# ---------------------------------------------------------

def test_layout_requires_sizes_summing_to_mn():
    with pytest.raises(ValueError):
        MultiplexLayout(GF(2), 1, 2, 1, (1, 2))
    with pytest.raises(ValueError):
        MultiplexLayout(GF(2), 1, 2, 1, (3,))
    with pytest.raises(ValueError):
        MultiplexLayout(GF(2), 1, 2, 0, (2,))


def test_subset_validation():
    layout = MultiplexLayout(GF(2), 1, 2, 1, (1, 1))
    with pytest.raises(ValueError):
        SubsetIndex(set())
    with pytest.raises(ValueError):
        layout.subset_length(SubsetIndex({2}))
    assert layout.subset_length(SubsetIndex({1})) == 1


# ---------------------------------------------------------
# projection
# ---------------------------------------------------------

def test_projection_first_coordinate():
    layout = MultiplexLayout(GF(2), 1, 2, 1, (1, 1))
    P = projection_matrix(layout, SubsetIndex({1}))
    assert P.as_tuples() == ((1, 0),)


def test_projection_block_structure():
    layout = MultiplexLayout(GF(5), 1, 4, 2, (2, 1, 1))
    P = projection_matrix(layout, SubsetIndex({1, 2}))
    assert P.nrows == 3 and P.ncols == 4
    assert P.as_tuples() == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def test_projection_full_map_is_identity():
    layout = MultiplexLayout(GF(2), 1, 2, 2, (1, 1, 0))
    P = projection_matrix(layout, SubsetIndex({1, 2}))
    assert P == FieldMatrix.identity(GF(2), 2)


def test_projection_extracts_blocks():
    rng = random.Random(2)
    layout = MultiplexLayout(GF(7), 1, 5, 2, (2, 1, 2))
    msgs = MessageTuple.random(layout, rng)
    sub = SubsetIndex({1, 2})
    P = projection_matrix(layout, sub)
    assert P.mul_vector(msgs.concat()) == list(msgs.blocks[0]) + list(msgs.blocks[1])


# ---------------------------------------------------------
# encode / decode
# ---------------------------------------------------------

def test_encode_identity_map_is_concatenation():
    layout = MultiplexLayout(GF(2), 1, 3, 1, (2, 1))
    msgs = MessageTuple(((1, 0), (1,)))
    assert encode(layout, FieldMatrix.identity(GF(2), 3), msgs) == [1, 0, 1]


def test_encode_zero_messages():
    rng = random.Random(3)
    layout = MultiplexLayout(GF(3), 1, 3, 1, (2, 1))
    L = sample_gl(3, GF(3), rng)
    msgs = MessageTuple(((0, 0), (0,)))
    assert encode(layout, L, msgs) == [0, 0, 0]


def test_encode_swap_example():
    layout = MultiplexLayout(GF(2), 1, 2, 1, (1, 1))
    L = FieldMatrix(GF(2), [[0, 1], [1, 0]])
    msgs = MessageTuple(((1,), (0,)))
    assert encode(layout, L, msgs) == [0, 1]
    assert decode(layout, L, [0, 1]) == msgs


def test_decode_identity_split():
    layout = MultiplexLayout(GF(2), 1, 3, 1, (2, 1))
    out = decode(layout, FieldMatrix.identity(GF(2), 3), [1, 0, 1])
    assert out.blocks == ((1, 0), (1,))


def test_decode_errors():
    layout = MultiplexLayout(GF(2), 1, 2, 1, (1, 1))
    with pytest.raises(ShapeError):
        decode(layout, FieldMatrix.identity(GF(2), 2), [1, 0, 1])
    singular = FieldMatrix(GF(2), [[1, 0], [1, 0]])
    with pytest.raises(SingularMatrix):
        decode(layout, singular, [1, 0])
    with pytest.raises(SingularMatrix):
        encode(layout, singular, MessageTuple(((1,), (0,))))


@pytest.mark.parametrize("symbol", [1.5, 2.0, True, False, -1, 5, 7])
def test_symbols_must_be_field_elements(symbol):
    # The rule for matrix entries: a plain int in [0, q), named by index.
    f = GF(5)
    layout = MultiplexLayout(f, 1, 3, 1, (2, 1))
    L = sample_gl(3, f, random.Random(3))
    word = [1, 2, symbol]
    message = rf"symbol 2 = {re.escape(repr(symbol))} is not an integer in \[0, 5\)"
    with pytest.raises(ValueError, match=message):
        MessageTuple.from_vector(layout, word)
    with pytest.raises(ValueError, match=message):
        decode(layout, L, word)


def test_roundtrip_random():
    rng = random.Random(5)
    for q in (2, 3, 4, 5, 9, 16, 25):
        f = GF(q)
        layout = MultiplexLayout(f, 2, 2, 2, (1, 2, 1))
        for _ in range(20):
            L = sample_gl(4, f, rng)
            msgs = MessageTuple.random(layout, rng)
            assert decode(layout, L, encode(layout, L, msgs)) == msgs


def test_encode_bijection_exhaustive():
    rng = random.Random(9)
    for q, mn in ((2, 2), (2, 4), (3, 3)):
        f = GF(q)
        for layout in enumerate_layouts(q, mn)[:6]:
            L = sample_gl(mn, f, rng)
            images = {
                tuple(encode(layout, L, MessageTuple.from_vector(layout, vec)))
                for vec in iter_message_vectors(layout)
            }
            assert len(images) == q**mn


def test_encode_linearity():
    rng = random.Random(6)
    f = GF(9)
    layout = MultiplexLayout(f, 1, 4, 2, (1, 2, 1))
    for _ in range(30):
        L = sample_gl(4, f, rng)
        m1 = MessageTuple.random(layout, rng)
        m2 = MessageTuple.random(layout, rng)
        a = f.rand(rng)
        combo = MessageTuple.from_vector(
            layout, [f.add(f.mul(a, x), y) for x, y in zip(m1.concat(), m2.concat())]
        )
        want = [
            f.add(f.mul(a, x), y)
            for x, y in zip(encode(layout, L, m1), encode(layout, L, m2))
        ]
        assert encode(layout, L, combo) == want


# ---------------------------------------------------------
# two-universality
# ---------------------------------------------------------

def test_collision_probability_pinned_one_third():
    layout = MultiplexLayout(GF(2), 1, 2, 1, (1, 1))
    p = hash_collision_probability(layout, SubsetIndex({1}))
    assert p == Fraction(1, 3)
    assert p <= Fraction(1, 2)


def test_collision_probability_full_map_never_collides():
    layout = MultiplexLayout(GF(2), 1, 2, 2, (1, 1, 0))
    assert hash_collision_probability(layout, SubsetIndex({1, 2})) == Fraction(0)


def test_collision_probability_gf3():
    layout = MultiplexLayout(GF(3), 1, 2, 1, (1, 1))
    p = hash_collision_probability(layout, SubsetIndex({1}))
    assert p <= Fraction(1, 3)
    assert p == Fraction(2, 8)


def test_collision_probability_matches_gl_enumeration_oracle():
    # Independent oracle: count collisions over the explicit family.
    for q in (2, 3):
        f = GF(q)
        layout = MultiplexLayout(f, 1, 2, 1, (1, 1))
        sub = SubsetIndex({1})
        coords = layout.subset_coordinates(sub)
        mats = enumerate_gl(2, f)
        vectors = list(itertools.product(range(q), repeat=2))
        worst = Fraction(0)
        for x1, x2 in itertools.combinations(vectors, 2):
            hits = 0
            for L in mats:
                i1 = L.mul_vector(list(x1))
                i2 = L.mul_vector(list(x2))
                if all(i1[c] == i2[c] for c in coords):
                    hits += 1
            worst = max(worst, Fraction(hits, len(mats)))
        assert worst == hash_collision_probability(layout, sub)
    # The closed form against the enumerated projection family, for every
    # layout verify checks whose GL(mn, q) has at most 168 elements.
    pairs = 0
    for q, max_mn in ((2, 3), (3, 2)):
        for mn in range(1, max_mn + 1):
            for layout in _enumerate_layouts(q, mn):
                for sub in all_nonempty_subsets(layout.T):
                    family = HashFamilySpec.projection_family(layout, sub)
                    assert family.is_two_universal()[1] == hash_collision_probability(layout, sub)
                    pairs += 1
    assert pairs == 220


def test_two_universal_all_small_layouts():
    for q in (2, 3):
        for mn in (1, 2, 3, 4):
            for layout in enumerate_layouts(q, mn):
                for sub in all_nonempty_subsets(layout.T):
                    p = hash_collision_probability(layout, sub)
                    k_sub = layout.subset_length(sub)
                    assert p <= Fraction(1, q**k_sub)


def test_enumeration_cap():
    layout = MultiplexLayout(GF(2), 5, 4, 1, (10, 10))
    with pytest.raises(EnumerationTooLarge):
        list(iter_message_vectors(layout))


def test_message_enumeration_bound(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("enumeration started before the bound was checked")

    monkeypatch.setattr(multiplex, "itertools", SimpleNamespace(product=no_work))
    with pytest.raises(EnumerationTooLarge, match="131072"):
        iter_message_vectors(MultiplexLayout(GF(2), 1, 17, 1, (9, 8)))  # 2^17
    monkeypatch.undo()
    assert MAX_MESSAGE_VECTORS == 1 << 16
    # 2^16 vectors are accepted; the iterator is lazy and left unconsumed
    iter_message_vectors(MultiplexLayout(GF(2), 1, 16, 1, (8, 8)))


@pytest.mark.parametrize("k, index", [
    ((1.5, 1.5), 0), ((2, 1.0), 1), ((True, 2), 0), (("1", 2), 0), ((3, -1), 1),
])
def test_layout_sizes_are_never_coerced(k, index):
    with pytest.raises(ValueError, match=rf"k\[{index}\] = .* is not a nonnegative integer"):
        MultiplexLayout(GF(2), 1, 2, 1, k)


@pytest.mark.parametrize("name, args", [
    ("m", (1.0, 2, 1)), ("n", (1, 2.0, 1)), ("T", (1, 2, True)), ("m", (0, 2, 1)),
])
def test_layout_shape_is_never_coerced(name, args):
    with pytest.raises(ValueError, match=rf"{name} = .* is not a positive integer"):
        MultiplexLayout(GF(2), *args, (1, 1))


@pytest.mark.parametrize("members", [[1.9], ["2"], [True], [1, 2.0], [0], []])
def test_subset_members_are_never_coerced(members):
    with pytest.raises(ValueError, match="message index|nonempty"):
        SubsetIndex(members)
