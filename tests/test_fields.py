"""Field arithmetic: pinned examples, axioms, and inverse properties."""

import hashlib
import json
import random

import pytest

from muxnet import GF, fields
from muxnet.fields import FieldSpec, _digits, _factor_prime_power, _poly_is_irreducible, _undigits


def egcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = egcd(b, a % b)
    return g, y, x - (a // b) * y


def digit_reference(f):
    """(add, neg) of f coefficientwise on base-p digits: the reference for
    the table lookups.  Digit lists are built once per element."""
    p, e = f.p, f.e
    digits = [_digits(a, p, e) for a in range(f.q)]

    def add(a, b):
        return _undigits([(x + y) % p for x, y in zip(digits[a], digits[b])], p)

    def neg(a):
        return _undigits([-x % p for x in digits[a]], p)

    return add, neg


def all_prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            _factor_prime_power(q)
            out.append(q)
        except ValueError:
            pass
    return out


# ---------------------------------------------------------
# Pinned arithmetic examples
# ---------------------------------------------------------

def test_gf2_addition_characteristic_two():
    f = GF(2)
    assert f.add(1, 1) == 0


def test_gf5_add_and_mul():
    f = GF(5)
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2


def test_gf4_polynomial_arithmetic():
    # modulus x^2 + x + 1: alpha encodes as 2, alpha + 1 as 3
    f = GF(4)
    assert f.modulus == (1, 1, 1)
    assert f.add(2, 3) == 1
    assert f.mul(2, 2) == 3  # x^2 mod (x^2 + x + 1) = x + 1


def test_gf2_mul_absorbing_zero():
    f = GF(2)
    assert f.mul(1, 0) == 0


def test_inverses_pinned():
    assert GF(5).inv(3) == 2
    assert GF(2).inv(1) == 1


def test_gf7_inverse_matches_extended_euclid():
    f = GF(7)
    g, x, _ = egcd(4, 7)
    assert g == 1
    assert f.inv(4) == x % 7 == 2


def test_zero_has_no_inverse():
    for q in (2, 5, 8, 9):
        with pytest.raises(ZeroDivisionError):
            GF(q).inv(0)


# ---------------------------------------------------------
# Field axioms, exhaustive for q in {2, 3, 4, 5, 8, 9}
# ---------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms_exhaustive(q):
    f = GF(q)
    elems = list(f.elements())
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_inverse_property_exhaustive_up_to_256():
    for q in all_prime_powers(256):
        f = GF(q)
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1


# ---------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------

def test_non_prime_power_rejected():
    for q in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            FieldSpec(q)


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x + 1)^2 over GF(2)
    with pytest.raises(ValueError):
        FieldSpec(4, (1, 0, 1))


def test_explicit_modulus_changes_encoding():
    # x^2 + x + 2 is irreducible over GF(3)
    assert _poly_is_irreducible((2, 1, 1), 3)
    f = GF(9, (2, 1, 1))
    assert f.modulus == (2, 1, 1)
    # x * x = x^2 = -x - 2 = 2x + 1, encoded 1 + 2*3 = 7
    assert f.mul(3, 3) == 7


def test_default_odd_extension_modulus_is_deterministic():
    assert GF(9).modulus == (1, 0, 1)  # x^2 + 1, the first irreducible in digit order
    # candidates below x^3 + 2x + 1 all have a root in GF(3)
    assert GF(27).modulus == (1, 2, 0, 1)


def test_prime_field_takes_no_modulus():
    with pytest.raises(ValueError):
        FieldSpec(5, (1, 1))


def test_field_size_cap():
    with pytest.raises(ValueError):
        FieldSpec((1 << 16) + 1 + 2)  # 65539 is prime and above the cap


def test_large_binary_and_odd_extensions():
    f = GF(256)
    assert f.mul(f.inv(200), 200) == 1
    f = GF(81)
    for a in (1, 5, 80, 42):
        assert f.mul(a, f.inv(a)) == 1


def test_gf_cache_shares_instances(monkeypatch):
    assert GF(16) is GF(16)
    assert GF(4, (1, 1, 1)) is GF(4)
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    builds = []
    build_tables = FieldSpec._build_tables
    monkeypatch.setattr(
        FieldSpec, "_build_tables", lambda self: builds.append(self.q) or build_tables(self)
    )
    # Every spelling of the default modulus, in either order, is one field.
    assert GF(4, (1, 1, 1)) is GF(4) is GF(4, [1, 1, 1])
    assert GF(9) is GF(9, GF(9).modulus)
    # A repeat call is a lookup: only the first call of a spelling builds.
    builds.clear()
    for _ in range(3):
        GF(4), GF(4, (1, 1, 1)), GF(9), GF(81), GF(2)
    assert builds == [81]
    with pytest.raises(TypeError):
        GF(4.0)


def test_odd_extension_exp_tables_are_pinned():
    # The exp tables (powers of each field's generator) fix every product;
    # pinned so a change to the raw multiplication cannot move them.
    tables = [GF(q)._exp for q in (9, 25, 27, 81, 243, 6561)]
    digest = hashlib.sha256(json.dumps(tables).encode()).hexdigest()
    assert digest == "4c849669c5137a784fa9c835d1fae2437de535374e635ef9abc49927d634a125"


def test_binary_extension_exp_tables_are_pinned():
    # The same pin for characteristic 2, e = 2..16 (default moduli).
    tables = [GF(2**e)._exp for e in range(2, 17)]
    digest = hashlib.sha256(json.dumps(tables).encode()).hexdigest()
    assert digest == "1d4bbcf17a865ed201c593ad344296a91e42fc55296f7df4b3f5d795991a4946"


@pytest.mark.parametrize("q", [9, 27, 125, 343, 1331, 4913, 50653, 59049])
def test_odd_extension_exp_tables_step_by_the_generator(q):
    # The table is stepped by a digit-table multiply-by-g map; the
    # polynomial product `_mul_raw` is the reference.  Cubes of large
    # primes give the most uneven split of the digits.
    f = GF(q)
    exp, g = f._exp, f._exp[1]
    assert sorted(exp) == list(range(1, q))
    for i in random.Random(q).sample(range(q - 1), min(q - 1, 2000)):
        assert exp[(i + 1) % (q - 1)] == f._mul_raw(exp[i], g), i


# ---------------------------------------------------------
# add, sub and neg against references
# ---------------------------------------------------------

ODD_EXTENSIONS = [q for q in all_prime_powers(729) if q % 2 and _factor_prime_power(q)[1] > 1]


@pytest.mark.parametrize("q", ODD_EXTENSIONS)
def test_odd_extension_ops_match_digit_reference_exhaustive(q):
    f = GF(q)
    add, neg = digit_reference(f)
    negs = [neg(a) for a in range(q)]
    assert [f.neg(a) for a in range(q)] == negs
    for a in range(q):
        sums = [add(a, b) for b in range(q)]
        assert [f.add(a, b) for b in range(q)] == sums, a
        assert [f.sub(a, b) for b in range(q)] == [sums[nb] for nb in negs], a


@pytest.mark.parametrize("q", [2187, 6561, 15625, 16807, 59049])
def test_odd_extension_ops_match_digit_reference_seeded(q):
    f = GF(q)
    add, neg = digit_reference(f)
    rng = random.Random(q)
    for _ in range(20_000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert f.neg(b) == neg(b)
        assert f.add(a, b) == add(a, b)
        assert f.sub(a, b) == add(a, neg(b))
    # Every ratio b / a once, so every Zech entry (the zero sums included)
    # is read by add and by sub; a uniform draw misses most of them.
    for c in range(1, q):
        a = rng.randrange(1, q)
        b = f.mul(a, c)
        assert f.add(a, b) == add(a, b), (a, b)
        assert f.sub(a, b) == add(a, neg(b)), (a, b)
    for b in rng.sample(range(q), 100):
        assert f.add(0, b) == f.add(b, 0) == b
        assert f.sub(0, b) == neg(b)
        assert f.sub(b, 0) == b


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 16, 256])
def test_sub_is_add_of_neg_exhaustive(q):
    f = GF(q)
    for a in range(q):
        assert [f.sub(a, b) for b in range(q)] == [f.add(a, f.neg(b)) for b in range(q)]


@pytest.mark.parametrize("q", [65521, 65536])
def test_sub_is_add_of_neg_seeded(q):
    f = GF(q)
    rng = random.Random(q)
    for _ in range(20_000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert f.sub(a, b) == f.add(a, f.neg(b))
