"""Exact arithmetic in finite fields GF(q), q = p**e, up to 2**16.

Elements are canonical integers in [0, q).  Prime fields store the residue
itself; extension fields store the base-p digits of the polynomial
representation, constant coefficient first, so GF(4) with modulus
x^2 + x + 1 encodes x as 2 and x + 1 as 3.

Moduli are little-endian monic coefficient tuples over GF(p).  The binary
fields GF(4) .. GF(256) ship with the usual primitive default moduli; any
other extension accepts an explicit modulus or falls back to the smallest
irreducible polynomial in digit order, which keeps element encodings
reproducible across runs.

Every scalar op is a constant number of steps.  Extension fields multiply
through exp/log tables of a generator g, and odd-characteristic ones add,
subtract and negate through a table of Zech logarithms, log(1 + g^k); the
tables are built once per field in O(q).

The row primitives `row_sub_scaled`, `row_scale` and `row_dot` do the same
arithmetic a whole row at a time: one branch on the field family per call
and inline arithmetic per cell.  Elimination and matrix products run on
them; the scalar ops stay the reference they are tested against.
"""

from __future__ import annotations

import itertools
import operator
import random

MAX_FIELD_SIZE = 1 << 16

# Primitive polynomials for GF(2^e), e = 2..8, little-endian coefficients.
_DEFAULT_BINARY_MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),                    # x^2 + x + 1
    8: (1, 1, 0, 1),                 # x^3 + x + 1
    16: (1, 1, 0, 0, 1),             # x^4 + x + 1
    32: (1, 0, 1, 0, 0, 1),          # x^5 + x^2 + 1
    64: (1, 1, 0, 0, 0, 0, 1),       # x^6 + x + 1
    128: (1, 0, 0, 1, 0, 0, 0, 1),   # x^7 + x^3 + 1
    256: (1, 0, 1, 1, 1, 0, 0, 0, 1),  # x^8 + x^4 + x^3 + x^2 + 1
}


def is_element(value, q) -> bool:
    """True iff value is a plain int in [0, q): the canonical encoding of an
    element of GF(q), and the library's one test for an integer in a range.
    Nothing is coerced: bool (an int subclass), float and str fail whatever
    their value."""
    return type(value) is int and 0 <= value < q


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError(f"field size must be at least 2, got {q}")
    p = q
    for d in range(2, q):
        if d * d > q:
            break
        if q % d == 0:
            p = d
            break
    e = 0
    n = q
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise ValueError(f"field size {q} is not a prime power")
    return p, e


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _digits(value: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(value % p)
        value //= p
    return out


def _undigits(digits: list[int], p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


# ---------------------------------------------------------------------------
# Polynomials over GF(p), little-endian coefficient lists.
# ---------------------------------------------------------------------------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        av = a[i] if i < len(a) else 0
        bv = b[i] if i < len(b) else 0
        out[i] = (av - bv) % p
    return _poly_trim(out)


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av == 0:
            continue
        for j, bv in enumerate(b):
            out[i + j] = (out[i + j] + av * bv) % p
    return _poly_trim(out)


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    a = _poly_trim(list(a))
    deg_m = len(mod) - 1
    lead_inv = pow(mod[-1], -1, p)
    while len(a) - 1 >= deg_m and a:
        shift = len(a) - 1 - deg_m
        factor = a[-1] * lead_inv % p
        for i, mv in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * mv) % p
        _poly_trim(a)
    return a


def _poly_powmod(base: list[int], exp: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(base, mod, p)
    while exp:
        if exp & 1:
            result = _poly_mod(_poly_mul(result, base, p), mod, p)
        base = _poly_mod(_poly_mul(base, base, p), mod, p)
        exp >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _poly_is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """Rabin test: f of degree e is irreducible over GF(p) iff
    x^(p^e) == x mod f and gcd(x^(p^(e/r)) - x, f) = 1 for prime r | e."""
    e = len(mod) - 1
    if e < 1 or mod[-1] % p == 0:
        return False
    modl = list(mod)
    x = [0, 1]
    t = _poly_powmod(x, p**e, modl, p)
    if _poly_sub(t, x, p):
        return False
    for r in _prime_factors(e):
        t = _poly_powmod(x, p ** (e // r), modl, p)
        g = _poly_gcd(_poly_sub(t, x, p), modl, p)
        if len(g) - 1 != 0:
            return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """First monic irreducible of degree e in digit order of the low part."""
    for low in range(p**e):
        cand = tuple(_digits(low, p, e)) + (1,)
        if _poly_is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {e} over GF({p})")


# ---------------------------------------------------------------------------
# Field of scalars
# ---------------------------------------------------------------------------

class FieldSpec:
    """Arithmetic for one finite field GF(q).

    All operations are pure and take/return canonical integer encodings.
    Instances are immutable and safe to share between threads.
    """

    __slots__ = ("q", "p", "e", "modulus", "_exp", "_log", "_zech")

    def __init__(self, q: int, modulus: tuple[int, ...] | None = None):
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"field size {q} exceeds supported maximum {MAX_FIELD_SIZE}")
        p, e = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        if e == 1:
            if modulus is not None:
                raise ValueError(f"modulus given for the prime field GF({q})")
            self.modulus = None
            self._exp = None
            self._log = None
            self._zech = None
            return
        if modulus is None:
            modulus = _DEFAULT_BINARY_MODULI.get(q) or _smallest_irreducible(p, e)
        modulus = tuple(modulus)
        for i, c in enumerate(modulus):
            if not is_element(c, p):
                raise ValueError(f"modulus[{i}] = {c!r} is not an element of GF({p})")
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {e}, got {modulus}")
        if not _poly_is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus
        self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Polynomial product mod modulus, without the log table."""
        p, e = self.p, self.e
        prod = _poly_mul(_digits(a, p, e), _digits(b, p, e), p)
        return _undigits(_poly_mod(prod, self.modulus, p), p)

    def _pow_raw(self, a: int, k: int) -> int:
        r = 1
        while k:
            if k & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            k >>= 1
        return r

    def _build_tables(self) -> None:
        q = self.q
        factors = _prime_factors(q - 1)
        gen = None
        for g in range(2, q):
            if all(self._pow_raw(g, (q - 1) // f) != 1 for f in factors):
                gen = g
                break
        if gen is None:
            raise ValueError("no multiplicative generator found")
        times_gen = self._times(gen)
        exp = [0] * (q - 1)
        log = [0] * q
        v = 1
        for i in range(q - 1):
            exp[i] = v
            log[v] = i
            v = times_gen(v)
        self._exp = exp
        self._log = log
        self._zech = self._zech_table() if self.p != 2 else None

    def _times(self, g: int):
        """The map v -> v*g, without a polynomial product per call.

        Multiplying by g is linear over GF(p) in the base-p digits, so v*g
        is the digitwise sum of (low half of v)*g and (high half of v)*g,
        each read from a table of about sqrt(q) products.  The tables hold
        the products spread to s bits per digit, wide enough that a digit
        sum, at most 2p - 2, never carries, so one integer add sums them;
        two more tables take each half of the sum back to base p, every
        digit reduced mod p.
        """
        p, e = self.p, self.e
        h = e // 2
        split = p**h
        s = (2 * p - 2).bit_length()
        shift = s * h
        mask = (1 << shift) - 1

        def spread(v: int) -> int:
            return sum(d << (s * i) for i, d in enumerate(_digits(v, p, e)))

        def unspread(n: int, scale: int) -> dict[int, int]:
            return {
                sum(d << (s * i) for i, d in enumerate(ds)):
                    scale * _undigits([d % p for d in ds], p)
                for ds in itertools.product(range(2 * p - 1), repeat=n)
            }

        low = [spread(self._mul_raw(a, g)) for a in range(split)]
        high = [spread(self._mul_raw(b * split, g)) for b in range(p ** (e - h))]
        low_back, high_back = unspread(h, 1), unspread(e - h, split)

        def times(v: int) -> int:
            w = low[v % split] + high[v // split]
            return low_back[w & mask] + high_back[w >> shift]

        return times

    def _zech_table(self) -> list[int | None]:
        """Zech logarithms over two periods, shifted into [-(q-1), 0):
        entry k holds log(1 + g^k) - (q - 1), or None where 1 + g^k = 0.

        The shift and the second period let `add`, `neg` and `sub` index
        with a difference of logs, offset by (q - 1) / 2 for a negation,
        and no reduction mod q - 1, since Python's negative indices wrap.
        Adding 1 changes only the constant base-p digit, so the table costs
        O(q).
        """
        p, n = self.p, self.q - 1
        log = self._log
        zech: list[int | None] = []
        for v in self._exp:
            one_plus = v - p + 1 if v % p == p - 1 else v + 1
            zech.append(log[one_plus] - n if one_plus else None)
        return zech + zech

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        # a + b = g^la * (1 + g^(lb - la))
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def neg(self, a: int) -> int:
        if self.e == 1:
            return -a % self.p
        if self.p == 2 or not a:
            return a
        # -1 = g^((q - 1) / 2) in odd characteristic, and q >> 1 is that
        # exponent
        return self._exp[self._log[a] - (self.q >> 1)]

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        if not b:
            return a
        if not a:
            return self._exp[self._log[b] - (self.q >> 1)]
        if a == b:
            return 0
        # a - b = g^la * (1 + g^(lb + (q - 1) / 2 - la))
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la + (self.q >> 1)]]

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"zero has no multiplicative inverse in GF({self.q})")
        if self.e == 1:
            return pow(a, -1, self.p)
        return self._exp[-self._log[a] % (self.q - 1)]

    # -- row primitives ------------------------------------------------------------
    #
    # Rows are sequences of canonical elements.  Each primitive branches on
    # the family once and does every cell inline, with no scalar method
    # call; per cell it returns what the scalar ops return.  Shifting a log
    # by -(q - 1) keeps a sum of two logs a valid (possibly negative) index
    # into the exp table, as `_zech_table` explains.

    def row_sub_scaled(self, vec, c: int, row) -> list[int]:
        """vec - c*row, cell by cell, as a new list."""
        if not c:
            return list(vec)
        if self.e == 1:
            if self.p == 2:  # c = 1
                return [v ^ r for v, r in zip(vec, row)]
            p = self.p
            return [(v - c * r) % p for v, r in zip(vec, row)]
        exp, log, n = self._exp, self._log, self.q - 1
        if self.p == 2:
            lc = log[c] - n
            return [v ^ exp[lc + log[r]] if r else v for v, r in zip(vec, row)]
        # v - c*r = v + (-c)*r, one Zech step as in `add`; -c = c * g^(q >> 1)
        zech = self._zech
        lnc = (log[c] + (self.q >> 1)) % n - n
        out = []
        for v, r in zip(vec, row):
            if r:
                lt = lnc + log[r]
                if v:
                    lv = log[v]
                    z = zech[lt - lv]
                    v = 0 if z is None else exp[lv + z]
                else:
                    v = exp[lt]
            out.append(v)
        return out

    def row_scale(self, c: int, vec) -> list[int]:
        """c*vec, cell by cell, as a new list."""
        if self.e == 1:
            p = self.p
            return [c * v % p for v in vec]
        if not c:
            return [0] * len(vec)
        exp, log = self._exp, self._log
        lc = log[c] - (self.q - 1)
        return [exp[lc + log[v]] if v else 0 for v in vec]

    def row_dot(self, row, vec) -> int:
        """The inner product of two rows of equal length."""
        if self.e == 1:
            return sum(map(operator.mul, row, vec)) % self.p
        exp, log, n = self._exp, self._log, self.q - 1
        acc = 0
        if self.p == 2:
            for r, v in zip(row, vec):
                if r and v:
                    acc ^= exp[log[r] + log[v] - n]
            return acc
        zech = self._zech
        for r, v in zip(row, vec):
            if r and v:
                lt = log[r] + log[v] - n
                if acc:
                    la = log[acc]
                    z = zech[lt - la]
                    acc = 0 if z is None else exp[la + z]
                else:
                    acc = exp[lt]
        return acc

    # -- element helpers ---------------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def rand(self, rng: random.Random) -> int:
        return rng.randrange(self.q)

    # -- identity ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and other.q == self.q
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash((self.q, self.modulus))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.q})"
        return f"GF({self.q}, modulus={self.modulus})"


_FIELD_CACHE: dict[tuple[int, tuple[int, ...] | None], FieldSpec] = {}


def GF(q: int, modulus: tuple[int, ...] | None = None) -> FieldSpec:
    """Shared FieldSpec for GF(q), built on the first call only; the default
    modulus is deterministic."""
    q = operator.index(q)  # TypeError for 4.0, which would hit GF(4)'s key
    key = (q, tuple(modulus) if modulus is not None else None)
    spec = _FIELD_CACHE.get(key)
    # 1.0 and True hash and compare like 1, so only plain ints may hit a key
    if spec is None or key[1] is not None and not all(is_element(c, q) for c in key[1]):
        spec = FieldSpec(q, key[1])
        spec = _FIELD_CACHE.setdefault((spec.q, spec.modulus), spec)  # canonical key
        _FIELD_CACHE[key] = spec
    return spec
