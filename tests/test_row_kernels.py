"""Row primitives and the elimination built on them, against scalar ops.

`FieldSpec.row_sub_scaled`, `row_scale` and `row_dot` must agree cell by
cell with `sub`, `mul` and `add`, which stay the reference, and so must
every entry of the `byte_products` tables.  The echelon engine and the
matrix products run on them, so they are checked against `RefEchelon`
below: the per-cell elimination loop written with scalar calls only.
"""

import bisect
import copy
import random

import pytest

from muxnet import GF, FieldMatrix, random_matrix, sample_gl
from muxnet.errors import SingularMatrix
from muxnet.fields import MAX_FIELD_SIZE, _factor_prime_power, random_symbols
from muxnet.matrix import _CELL_BITS, _Echelon, _cells
from muxnet.verification import _prime_powers

# Every field size the test modules build: all prime powers up to 256, the
# odd extension fields up to 729 and the large fields named in test_fields.
Q_USED = (
    _prime_powers(256)
    + [q for q in _prime_powers(729) if q > 256 and q % 2 and _factor_prime_power(q)[1] > 1]
    + [1331, 2187, 4913, 6561, 15625, 16807, 50653, 59049, 65521, 65536]
)


def ref_sub_scaled(f, vec, c, row):
    return [f.sub(v, f.mul(c, r)) for v, r in zip(vec, row)]


def ref_scale(f, c, vec):
    return [f.mul(c, v) for v in vec]


def ref_dot(f, row, vec):
    acc = 0
    for r, v in zip(row, vec):
        acc = f.add(acc, f.mul(r, v))
    return acc


class RefEchelon:
    """Reduced row echelon basis with one scalar call per cell."""

    def __init__(self, f):
        self.f = f
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        f = self.f
        vec = list(vec)
        for pc, row in zip(self.pivots, self.rows):
            c = vec[pc]
            if c:
                vec = [f.sub(v, f.mul(c, r)) for v, r in zip(vec, row)]
        return vec

    def insert(self, vec):
        f = self.f
        vec = self.reduce(vec)
        p = next((i for i, v in enumerate(vec) if v), None)
        if p is None:
            return False
        s = f.inv(vec[p])
        vec = [f.mul(s, v) for v in vec]
        for i, row in enumerate(self.rows):
            c = row[p]
            if c:
                self.rows[i] = [f.sub(v, f.mul(c, nv)) for v, nv in zip(row, vec)]
        at = bisect.bisect(self.pivots, p)
        self.pivots.insert(at, p)
        self.rows.insert(at, vec)
        return True


def ref_rref(f, rows):
    ech = RefEchelon(f)
    for row in rows:
        ech.insert(row)
    return ech


def ref_kernel(f, ncols, ech):
    free = [c for c in range(ncols) if c not in ech.pivots]
    out = [[int(c == j) for j in free] for c in range(ncols)]
    for row, pc in zip(ech.rows, ech.pivots):
        out[pc] = [f.neg(row[j]) for j in free]
    return out


def ref_solve_right(f, rows, rhs):
    """X with A X = rhs for square A, or None when A is singular."""
    n = len(rows)
    ech = ref_rref(f, [row + extra for row, extra in zip(rows, rhs)])
    if ech.pivots[:n] != list(range(n)):
        return None
    return [r[n:] for r in ech.rows]


def seeded_rows(f, rng, n, zero_share=0.2):
    """n symbols with about zero_share of them 0, so zero skips are hit."""
    return [0 if rng.random() < zero_share else rng.randrange(1, f.q) for _ in range(n)]


# ---------------------------------------------------------
# primitives against scalar ops
# ---------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16])
def test_primitives_match_scalar_ops_exhaustive(q):
    f = GF(q)
    # Every (a, b) pair once per row, so one call per c covers every triple.
    vec = [a for a in range(q) for _ in range(q)]
    row = [b for _ in range(q) for b in range(q)]
    for c in range(q):
        assert f.row_sub_scaled(vec, c, row) == ref_sub_scaled(f, vec, c, row), c
        assert f.row_scale(c, vec) == ref_scale(f, c, vec), c
        assert [f.row_dot([c], [b]) for b in range(q)] == [f.mul(c, b) for b in range(q)]
        for a in range(q):
            for b in range(q):
                assert f.row_dot([c, a], [a, b]) == ref_dot(f, [c, a], [a, b]), (c, a, b)
    assert f.row_dot([], []) == 0


@pytest.mark.parametrize("q", [81, 256, 6561, 65521, 65536])
def test_primitives_match_scalar_ops_seeded(q):
    f = GF(q)
    rng = random.Random(q)
    for trial in range(300):
        n = rng.randrange(1, 40)
        c = (0, 1, q - 1)[trial] if trial < 3 else rng.randrange(1, q)
        vec, row = seeded_rows(f, rng, n), seeded_rows(f, rng, n)
        # v = c*r in some cells, so v - c*r = 0 hits the zero Zech entry
        for i in rng.sample(range(n), n // 3):
            vec[i] = f.mul(c, row[i])
        assert f.row_sub_scaled(vec, c, row) == ref_sub_scaled(f, vec, c, row)
        assert f.row_scale(c, vec) == ref_scale(f, c, vec)
        assert f.row_dot(row, vec) == ref_dot(f, row, vec)
        # a dot product whose partial sums cancel back to zero
        neg_row = [f.neg(r) for r in row]
        assert f.row_dot(row + neg_row, vec + vec) == 0


def test_primitives_return_new_lists():
    f = GF(9)
    vec, row = [1, 2, 3], [4, 5, 6]
    for out in (f.row_sub_scaled(vec, 0, row), f.row_scale(1, vec)):
        assert out == vec and out is not vec
    assert vec == [1, 2, 3] and row == [4, 5, 6]


# The characteristic-2 fields whose rows the engine packs into bytes.
BYTE_FIELDS = (2, 4, 8, 16, 32, 64, 128, 256)


@pytest.mark.parametrize("q", BYTE_FIELDS)
def test_byte_products_match_scalar_mul(q):
    f = GF(q)
    tables = f.byte_products  # built with the field, before any elimination
    assert len(tables) == q
    for c, table in enumerate(tables):
        assert list(table[:q]) == [f.mul(c, v) for v in range(q)], c
        assert not any(table[q:]), c  # the bytes that are no element


def test_rows_are_byte_packed_exactly_in_characteristic_2_up_to_256():
    # A refactor must not quietly move a field to another row form: one
    # byte per column in characteristic 2 up to GF(256), one 64-bit cell
    # per column over the odd primes, a list over every other field.
    for q in Q_USED:
        f = GF(q)
        in_bytes = f.p == 2 and q <= 256
        assert (f.byte_products is not None) == in_bytes, q
        row = _Echelon(f).pack([1, q - 1])
        if in_bytes:
            assert row == 1 | (q - 1) << 8, q
        elif f.e == 1:
            assert row == 1 | (q - 1) << 64, q
        else:
            assert row == [1, q - 1], q


# ---------------------------------------------------------
# the symbol sampler against randrange
# ---------------------------------------------------------

@pytest.mark.parametrize("q", Q_USED)
def test_random_symbols_draw_as_randrange(q):
    for seed in (0, 1, q):
        for n in (0, 1, 7, 64):
            ours, ref = random.Random(seed), random.Random(seed)
            assert random_symbols(ours, q, n) == [ref.randrange(q) for _ in range(n)]
            assert ours.getstate() == ref.getstate()
    f = GF(q)
    ours, ref = random.Random(q), random.Random(q)
    assert [f.rand(ours) for _ in range(20)] == [ref.randrange(q) for _ in range(20)]
    assert ours.getstate() == ref.getstate()


# ---------------------------------------------------------
# elimination and products against the per-cell reference
# ---------------------------------------------------------

def seeded_matrices(f, rng):
    """Full-rank, deficient and square matrices, up to 16 x 17."""
    out = []
    for nrows, ncols in ((1, 1), (3, 5), (6, 4), (16, 17), (rng.randrange(2, 17), 17)):
        out.append(random_matrix(f, nrows, ncols, rng))
        mid = rng.randrange(1, min(nrows, ncols) + 1)
        out.append(random_matrix(f, nrows, mid, rng) @ random_matrix(f, mid, ncols, rng))
    for n in (1, 5, 16):
        out.append(sample_gl(n, f, rng))
        out.append(random_matrix(f, n, n, rng))
    return out


@pytest.mark.parametrize("q", Q_USED)
def test_elimination_matches_per_cell_reference(q):
    f = GF(q)
    rng = random.Random(1000 + q)
    for M in seeded_matrices(f, rng):
        rows = M.rows_list()
        ref = ref_rref(f, rows)
        got = M._rref_rows()
        got.back_substitute()
        assert got.pivots == ref.pivots
        assert [got.unpack(r, M.ncols) for r in got.rows] == ref.rows
        assert M.rank() == len(ref.pivots)
        assert M.kernel().rows_list() == ref_kernel(f, M.ncols, ref)

        ech = _Echelon(f)
        for row in rows:
            ech.insert(row)
        for _ in range(4):
            vec = seeded_rows(f, rng, M.ncols)
            assert ech.unpack(ech.reduce_packed(ech.pack(vec)), M.ncols) == ref.reduce(vec)
        # a vector inside the span reduces to zero
        coeffs = [rng.randrange(q) for _ in range(M.nrows)]
        inside = ech.pack([ref_dot(f, coeffs, col) for col in zip(*rows)])
        assert not any(ech.unpack(ech.reduce_packed(inside), M.ncols))

        x = seeded_rows(f, rng, M.ncols)
        assert M.mul_vector(x) == [ref_dot(f, row, x) for row in rows]
        other = random_matrix(f, M.ncols, rng.randrange(1, 6), rng)
        cols = [list(c) for c in zip(*other.rows_list())]
        assert (M @ other).rows_list() == [[ref_dot(f, row, col) for col in cols] for row in rows]

        if M.nrows != M.ncols:
            continue
        n = M.nrows
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        b = seeded_rows(f, rng, n)
        ref_inv = ref_solve_right(f, rows, ident)
        if ref_inv is None:
            with pytest.raises(SingularMatrix):
                M.inverse()
            with pytest.raises(SingularMatrix):
                M.solve(b)
            continue
        assert M.inverse().rows_list() == ref_inv
        assert M.solve(b) == [r[0] for r in ref_solve_right(f, rows, [[v] for v in b])]


@pytest.mark.parametrize("q", [2, 16, 256, 3, 81, 512, 65521])
def test_back_substitute_leaves_copies_intact(q):
    # enumerate_gl grows copies of one basis that share its rows, so
    # back-substituting a copy must not change the rows it shares.
    f = GF(q)
    rng = random.Random(2000 + q)
    M = random_matrix(f, 7, 5, rng) @ random_matrix(f, 5, 9, rng)
    ech = M._rref_rows()
    rows = [list(ech.unpack(r, M.ncols)) for r in ech.rows]
    pivots = list(ech.pivots)
    vecs = [seeded_rows(f, rng, M.ncols) for _ in range(6)]
    residues = [ech.unpack(ech.reduce_packed(ech.pack(v)), M.ncols) for v in vecs]

    grown = ech.copy()
    grown.back_substitute()
    assert grown.pivots == pivots and grown.rows != ech.rows
    assert [ech.unpack(r, M.ncols) for r in ech.rows] == rows
    assert ech.pivots == pivots
    for basis in (ech, grown):
        assert [basis.unpack(basis.reduce_packed(basis.pack(v)), M.ncols) for v in vecs] == residues


# ---------------------------------------------------------
# packed rows against the per-cell reference
# ---------------------------------------------------------

def check_packed_against_reference(f, rows, ncols, rng):
    """Everything the engine returns for one matrix over a field whose rows
    it packs into an int, against RefEchelon."""
    q = f.q
    M = FieldMatrix(f, rows, ncols=ncols)
    ech, ref = _Echelon(f), RefEchelon(f)
    for row in rows:
        assert ech.insert(row) == ref.insert(row)
    vec = [rng.randrange(q) for _ in range(ncols)]
    reduced = ref.reduce(vec)
    assert ech.unpack(ech.reduce_packed(ech.pack(vec)), ncols) == reduced
    # the residue is the same against the echelon and the reduced form
    ech.back_substitute()
    assert [ech.unpack(row, ncols) for row in ech.rows] == ref.rows
    assert ech.unpack(ech.reduce_packed(ech.pack(vec)), ncols) == reduced
    assert ech.space_key() == tuple(ech.pack(row) for row in ref.rows)

    got = M._rref_rows()
    got.back_substitute()
    assert got.pivots == ref.pivots
    assert [got.unpack(r, ncols) for r in got.rows] == ref.rows
    assert M.rank() == len(ref.pivots)
    assert M.kernel().rows_list() == ref_kernel(f, ncols, ref)

    if len(rows) != ncols:
        return
    n = ncols
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    b = [rng.randrange(q) for _ in range(n)]
    ref_inv = ref_solve_right(f, rows, ident)
    if ref_inv is None:
        assert M.rank() < M.nrows
        with pytest.raises(SingularMatrix):
            M.inverse()
        with pytest.raises(SingularMatrix):
            M.solve(b)
        return
    assert M.rank() == M.nrows
    assert M.inverse().rows_list() == ref_inv
    assert M.solve(b) == [r[0] for r in ref_solve_right(f, rows, [[v] for v in b])]


def check_exhaustive(q, max_cells, max_width=None):
    """check_packed_against_reference on every GF(q) matrix of at most
    max_cells cells and max_width columns."""
    f = GF(q)
    rng = random.Random(7)
    shapes = [(r, c) for r in range(1, max_cells + 1)
              for c in range(1, (max_width or max_cells) + 1) if r * c <= max_cells]
    for r, c in shapes:
        for idx in range(q ** (r * c)):
            flat = [idx // q**i % q for i in range(r * c)]
            rows = [flat[i * c:(i + 1) * c] for i in range(r)]
            check_packed_against_reference(f, rows, c, rng)


def check_seeded(q, nrows, ncols, rank, repeats):
    """check_packed_against_reference on random GF(q) matrices, rank-deficient
    ones built as a product through a rank-sized middle dimension, and a GL
    sample when the shape is square."""
    f = GF(q)
    rng = random.Random(q * 100_000 + nrows * 1000 + ncols)
    for _ in range(repeats):
        if rank is None:
            M = random_matrix(f, nrows, ncols, rng)
        else:
            M = random_matrix(f, nrows, rank, rng) @ random_matrix(f, rank, ncols, rng)
            assert M.rank() <= rank
        check_packed_against_reference(f, M.rows_list(), ncols, rng)
    if nrows == ncols:
        check_packed_against_reference(f, sample_gl(nrows, f, rng).rows_list(), ncols, rng)


def test_packed_gf2_exhaustive():
    check_exhaustive(2, 12)


def test_packed_gf4_exhaustive():
    check_exhaustive(4, 6)


@pytest.mark.parametrize("nrows, ncols, rank", [
    (32, 32, None), (64, 128, None), (32, 32, 20), (48, 40, 13), (16, 64, 5),
])
def test_packed_gf2_seeded(nrows, ncols, rank):
    check_seeded(2, nrows, ncols, rank, 3)


@pytest.mark.parametrize("q", [8, 16, 32, 64, 128, 256])
def test_packed_char2_seeded(q):
    shapes = ((16, 17, None), (16, 16, None), (17, 16, 9), (12, 17, 5), (4, 3, None))
    for nrows, ncols, rank in shapes:
        check_seeded(q, nrows, ncols, rank, 2)


# ---------------------------------------------------------
# prime-field rows: 64-bit cells reduced mod p lazily
# ---------------------------------------------------------

def test_cell_width_holds_every_lazy_row_below_max_field_size():
    # A cell starts below p, and each subtraction of a canonical row adds at
    # most (p - 1)^2.  A row takes at most 2 * ncols subtractions between
    # canonical forms (a residue inserted into a second basis), so for every
    # p below MAX_FIELD_SIZE one cell holds any width up to 2^31 with no
    # carry into the next.
    p = MAX_FIELD_SIZE - 1
    assert p + 2 * 2**31 * (p - 1) ** 2 < 2**_CELL_BITS
    # ... and the struct that packs a row has exactly that many bits a cell
    assert _cells(5).size * 8 == 5 * _CELL_BITS


@pytest.mark.parametrize("q, max_cells", [(3, 6), (5, 4)])
def test_prime_cells_exhaustive(q, max_cells):
    check_exhaustive(q, max_cells, max_width=3)


def staircase(p, n, rank):
    """rank rows of width n, row i with its pivot 1 in column i and p - 1 in
    every column right of it: canonical rows whose cells are all maximal."""
    return [[0] * i + [1] + [p - 1] * (n - i - 1) for i in range(rank)]


def worst_vector(p, n):
    """Against `staircase`, the vector whose coefficient is 1 at every pivot,
    so every subtraction adds (p - 1)^2 to each cell right of the pivot."""
    return [(1 - j) % p for j in range(n)]


@pytest.mark.parametrize("p", [251, 65521])
def test_prime_cells_match_reference_at_full_width(p):
    f = GF(p)
    n = 48
    rng = random.Random(p)
    bases = [
        staircase(p, n, n),
        staircase(p, n, 40),
        sample_gl(n, f, rng).rows_list(),
        [[p - 1] * n] + staircase(p, n, n)[1:],
        (random_matrix(f, 40, 30, rng) @ random_matrix(f, 30, n, rng)).rows_list(),
    ]
    vectors = [worst_vector(p, n), [p - 1] * n, [1] * n, seeded_rows(f, rng, n)]
    for rows in bases:
        check_packed_against_reference(f, rows, n, rng)
        ech, ref = _Echelon(f), RefEchelon(f)
        for row in rows:
            assert ech.insert(row) == ref.insert(row)
        for vec in vectors:
            assert ech.unpack(ech.reduce_packed(ech.pack(vec)), n) == ref.reduce(vec)

    # A lazy residue inserted into a second basis, as leakage_profile does:
    # up to 2n subtractions between canonical forms.
    first, first_ref = _Echelon(f), RefEchelon(f)
    for row in staircase(p, n, 40):
        first.insert(row)
        first_ref.insert(row)
    second, second_ref = _Echelon(f), RefEchelon(f)
    for row in ([0] * 40 + r[40:] for r in staircase(p, n, n)[40:47]):
        second.insert(row)
        second_ref.insert(row)
    for vec in vectors:
        residue = first.reduce_packed(first.pack(vec))
        ref = copy.deepcopy(second_ref)
        assert second.copy().insert_packed(residue) == ref.insert(first_ref.reduce(vec))
    worst = worst_vector(p, n)
    assert second.insert_packed(first.reduce_packed(first.pack(worst)))
    assert second_ref.insert(first_ref.reduce(worst))
    second.back_substitute()
    assert second.pivots == second_ref.pivots
    assert [second.unpack(r, n) for r in second.rows] == second_ref.rows
    assert second.space_key() == tuple(second.pack(r) for r in second_ref.rows)


# ---------------------------------------------------------
# the one-frame insert against the per-cell reference
# ---------------------------------------------------------

# Fields of every row form: bytes (2, 16, 256), 64-bit cells (3, 251,
# 65521) and lists (9, 512).
INSERT_FIELDS = (2, 16, 256, 3, 251, 65521, 9, 512)


def rows_with_pivots(f, rng, ncols, pivots):
    """One row per listed pivot column: zero left of it, a nonzero lead
    (1 in every third row), random cells right of it."""
    rows = []
    for i, pc in enumerate(pivots):
        lead = 1 if i % 3 == 0 else rng.randrange(1, f.q)
        rows.append([0] * pc + [lead] + seeded_rows(f, rng, ncols - pc - 1))
    return rows


def check_insert(f, rows, ncols):
    """Insert rows one by one into an _Echelon and a RefEchelon: the same
    verdicts and pivots, each stored row the normalized residue that
    `reduce_packed` gives, and the same reduced form at the end."""
    ech, ref = _Echelon(f), RefEchelon(f)
    for vec in rows:
        residue = ech.unpack(ech.reduce_packed(ech.pack(vec)), ncols)
        assert residue == ref.reduce(vec)
        before = set(ech.pivots)
        accepted = ech.insert(vec)
        assert accepted == ref.insert(vec) == any(residue)
        assert ech.pivots == ref.pivots == sorted(ech.pivots)
        if accepted:
            (pc,) = set(ech.pivots) - before
            stored = ech.unpack_canonical(ech.rows[ech.pivots.index(pc)], ncols)
            s = f.inv(residue[pc])
            assert stored == [f.mul(s, v) for v in residue]
    # every stored row is canonical: reading its cells reduced changes nothing
    assert [ech.unpack_canonical(r, ncols) for r in ech.rows] == [ech.unpack(r, ncols) for r in ech.rows]
    ech.back_substitute()
    assert [ech.unpack(r, ncols) for r in ech.rows] == ref.rows
    return ech


@pytest.mark.parametrize("q", INSERT_FIELDS)
def test_insert_places_rows_arriving_in_any_pivot_order(q):
    # ascending pivots take the append, descending and shuffled ones the
    # bisect; repeated pivots make rows that reduce to a new pivot or to 0
    f = GF(q)
    rng = random.Random(3000 + q)
    ncols = 9
    shuffled = list(range(ncols))
    rng.shuffle(shuffled)
    orders = (list(range(ncols)), list(range(ncols - 1, -1, -1)), shuffled,
              [4, 1, 7, 1, 4, 0, 8, 8, 2, 6, 3, 5, 0])
    for pivots in orders:
        check_insert(f, rows_with_pivots(f, rng, ncols, pivots), ncols)
    for _ in range(5):
        M = random_matrix(f, 5, 3, rng) @ random_matrix(f, 3, ncols, rng)
        check_insert(f, M.rows_list() + [seeded_rows(f, rng, ncols) for _ in range(4)], ncols)


@pytest.mark.parametrize("q", INSERT_FIELDS)
def test_insert_keeps_canonical_rows_with_lead_1(q):
    # back_substitute re-inserts canonical rows with lead 1, bottom-up: the
    # rows of a reduced basis, in either order, are stored as they are
    f = GF(q)
    rng = random.Random(4000 + q)
    ncols = 8
    M = random_matrix(f, 6, ncols, rng)
    reduced = check_insert(f, M.rows_list(), ncols)
    canonical = [reduced.unpack(r, ncols) for r in reduced.rows]
    assert all(row[pc] == 1 for row, pc in zip(canonical, reduced.pivots))
    for rows in (canonical, canonical[::-1]):
        ech = check_insert(f, rows, ncols)
        assert [ech.unpack(r, ncols) for r in ech.rows] == canonical
        again = _Echelon(f)
        for r in reversed(reduced.rows):
            assert again.insert_packed(r)
        assert again.rows == reduced.rows and again.pivots == reduced.pivots


@pytest.mark.parametrize("p", [3, 251, 65521])
def test_prime_insert_stores_canonical_lead_1_rows_without_repacking(p, monkeypatch):
    from muxnet import matrix

    f = GF(p)
    rng = random.Random(p)
    ncols = 7
    basis = random_matrix(f, 5, ncols, rng)._rref_rows()
    basis.back_substitute()
    packs = []

    class CountingCells:
        def __init__(self, cells):
            self.cells = cells

        def unpack(self, data):
            return self.cells.unpack(data)

        def pack(self, *values):
            packs.append(values)
            return self.cells.pack(*values)

    monkeypatch.setattr(matrix, "_cells", lambda n: CountingCells(_cells(n)))
    fresh = _Echelon(f)
    for row in reversed(basis.rows):
        assert fresh.insert_packed(row)
    assert packs == []
    assert all(a is b for a, b in zip(fresh.rows, basis.rows))
    # a row with lead 2 is normalized, so it is packed again
    assert _Echelon(f).insert_packed(2 * basis.rows[0])
    assert len(packs) == 1


@pytest.mark.parametrize("q", INSERT_FIELDS)
def test_insert_residue_equals_reduce_packed(q):
    # a residue from reduce_packed, lazy over the primes, inserted into a
    # second basis as leakage_profile does: the same verdict and row as
    # inserting the reduced vector itself
    f = GF(q)
    rng = random.Random(5000 + q)
    ncols = 10
    first = _Echelon(f)
    for row in random_matrix(f, 4, ncols, rng).rows_list():
        first.insert(row)
    for _ in range(6):
        second = _Echelon(f)
        for row in random_matrix(f, 3, ncols, rng).rows_list():
            second.insert(row)
        vec = seeded_rows(f, rng, ncols)
        residue = first.reduce_packed(first.pack(vec))
        plain = second.copy()
        via_residue = second.copy()
        assert via_residue.insert_packed(residue) == plain.insert(first.unpack(residue, ncols))
        assert via_residue.pivots == plain.pivots
        assert [via_residue.unpack_canonical(r, ncols) for r in via_residue.rows] == [
            plain.unpack_canonical(r, ncols) for r in plain.rows]
