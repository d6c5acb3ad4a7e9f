"""Row primitives and the elimination built on them, against scalar ops.

`FieldSpec.row_sub_scaled`, `row_scale` and `row_dot` must agree cell by
cell with `sub`, `mul` and `add`, which stay the reference.  The echelon
engine and the matrix products run on the row primitives, so they are
checked against `RefEchelon` below: the per-cell elimination loop written
with scalar calls only.
"""

import bisect
import random

import pytest

from muxnet import GF, random_matrix, sample_gl
from muxnet.errors import SingularMatrix
from muxnet.fields import _factor_prime_power
from muxnet.matrix import _Echelon
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
        got_rows, got_pivots = M._rref_rows()
        assert got_pivots == ref.pivots
        assert got_rows[:len(ref.rows)] == ref.rows
        assert M.rank() == len(ref.pivots)
        assert M.kernel().rows_list() == ref_kernel(f, M.ncols, ref)

        ech = _Echelon(f)
        for row in rows:
            ech.insert(row)
        for _ in range(4):
            vec = seeded_rows(f, rng, M.ncols)
            assert ech.reduce(vec) == ref.reduce(vec)
        # a vector inside the span reduces to zero
        coeffs = [rng.randrange(q) for _ in range(M.nrows)]
        assert not any(ech.reduce([ref_dot(f, coeffs, col) for col in zip(*rows)]))

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
