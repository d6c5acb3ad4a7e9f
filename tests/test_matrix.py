"""Matrix algebra over GF(q): rank, kernel, inverse, GL sampling."""

import gc
import hashlib
import random
import re

import pytest

from muxnet import (
    GF, EavesdropperModel, FieldMatrix, MultiplexLayout, enumerate_gl, random_matrix,
    realize_eavesdropper, sample_full_rank, sample_gl,
)
from muxnet.errors import EnumerationTooLarge, ShapeError, SingularMatrix
from muxnet.fields import is_element, random_symbols
from muxnet.matrix import _SPAN_SET_ROWS, MAX_GL_ENUMERATION, _Echelon, gl_order

CHI2_CRIT_DF5 = 20.515  # alpha = 0.001


# ---------------------------------------------------------
# rank
# ---------------------------------------------------------

def test_rank_identity():
    assert FieldMatrix.identity(GF(2), 3).rank() == 3


def test_rank_zero_matrix():
    assert FieldMatrix.zeros(GF(3), 2, 4).rank() == 0


def test_rank_repeated_row():
    assert FieldMatrix(GF(2), [[1, 0], [1, 0]]).rank() == 1


# ---------------------------------------------------------
# kernel
# ---------------------------------------------------------

def test_kernel_of_identity_is_empty():
    k = FieldMatrix.identity(GF(2), 2).kernel()
    assert k.ncols == 0 and k.nrows == 2


def test_kernel_of_zero_row_is_full():
    k = FieldMatrix.zeros(GF(2), 1, 2).kernel()
    assert k.ncols == 2


def test_kernel_single_constraint():
    M = FieldMatrix(GF(2), [[1, 0]])
    k = M.kernel()
    assert k.as_tuples() == ((0,), (1,))  # basis {(0,1)^T}


def test_kernel_columns_are_annihilated_and_independent():
    rng = random.Random(7)
    for q in (2, 3, 4, 9):
        f = GF(q)
        for _ in range(30):
            M = random_matrix(f, rng.randrange(1, 5), rng.randrange(1, 6), rng)
            K = M.kernel()
            assert M.rank() + K.ncols == M.ncols
            if K.ncols:
                prod = M @ K
                assert all(v == 0 for row in prod.rows_list() for v in row)
                assert K.rank() == K.ncols


# ---------------------------------------------------------
# inverse and solve
# ---------------------------------------------------------

def test_inverse_identity():
    eye = FieldMatrix.identity(GF(5), 3)
    assert eye.inverse() == eye


def test_inverse_involution_swap():
    swap = FieldMatrix(GF(2), [[0, 1], [1, 0]])
    assert swap.inverse() == swap


def test_inverse_unipotent():
    M = FieldMatrix(GF(2), [[1, 1], [0, 1]])
    Minv = M.inverse()
    assert Minv == M  # self-inverse over GF(2)
    assert M @ Minv == FieldMatrix.identity(GF(2), 2)


def test_singular_matrix_raises():
    singular = FieldMatrix(GF(2), [[1, 0], [1, 0]])
    with pytest.raises(SingularMatrix):
        singular.inverse()
    with pytest.raises(SingularMatrix):  # a failure is never cached
        singular.inverse()
    with pytest.raises(SingularMatrix):
        FieldMatrix(GF(3), [[1, 2], [2, 1]]).solve([1, 0])


@pytest.mark.parametrize("q", [2, 16, 256, 3, 81, 65521])
def test_singular_inverse_reads_its_rank_off_one_elimination(q, monkeypatch):
    # The rank in the message is read off the echelon of [A | I]: the
    # pivots left of column n.  No second elimination runs for it.
    f = GF(q)
    rng = random.Random(q)
    n = 5
    singular = [random_matrix(f, n, r, rng) @ random_matrix(f, r, n, rng) for r in range(n)]
    ranks = [A.rank() for A in singular]
    calls = []
    real = FieldMatrix._rref_rows
    monkeypatch.setattr(FieldMatrix, "_rref_rows", lambda self: calls.append(self) or real(self))
    for A, rank in zip(singular, ranks):
        with pytest.raises(SingularMatrix, match=rf"^matrix of rank {rank} < {n} has no inverse$"):
            A.inverse()
    assert len(calls) == n


@pytest.mark.parametrize("q", [2, 16, 256, 3, 81, 65521])
def test_singular_solve_raises(q):
    # Forward elimination of [A | b] over a singular A either falls short of
    # a pivot inside A's columns (b in A's column space) or puts one in the
    # b column (b outside it).  Both raise, over byte-packed rows (q = 2,
    # 16, 256) and list rows.
    f = GF(q)
    rng = random.Random(q)
    n = 6
    for r in range(n):
        A = random_matrix(f, n, r, rng) @ random_matrix(f, r, n, rng)
        rows, rank = A.rows_list(), A.rank()
        assert rank <= r

        def augmented_rank(b):
            return FieldMatrix(f, [row + [v] for row, v in zip(rows, b)]).rank()

        inside = A.mul_vector(random_symbols(rng, q, n))
        assert augmented_rank(inside) == rank
        outside = random_symbols(rng, q, n)
        while augmented_rank(outside) == rank:
            outside = random_symbols(rng, q, n)
        for b in (inside, outside):
            with pytest.raises(SingularMatrix):
                A.solve(b)


def test_inverse_roundtrip_random():
    rng = random.Random(11)
    for q in (2, 3, 5, 9, 16):
        f = GF(q)
        for _ in range(25):
            n = rng.randrange(1, 6)
            M = sample_gl(n, f, rng)
            Minv = M.inverse()
            eye = FieldMatrix.identity(f, n)
            assert M @ Minv == eye
            assert Minv @ M == eye
            # cached on the matrix, and equal to a fresh copy's inverse
            assert M.inverse() is Minv
            assert FieldMatrix(f, M.rows_list()).inverse() == Minv


def test_solve_matches_inverse():
    rng = random.Random(13)
    f = GF(7)
    for _ in range(30):
        n = rng.randrange(1, 5)
        M = sample_gl(n, f, rng)
        b = [f.rand(rng) for _ in range(n)]
        x = M.solve(b)
        assert M.mul_vector(x) == b


def test_shape_errors():
    f = GF(2)
    with pytest.raises(ShapeError):
        FieldMatrix(f, [[1, 0], [1]])
    with pytest.raises(ShapeError, match="ncols = 3"):
        FieldMatrix(GF(3), [[1, 0]], ncols=3)
    with pytest.raises(ShapeError):
        FieldMatrix(f, [[1, 0]]) @ FieldMatrix(f, [[1, 0]])
    with pytest.raises(ShapeError):
        FieldMatrix(f, [[1, 0]]).inverse()
    with pytest.raises(ShapeError):
        FieldMatrix.identity(f, 2).solve([1])


@pytest.mark.parametrize("ncols", [-1, 1.5, True])
def test_ncols_must_be_a_non_negative_int(ncols):
    with pytest.raises(ValueError, match="ncols"):
        FieldMatrix(GF(2), [], ncols=ncols)


def test_empty_matrix_keeps_a_valid_ncols():
    f = GF(2)
    assert FieldMatrix(f, [], ncols=0).ncols == 0
    assert FieldMatrix(f, [], ncols=3).ncols == 3
    zeros = FieldMatrix.zeros(f, 0, 3)
    assert (zeros.nrows, zeros.ncols) == (0, 3)
    assert zeros.kernel().ncols == 3


# ---------------------------------------------------------
# GL sampling
# ---------------------------------------------------------

def test_gl1_gf2_is_the_singleton():
    rng = random.Random(3)
    for _ in range(50):
        assert sample_gl(1, GF(2), rng).as_tuples() == ((1,),)


def test_gl_sampler_always_invertible():
    rng = random.Random(5)
    for q in (2, 3):
        f = GF(q)
        for _ in range(100):
            assert sample_gl(2, f, rng).rank() == 2


def test_gl22_sampling_uniform_chi2():
    rng = random.Random(20210907)
    members = enumerate_gl(2, GF(2))
    assert len(members) == 6
    counts = {m.as_tuples(): 0 for m in members}
    n = 6000
    for _ in range(n):
        counts[sample_gl(2, GF(2), rng).as_tuples()] += 1
    expected = n / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 <= CHI2_CRIT_DF5


def test_enumerate_gl_orders():
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert len(enumerate_gl(2, GF(3))) == 48
    assert len({m.as_tuples() for m in enumerate_gl(3, GF(2))}) == gl_order(3, 2) == 168


def test_enumerate_gl_leaves_no_cyclic_garbage():
    # The recursion holds no reference cycle, so the matrices are freed when
    # the list is dropped, not at the next full collection.
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        enumerate_gl(3, GF(2))
        gc.collect()
        leaked = [obj for obj in gc.garbage if isinstance(obj, FieldMatrix)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []


def test_gl_enumeration_bound(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("enumeration started before the bound was checked")

    monkeypatch.setattr("muxnet.matrix._Echelon", no_work)
    assert gl_order(2, 19) == 123_120 > MAX_GL_ENUMERATION
    with pytest.raises(EnumerationTooLarge, match="123120"):
        enumerate_gl(2, GF(19))


def test_sample_full_rank_rectangular():
    rng = random.Random(17)
    for _ in range(50):
        M = sample_full_rank(GF(2), 2, 4, rng)
        assert M.rank() == 2
    with pytest.raises(ShapeError):
        sample_full_rank(GF(2), 3, 2, rng)


def reference_full_rank(f, nrows, ncols, rng):
    """sample_full_rank as a plain loop: whole candidates from
    `random_symbols`, each kept when a basis of the rows kept so far
    accepts it."""
    ech, rows = _Echelon(f), []
    while len(rows) < nrows:
        cand = random_symbols(rng, f.q, ncols)
        if ech.insert(cand):
            rows.append(cand)
    return rows


@pytest.mark.parametrize("q", [2, 3, 4, 16, 81, 256, 65521])
def test_sample_full_rank_matches_the_reference_loop(q):
    # The sampler draws in place, tests the last row by its residue alone
    # and, over GF(2) with at most _SPAN_SET_ROWS rows, against a set of
    # span keys: the matrices and the RNG state must be the reference's.
    # Narrow GF(2) shapes reject often, so they get more seeds.
    f = GF(q)
    assert _SPAN_SET_ROWS == 5  # nrows 1-6 cover both sides of the GF(2) rule
    for nrows in range(0, 7):
        for ncols in range(max(nrows, 1), 18):
            for seed in range(12 if q == 2 and ncols < 8 else 2):
                ours, ref = random.Random(seed), random.Random(seed)
                got = sample_full_rank(f, nrows, ncols, ours)
                assert (got.nrows, got.ncols) == (nrows, ncols)
                assert got.rows_list() == reference_full_rank(f, nrows, ncols, ref)
                assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("q", [2, 3, 256])
@pytest.mark.parametrize("mu", [1, 2])
def test_direct_eavesdropper_draws_match_the_reference_loop(q, mu):
    # the direct model's B is a sample_full_rank draw of mu*m rows (3 or 6
    # here, so both GF(2) tests run), the draws DRAW_DIGEST pins
    f = GF(q)
    layout = MultiplexLayout(f, 3, 2, 1, (3, 3))
    model = EavesdropperModel("direct", mu)
    ours, ref = random.Random(q), random.Random(q)
    for _ in range(20):
        B = realize_eavesdropper(model, None, None, layout, ours)
        assert B.rows_list() == reference_full_rank(f, mu * layout.m, layout.mn, ref)
    assert ours.getstate() == ref.getstate()


def test_non_integer_entries_rejected():
    # A float or bool entry would otherwise pass the range check and fail
    # later as an index into the field tables.
    for entry in (1.0, 2.5, True, "1", None):
        with pytest.raises(ValueError, match="not an integer"):
            FieldMatrix(GF(9), [[0, entry]])


@pytest.mark.parametrize("q, entry", [
    (q, entry) for q in (2, 5, 16, 256) for entry in (1.5, True, -1, q, 200)
])
def test_vector_operands_must_be_field_elements(q, entry):
    # The constructor's rule for matrix entries, named by index; 200 is an
    # element of GF(256) only.  Over GF(16) an entry in 16..255 would
    # otherwise go through a padded byte table and give a wrong answer.
    f = GF(q)
    L = sample_gl(3, f, random.Random(q))
    vec = [1, entry, 0]
    if is_element(entry, q):
        x = L.solve(vec)
        assert L.mul_vector(x) == vec
        return
    message = rf"vector entry 1 = {re.escape(repr(entry))} is not an integer in \[0, {q}\)"
    with pytest.raises(ValueError, match=message):
        L.solve(vec)
    with pytest.raises(ValueError, match=message):
        L.mul_vector(vec)


# ---------------------------------------------------------
# pinned engine outputs
# ---------------------------------------------------------

# sha256 of `engine_digest(DIGEST_FIELD_SIZES)`; computed before sampling,
# enumeration and elimination shared one echelon engine, which must leave
# every output, and the number of RNG draws, unchanged.
ENGINE_DIGEST = "d36f08ddeeed92dbad4d56832fb6a9126d9c209c40f8b6a8c9747cb525e78415"
DIGEST_FIELD_SIZES = (2, 3, 4, 9, 256, 65521)
# The same recipe over the binary fields between GF(4) and GF(256); computed
# while only GF(2) rows were byte-packed, before every characteristic-2
# field up to GF(256) took that path.
CHAR2_ENGINE_DIGEST = "ac66e64619f2c147a09271c0eeba09dadd1270f9cc3450885da10d7269016d84"
CHAR2_DIGEST_FIELD_SIZES = (8, 16, 32, 64, 128)
# The same recipe over fields whose rows are still lists (odd-characteristic
# extensions and characteristic 2 above GF(256)); computed before their row
# form is replaced.
LIST_ENGINE_DIGEST = "4620f6ccb7a98d0ae159a260c684f486fe1b98db3b86e680b97fe234bd77f29b"
LIST_DIGEST_FIELD_SIZES = (27, 81, 512, 625, 65536)


def engine_digest(field_sizes) -> str:
    """sha256 over seeded GL and full-rank samples, the enumeration order of
    GL(3,2), GL(2,3) and GL(2,4), and rank, kernel, inverse, solve and the
    reduced form of seeded random matrices (full-rank and deficient)."""
    h = hashlib.sha256()

    def put(obj) -> None:
        h.update(repr(obj).encode())

    for q in field_sizes:
        f = GF(q)
        rng = random.Random(q)
        for dim in (1, 2, 3, 4, 6):
            put(sample_gl(dim, f, rng).as_tuples())
        for nrows, ncols in ((1, 3), (2, 5), (3, 3)):
            put(sample_full_rank(f, nrows, ncols, rng).as_tuples())
        put(rng.random())  # pins the number of draws as well
    for dim, q in ((3, 2), (2, 3), (2, 4)):
        put([m.as_tuples() for m in enumerate_gl(dim, GF(q))])
    rng = random.Random(2024)
    for q in field_sizes:
        f = GF(q)
        for _ in range(12):
            nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 7)
            mid = rng.randrange(1, min(nrows, ncols) + 1)
            low = random_matrix(f, nrows, mid, rng) @ random_matrix(f, mid, ncols, rng)
            for M in (random_matrix(f, nrows, ncols, rng), low):
                ech = M._rref_rows()
                ech.back_substitute()
                rows = [ech.unpack(r, ncols) for r in ech.rows]
                rows += [[0] * ncols] * (nrows - len(rows))  # the zero rows, last
                put((tuple(map(tuple, rows)), tuple(ech.pivots), M.rank(), M.kernel().as_tuples()))
            n = rng.randrange(1, 6)
            for M in (random_matrix(f, n, n, rng), sample_gl(n, f, rng)):
                b = [rng.randrange(q) for _ in range(n)]
                try:
                    put((M.inverse().as_tuples(), M.solve(b)))
                except SingularMatrix:
                    put("singular")
    return h.hexdigest()


def test_engine_outputs_are_pinned():
    assert engine_digest(DIGEST_FIELD_SIZES) == ENGINE_DIGEST


def test_char2_engine_outputs_are_pinned():
    assert engine_digest(CHAR2_DIGEST_FIELD_SIZES) == CHAR2_ENGINE_DIGEST


def test_list_row_engine_outputs_are_pinned():
    assert engine_digest(LIST_DIGEST_FIELD_SIZES) == LIST_ENGINE_DIGEST


# ---------------------------------------------------------
# where reduced rows are read
# ---------------------------------------------------------

@pytest.mark.parametrize("q", [2, 9])
def test_only_readers_of_reduced_rows_back_substitute(q, monkeypatch):
    # Ranks, invertibility tests, sampling, enumeration, leakage span
    # counts and solve need only the echelon form (solve back-substitutes
    # its right-hand side alone); kernel, inverse and the row-space keys of
    # leakage_table read reduced rows.
    from muxnet.leakage import leakage_profile, leakage_table
    from muxnet.matrix import _Echelon
    from muxnet.multiplex import MultiplexLayout, all_nonempty_subsets

    f = GF(q)
    rng = random.Random(q)
    layout = MultiplexLayout(f, 2, 2, 1, (1, 3))
    subsets = all_nonempty_subsets(1)
    B = random_matrix(f, 3, 4, rng)
    L = sample_gl(4, f, rng)
    L.inverse()  # leakage_profile's singular-map check reads this cache

    real = _Echelon.back_substitute

    def refuse(self):
        raise AssertionError("back_substitute called")

    monkeypatch.setattr(_Echelon, "back_substitute", refuse)
    M = sample_gl(4, f, rng)
    assert M.rank() == 4 == M.nrows
    assert random_matrix(f, 3, 5, rng).rank() <= 3
    assert len(enumerate_gl(2, GF(2))) == 6
    leakage_profile(layout, L, B, subsets)
    assert M.mul_vector(M.solve([1, 0, 0, 0])) == [1, 0, 0, 0]

    calls = []
    monkeypatch.setattr(_Echelon, "back_substitute", lambda self: calls.append(1) or real(self))
    for read in (M.kernel, M.inverse):
        before = len(calls)
        read()
        assert len(calls) == before + 1
    # one key per listed observation, however many maps read the table
    # (M's inverse is cached above)
    before = len(calls)
    observations = [B, random_matrix(f, 2, 4, rng), B]
    assert len(list(leakage_table(layout, [L, M], observations, subsets))) == 2
    assert len(calls) == before + len(observations)


# ---------------------------------------------------------
# row-space keys
# ---------------------------------------------------------

def echelon_of(f, rows):
    from muxnet.matrix import _Echelon

    ech = _Echelon(f)
    for row in rows:
        ech.insert(row)
    return ech


@pytest.mark.parametrize("q", [2, 9, 256])
def test_space_key_names_the_row_space(q):
    f = GF(q)
    rng = random.Random(q)
    for _ in range(20):
        rows = random_matrix(f, 3, 5, rng).rows_list()
        key = echelon_of(f, rows).space_key()
        # the same space written another way: reordered, each row scaled
        # by a nonzero constant, and a dependent row added
        scaled = [f.row_scale(rng.randrange(1, q), r) for r in reversed(rows)]
        mix = f.row_sub_scaled(rows[0], rng.randrange(q), rows[1])
        assert echelon_of(f, scaled + [mix]).space_key() == key
        assert echelon_of(f, rows + [[0] * 5]).space_key() == key
        # a row outside the space, or one row fewer, names another space
        extra = rows + [[rng.randrange(q) for _ in range(5)]]
        if FieldMatrix(f, extra).rank() > FieldMatrix(f, rows).rank():
            assert echelon_of(f, extra).space_key() != key
        if FieldMatrix(f, rows[:2]).rank() < FieldMatrix(f, rows).rank():
            assert echelon_of(f, rows[:2]).space_key() != key
