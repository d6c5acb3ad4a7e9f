"""Dense matrices over a FieldSpec: exact rank, kernel, inverse, sampling.

Every elimination runs through one echelon basis, `_Echelon`.  Inserting
rows keeps a row echelon form, which is all a rank, an invertibility test
or a residue modulo the span needs; `_Echelon.back_substitute` turns it
into the reduced row echelon form only where reduced rows are read
(`kernel`, `inverse`, `solve`).  That form is unique, so kernels and
inverses are identical across runs.  Over GF(2) the engine packs each
row into one int and updates it with one XOR; over every other field row
updates go through the field's row primitives (`FieldSpec.row_sub_scaled`,
`row_scale`), and products through `row_dot`, never a scalar call per cell.
"""

from __future__ import annotations

import bisect
import random

from .errors import EnumerationTooLarge, ShapeError, SingularMatrix
from .fields import FieldSpec, is_element

MAX_GL_ENUMERATION = 100_000  # largest |GL(dim, q)| that enumerate_gl lists


class FieldMatrix:
    """A rows x cols matrix with entries canonical in the given field.

    Treated as immutable: operations return new matrices, and `inverse`
    caches its result on the matrix, which is only sound because the
    entries never change after construction.
    """

    __slots__ = ("field", "nrows", "ncols", "_rows", "_inverse")

    def __init__(self, field: FieldSpec, rows, ncols: int | None = None):
        data = [list(r) for r in rows]
        self.field = field
        self.nrows = len(data)
        if data:
            self.ncols = len(data[0])
        else:
            self.ncols = 0 if ncols is None else ncols
        q = field.q
        for r in data:
            if len(r) != self.ncols:
                raise ShapeError("ragged rows in matrix literal")
            for v in r:
                if not is_element(v, q):
                    raise ValueError(f"matrix entry {v!r} is not an integer in [0, {q})")
        self._rows = data
        self._inverse = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _canonical(cls, field: FieldSpec, rows: list[list[int]], ncols: int) -> "FieldMatrix":
        """A matrix of rows the library computed itself, so already canonical
        and rectangular: the public constructor's entry check is skipped, and
        `rows` is kept, not copied, so no caller may change it afterwards."""
        m = object.__new__(cls)
        m.field = field
        m.nrows = len(rows)
        m.ncols = ncols
        m._rows = rows
        m._inverse = None
        return m

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "FieldMatrix":
        return cls(field, [[0] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "FieldMatrix":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
        return cls._canonical(field, rows, n)

    # -- access ---------------------------------------------------------------

    def rows_list(self) -> list[list[int]]:
        return [list(r) for r in self._rows]

    def as_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(r) for r in self._rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and other.field == self.field
            and other.nrows == self.nrows
            and other.ncols == self.ncols
            and other._rows == self._rows
        )

    def __repr__(self) -> str:
        return f"FieldMatrix(GF({self.field.q}), {self.nrows}x{self.ncols})"

    # -- algebra ----------------------------------------------------------------

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        if self.field != other.field or self.ncols != other.nrows:
            raise ShapeError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        dot = self.field.row_dot
        bt = [[row[j] for row in other._rows] for j in range(other.ncols)]
        out = [[dot(arow, bcol) for bcol in bt] for arow in self._rows]
        return FieldMatrix._canonical(self.field, out, other.ncols)

    def mul_vector(self, vec) -> list[int]:
        if len(vec) != self.ncols:
            raise ShapeError(f"vector length {len(vec)} != {self.ncols}")
        dot = self.field.row_dot
        return [dot(row, vec) for row in self._rows]

    # -- elimination -----------------------------------------------------------------

    def _rref_rows(self) -> "_Echelon":
        """The row echelon basis of the row space: its nonzero rows, packed,
        and their pivot columns.  Callers that read the rows themselves call
        `back_substitute` first."""
        ncols = self.ncols
        ech = _Echelon(self.field)
        for row in self._rows:
            if len(ech.pivots) == ncols:
                break  # every later row lies in the span
            ech.insert(row)
        return ech

    def rank(self) -> int:
        return len(self._rref_rows().pivots)

    def kernel(self) -> "FieldMatrix":
        """Basis of the right null space, one basis vector per column.

        The basis size is always ncols - rank, and columns are ordered by
        their free coordinate, so results are deterministic.
        """
        ech = self._rref_rows()
        ech.back_substitute()
        neg = self.field.neg
        pivot_set = set(ech.pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        # Free coordinate j of basis vector j is 1; pivot coordinate pc of
        # it is minus the entry of pc's reduced row in column j.
        out = [[int(c == j) for j in free] for c in range(self.ncols)]
        for row, pc in zip(ech.rows, ech.pivots):
            row = ech.unpack(row, self.ncols)
            out[pc] = [neg(row[j]) for j in free]
        return FieldMatrix._canonical(self.field, out, len(free))

    def _solve_right(self, rhs: list[list[int]]) -> list[list[int]] | None:
        """X with self @ X = rhs for square self, read off the reduced
        [self | rhs]; None when self is singular."""
        n = self.nrows
        width = n + (len(rhs[0]) if rhs else 0)
        aug = FieldMatrix._canonical(
            self.field, [row + extra for row, extra in zip(self._rows, rhs)], width
        )
        ech = aug._rref_rows()
        if ech.pivots[:n] != list(range(n)):
            return None
        ech.back_substitute()
        return [ech.unpack(r, width)[n:] for r in ech.rows]

    def inverse(self) -> "FieldMatrix":
        """The inverse, computed on the first call and cached; a singular
        matrix raises `SingularMatrix` on every call."""
        if self._inverse is not None:
            return self._inverse
        if self.nrows != self.ncols:
            raise ShapeError("only square matrices can be inverted")
        n = self.nrows
        inv = self._solve_right(FieldMatrix.identity(self.field, n)._rows)
        if inv is None:
            raise SingularMatrix(f"matrix of rank {self.rank()} < {n} has no inverse")
        self._inverse = FieldMatrix._canonical(self.field, inv, n)
        return self._inverse

    def solve(self, vec) -> list[int]:
        """Solution x of self @ x = vec for square invertible self."""
        if self.nrows != self.ncols:
            raise ShapeError("solve requires a square matrix")
        if len(vec) != self.nrows:
            raise ShapeError(f"rhs length {len(vec)} != {self.nrows}")
        x = self._solve_right([[v] for v in vec])
        if x is None:
            raise SingularMatrix("coefficient matrix is singular")
        return [r[0] for r in x]

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and len(self._rref_rows().pivots) == self.nrows


# ---------------------------------------------------------------------------
# Sampling and enumeration
# ---------------------------------------------------------------------------

def random_matrix(field: FieldSpec, nrows: int, ncols: int, rng: random.Random) -> FieldMatrix:
    q = field.q
    return FieldMatrix._canonical(
        field, [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)], ncols
    )


class _Echelon:
    """Row echelon basis of a growing row space: the one elimination engine
    behind sampling, enumeration, rank, kernel, inverse, solve and leakage.

    Rows are normalized (pivot entry 1), kept in pivot-column order, and
    zero left of their pivots.  Inserting a row touches no earlier row, so
    rank queries pay for no reduced form.  `back_substitute` also clears every pivot column
    above its pivot, which leaves the unique reduced row echelon form.  The
    residue of a vector modulo the span is the one member of its coset that
    is zero in every pivot column, so `reduce` gives the same residue
    against either form.  Rows are replaced, never changed in place, so a
    copy may share them.

    The basis holds its rows packed.  Over GF(2) a packed row is one int
    with column j in byte j, `int.from_bytes(bytes(row), "little")`, so
    packing and unpacking run in C; a row update is one XOR, and the
    lowest set bit gives the pivot.  Over every other field a packed row
    is a list of symbols, updated by the field's row kernels.  `insert`
    and `reduce` take list rows; `insert_packed` and `reduce_packed` take
    rows from `pack`, and `unpack` turns one back into a list.
    """

    __slots__ = ("field", "rows", "pivots", "_bits")

    def __init__(self, field: FieldSpec):
        self.field = field
        self.rows: list = []
        self.pivots: list[int] = []
        self._bits = field.q == 2

    def copy(self) -> "_Echelon":
        other = _Echelon(self.field)
        other.rows, other.pivots = list(self.rows), list(self.pivots)
        return other

    def pack(self, vec):
        """vec, a sequence of symbols, as a packed row."""
        return int.from_bytes(bytes(vec), "little") if self._bits else vec

    def unpack(self, row, ncols: int) -> list[int]:
        """A packed row of width ncols as a list of symbols; over fields
        other than GF(2) the row itself, which must not be changed."""
        return list(row.to_bytes(ncols, "little")) if self._bits else row

    def reduce(self, vec) -> list[int]:
        """vec reduced modulo the span, as a new list; all zero iff vec lies in it."""
        return self.unpack(self.reduce_packed(self.pack(vec)), len(vec))

    def insert(self, vec) -> bool:
        """Add vec to the basis; False, leaving the basis unchanged, when vec
        already lies in the span."""
        return self.insert_packed(self.pack(vec))

    def reduce_packed(self, row):
        """A packed row reduced modulo the span, as a new packed row; zero
        (all zero) iff it lies in the span."""
        if self._bits:
            for pc, brow in zip(self.pivots, self.rows):
                if row >> (pc << 3) & 1:
                    row ^= brow
            return row
        sub_scaled = self.field.row_sub_scaled
        vec = list(row)
        # A basis row is zero left of its pivot, so only the columns right
        # of the pivot change.
        for pc, brow in zip(self.pivots, self.rows):
            c = vec[pc]
            if c:
                vec[pc] = 0
                vec[pc + 1:] = sub_scaled(vec[pc + 1:], c, brow[pc + 1:])
        return vec

    def insert_packed(self, row) -> bool:
        """`insert` for a packed row."""
        row = self.reduce_packed(row)
        if self._bits:
            if not row:
                return False
            p = ((row & -row).bit_length() - 1) >> 3
        else:
            for p, lead in enumerate(row):
                if lead:
                    break
            else:
                return False
            if lead != 1:
                f = self.field
                row[p] = 1
                row[p + 1:] = f.row_scale(f.inv(lead), row[p + 1:])
        at = bisect.bisect(self.pivots, p)
        self.pivots.insert(at, p)
        self.rows.insert(at, row)
        return True

    def space_key(self) -> tuple:
        """A hashable key of the row space, equal for two bases exactly when
        they span the same space: the rows of the unique reduced form, which
        the call leaves in place by back-substituting first."""
        self.back_substitute()
        return tuple(self.rows) if self._bits else tuple(map(tuple, self.rows))

    def back_substitute(self) -> None:
        """Clear each pivot column above its pivot, bottom-up, leaving the
        reduced row echelon form of the span."""
        rows = self.rows
        if self._bits:
            for i in range(len(rows) - 1, 0, -1):
                row = rows[i]
                low = row & -row
                for j in range(i):
                    if rows[j] & low:
                        rows[j] ^= row
            return
        sub_scaled = self.field.row_sub_scaled
        for i in range(len(rows) - 1, 0, -1):
            p = self.pivots[i]
            tail = rows[i][p + 1:]
            for j in range(i):
                brow = rows[j]
                c = brow[p]
                if c:
                    rows[j] = brow[:p] + [0] + sub_scaled(brow[p + 1:], c, tail)


def sample_full_rank(
    field: FieldSpec, nrows: int, ncols: int, rng: random.Random
) -> FieldMatrix:
    """Uniform sample from the full-rank nrows x ncols matrices.

    Rows are drawn uniformly and redrawn while they fall inside the span of
    the earlier rows, which keeps the distribution exactly uniform; each
    redraw accepts with probability at least 1 - 1/q.
    """
    if nrows > ncols:
        raise ShapeError(f"no full-rank {nrows}x{ncols} matrix exists")
    q = field.q
    ech = _Echelon(field)
    rows = []
    while len(rows) < nrows:
        cand = [rng.randrange(q) for _ in range(ncols)]
        if ech.insert(cand):
            rows.append(cand)
    return FieldMatrix._canonical(field, rows, ncols)


def sample_gl(dim: int, field: FieldSpec, rng: random.Random) -> FieldMatrix:
    """Exactly uniform sample from GL(dim, q)."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return sample_full_rank(field, dim, dim, rng)


def gl_order(dim: int, q: int) -> int:
    order = 1
    for i in range(dim):
        order *= q**dim - q**i
    return order


def all_vectors(field: FieldSpec, dim: int) -> list[list[int]]:
    """Every vector of F_q^dim; vector idx has the base-q digits of idx as its
    coordinates, least significant first, so the first coordinate varies
    fastest."""
    q = field.q
    return [[(idx // q**i) % q for i in range(dim)] for idx in range(q**dim)]


def enumerate_gl(dim: int, field: FieldSpec) -> list[FieldMatrix]:
    """All of GL(dim, q) in a deterministic order, at most MAX_GL_ENUMERATION."""
    total = gl_order(dim, field.q)
    if total > MAX_GL_ENUMERATION:
        raise EnumerationTooLarge(f"|GL({dim},{field.q})| = {total} exceeds {MAX_GL_ENUMERATION}")
    out: list[FieldMatrix] = []
    vectors = all_vectors(field, dim)
    start = _Echelon(field)
    packed = [start.pack(v) for v in vectors]

    def extend(rows: list[list[int]], ech: _Echelon) -> None:
        if len(rows) == dim:
            out.append(FieldMatrix._canonical(field, list(rows), dim))
            return
        for cand, pcand in zip(vectors, packed):
            grown = ech.copy()
            if grown.insert_packed(pcand):
                rows.append(cand)
                extend(rows, grown)
                rows.pop()

    extend([], start)
    assert len(out) == total
    return out
