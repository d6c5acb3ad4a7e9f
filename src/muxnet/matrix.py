"""Dense matrices over a FieldSpec: exact rank, kernel, inverse, sampling.

Every elimination runs through one reduced echelon basis, `_Echelon`.  The
reduced row echelon form of a matrix is unique, so reduced forms, kernels
and inverses are identical across runs.  Row updates and products go
through the field's row primitives (`FieldSpec.row_sub_scaled`,
`row_scale`, `row_dot`), never a scalar call per cell.
"""

from __future__ import annotations

import bisect
import random

from .errors import EnumerationTooLarge, ShapeError, SingularMatrix
from .fields import FieldSpec

DEFAULT_GL_ENUM_CAP = 100_000


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
                # bool is an int subclass; reject it too
                if type(v) is not int or not 0 <= v < q:
                    raise ValueError(f"matrix entry {v!r} is not an integer in [0, {q})")
        self._rows = data
        self._inverse = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "FieldMatrix":
        return cls(field, [[0] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "FieldMatrix":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
        return cls(field, rows, ncols=n)

    @classmethod
    def from_flat(cls, field: FieldSpec, nrows: int, ncols: int, entries) -> "FieldMatrix":
        entries = list(entries)
        if len(entries) != nrows * ncols:
            raise ShapeError(f"expected {nrows * ncols} entries, got {len(entries)}")
        return cls(
            field,
            [entries[i * ncols:(i + 1) * ncols] for i in range(nrows)],
            ncols=ncols,
        )

    @classmethod
    def vstack(cls, mats: list["FieldMatrix"]) -> "FieldMatrix":
        if not mats:
            raise ShapeError("vstack needs at least one matrix")
        field = mats[0].field
        ncols = mats[0].ncols
        rows = []
        for m in mats:
            if m.field != field or m.ncols != ncols:
                raise ShapeError("vstack operands disagree on field or width")
            rows.extend(m._rows)
        return cls(field, rows, ncols=ncols)

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
        return FieldMatrix(self.field, out, ncols=other.ncols)

    def mul_vector(self, vec) -> list[int]:
        if len(vec) != self.ncols:
            raise ShapeError(f"vector length {len(vec)} != {self.ncols}")
        dot = self.field.row_dot
        return [dot(row, vec) for row in self._rows]

    # -- elimination -----------------------------------------------------------------

    def _rref_rows(self) -> tuple[list[list[int]], list[int]]:
        """Reduced row echelon form as (rows, pivot columns); zero rows last."""
        ech = _Echelon(self.field)
        for row in self._rows:
            if len(ech.pivots) == self.ncols:
                break  # every later row lies in the span
            ech.insert(row)
        zeros = [[0] * self.ncols for _ in range(self.nrows - len(ech.rows))]
        return ech.rows + zeros, ech.pivots

    def rank(self) -> int:
        return len(self._rref_rows()[1])

    def kernel(self) -> "FieldMatrix":
        """Basis of the right null space, one basis vector per column.

        The basis size is always ncols - rank, and columns are ordered by
        their free coordinate, so results are deterministic.
        """
        rows, pivots = self._rref_rows()
        neg = self.field.neg
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        # Free coordinate j of basis vector j is 1; pivot coordinate pc of
        # it is minus the entry of pc's reduced row in column j.
        out = [[int(c == j) for j in free] for c in range(self.ncols)]
        for row, pc in zip(rows, pivots):
            out[pc] = [neg(row[j]) for j in free]
        return FieldMatrix(self.field, out, ncols=len(free))

    def _solve_right(self, rhs: list[list[int]]) -> list[list[int]] | None:
        """X with self @ X = rhs for square self, read off the reduced
        [self | rhs]; None when self is singular."""
        n = self.nrows
        aug = FieldMatrix(self.field, [row + extra for row, extra in zip(self._rows, rhs)])
        rows, pivots = aug._rref_rows()
        if pivots[:n] != list(range(n)):
            return None
        return [r[n:] for r in rows]

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
        self._inverse = FieldMatrix(self.field, inv, ncols=n)
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
        return self.nrows == self.ncols and self.rank() == self.nrows

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "q": self.field.q,
            "entries": [v for row in self._rows for v in row],
        }

    @classmethod
    def from_json(cls, doc: dict, field: FieldSpec | None = None) -> "FieldMatrix":
        from .fields import GF

        if field is None:
            field = GF(doc["q"])
        elif field.q != doc["q"]:
            raise ValueError(f"document field GF({doc['q']}) != GF({field.q})")
        return cls.from_flat(field, doc["rows"], doc["cols"], doc["entries"])


# ---------------------------------------------------------------------------
# Sampling and enumeration
# ---------------------------------------------------------------------------

def random_matrix(field: FieldSpec, nrows: int, ncols: int, rng: random.Random) -> FieldMatrix:
    q = field.q
    return FieldMatrix(
        field, [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)], ncols=ncols
    )


class _Echelon:
    """Reduced row echelon basis of a growing row space: the one elimination
    engine behind sampling, enumeration, rank, kernel, inverse, solve and
    leakage.

    Rows are normalized (pivot entry 1) and kept in pivot-column order, and
    every pivot column is zero in every other row, so inserting a matrix's
    rows one by one leaves exactly its reduced row echelon form.  Rows are
    replaced, never changed in place, so a copy may share them.
    """

    __slots__ = ("field", "rows", "pivots")

    def __init__(self, field: FieldSpec):
        self.field = field
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def copy(self) -> "_Echelon":
        other = _Echelon(self.field)
        other.rows, other.pivots = list(self.rows), list(self.pivots)
        return other

    def reduce(self, vec) -> list[int]:
        """vec reduced modulo the span, as a new list; all zero iff vec lies in it."""
        sub_scaled = self.field.row_sub_scaled
        vec = list(vec)
        # A basis row is zero left of its pivot, so only the columns right
        # of the pivot change.
        for pc, row in zip(self.pivots, self.rows):
            c = vec[pc]
            if c:
                vec[pc] = 0
                vec[pc + 1:] = sub_scaled(vec[pc + 1:], c, row[pc + 1:])
        return vec

    def insert(self, vec) -> bool:
        """Add vec to the basis; False, leaving the basis unchanged, when vec
        already lies in the span."""
        vec = self.reduce(vec)
        for p, lead in enumerate(vec):
            if lead:
                break
        else:
            return False
        f = self.field
        if lead != 1:
            vec[p] = 1
            vec[p + 1:] = f.row_scale(f.inv(lead), vec[p + 1:])
        tail = vec[p + 1:]
        sub_scaled = f.row_sub_scaled
        rows = self.rows
        for i, row in enumerate(rows):
            c = row[p]
            if c:
                rows[i] = row[:p] + [0] + sub_scaled(row[p + 1:], c, tail)
        at = bisect.bisect(self.pivots, p)
        self.pivots.insert(at, p)
        rows.insert(at, vec)
        return True


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
    return FieldMatrix(field, rows, ncols=ncols)


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


def enumerate_gl(
    dim: int, field: FieldSpec, cap: int = DEFAULT_GL_ENUM_CAP
) -> list[FieldMatrix]:
    """All of GL(dim, q) in a deterministic order; guarded by `cap`."""
    total = gl_order(dim, field.q)
    if total > cap:
        raise EnumerationTooLarge(f"|GL({dim},{field.q})| = {total} exceeds cap {cap}")
    q = field.q
    out: list[FieldMatrix] = []

    vectors = [[(idx // q**i) % q for i in range(dim)] for idx in range(q**dim)]

    def extend(rows: list[list[int]], ech: _Echelon) -> None:
        if len(rows) == dim:
            out.append(FieldMatrix(field, rows, ncols=dim))
            return
        for cand in vectors:
            grown = ech.copy()
            if grown.insert(cand):
                rows.append(cand)
                extend(rows, grown)
                rows.pop()

    extend([], _Echelon(field))
    assert len(out) == total
    return out
