"""Dense matrices over a FieldSpec: exact rank, kernel, inverse, sampling.

Elimination always picks the leftmost column and the topmost nonzero row,
so reduced forms, kernels and inverses are identical across runs.
"""

from __future__ import annotations

import random
from fractions import Fraction

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
                if not 0 <= v < q:
                    raise ValueError(f"entry {v!r} not canonical in GF({q})")
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

    def row(self, i: int) -> list[int]:
        return list(self._rows[i])

    def entry(self, i: int, j: int) -> int:
        return self._rows[i][j]

    def rows_list(self) -> list[list[int]]:
        return [list(r) for r in self._rows]

    def as_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(r) for r in self._rows)

    def copy(self) -> "FieldMatrix":
        return FieldMatrix(self.field, self._rows, ncols=self.ncols)

    def take_rows(self, indices) -> "FieldMatrix":
        return FieldMatrix(self.field, [self._rows[i] for i in indices], ncols=self.ncols)

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(
            self.field,
            [[self._rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

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
        f = self.field
        mul, add = f.mul, f.add
        bt = [[other._rows[t][j] for t in range(other.nrows)] for j in range(other.ncols)]
        out = []
        for arow in self._rows:
            orow = []
            for bcol in bt:
                acc = 0
                for t, av in enumerate(arow):
                    if av:
                        acc = add(acc, mul(av, bcol[t]))
                orow.append(acc)
            out.append(orow)
        return FieldMatrix(f, out, ncols=other.ncols)

    def mul_vector(self, vec) -> list[int]:
        if len(vec) != self.ncols:
            raise ShapeError(f"vector length {len(vec)} != {self.ncols}")
        f = self.field
        mul, add = f.mul, f.add
        out = []
        for row in self._rows:
            acc = 0
            for v, x in zip(row, vec):
                if v and x:
                    acc = add(acc, mul(v, x))
            out.append(acc)
        return out

    def scale(self, c: int) -> "FieldMatrix":
        f = self.field
        return FieldMatrix(
            f, [[f.mul(c, v) for v in row] for row in self._rows], ncols=self.ncols
        )

    def add_matrix(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.nrows != other.nrows or self.ncols != other.ncols or self.field != other.field:
            raise ShapeError("matrix addition shape mismatch")
        f = self.field
        return FieldMatrix(
            f,
            [
                [f.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ],
            ncols=self.ncols,
        )

    # -- elimination -----------------------------------------------------------------

    def _rref_rows(self) -> tuple[list[list[int]], list[int]]:
        """Reduced row echelon form of a copy; returns (rows, pivot columns)."""
        f = self.field
        mul, sub, inv = f.mul, f.sub, f.inv
        rows = [list(r) for r in self._rows]
        nrows, ncols = self.nrows, self.ncols
        pivots: list[int] = []
        r = 0
        for c in range(ncols):
            pr = None
            for i in range(r, nrows):
                if rows[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            piv = rows[r][c]
            if piv != 1:
                s = inv(piv)
                rows[r] = [mul(s, v) for v in rows[r]]
            prow = rows[r]
            for i in range(nrows):
                if i != r and rows[i][c]:
                    fac = rows[i][c]
                    rows[i] = [sub(v, mul(fac, pv)) for v, pv in zip(rows[i], prow)]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return rows, pivots

    def rref(self) -> tuple["FieldMatrix", tuple[int, ...]]:
        rows, pivots = self._rref_rows()
        return FieldMatrix(self.field, rows, ncols=self.ncols), tuple(pivots)

    def rank(self) -> int:
        return len(self._rref_rows()[1])

    def kernel(self) -> "FieldMatrix":
        """Basis of the right null space, one basis vector per column.

        The basis size is always ncols - rank, and columns are ordered by
        their free coordinate, so results are deterministic.
        """
        rows, pivots = self._rref_rows()
        f = self.field
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for j in free:
            vec = [0] * self.ncols
            vec[j] = 1
            for i, pc in enumerate(pivots):
                vec[pc] = f.neg(rows[i][j])
            basis.append(vec)
        cols = [[basis[t][r] for t in range(len(basis))] for r in range(self.ncols)]
        return FieldMatrix(f, cols, ncols=len(basis))

    def inverse(self) -> "FieldMatrix":
        """The inverse, computed on the first call and cached; a singular
        matrix raises `SingularMatrix` on every call."""
        if self._inverse is not None:
            return self._inverse
        if self.nrows != self.ncols:
            raise ShapeError("only square matrices can be inverted")
        n = self.nrows
        aug_rows = []
        for i, row in enumerate(self._rows):
            ext = list(row) + [0] * n
            ext[n + i] = 1
            aug_rows.append(ext)
        aug = FieldMatrix(self.field, aug_rows, ncols=2 * n)
        rows, pivots = aug._rref_rows()
        if list(pivots[:n]) != list(range(n)) or len(pivots) < n:
            raise SingularMatrix(f"matrix of rank {self.rank()} < {n} has no inverse")
        self._inverse = FieldMatrix(self.field, [r[n:] for r in rows], ncols=n)
        return self._inverse

    def solve(self, vec) -> list[int]:
        """Solution x of self @ x = vec for square invertible self."""
        if self.nrows != self.ncols:
            raise ShapeError("solve requires a square matrix")
        if len(vec) != self.nrows:
            raise ShapeError(f"rhs length {len(vec)} != {self.nrows}")
        n = self.nrows
        aug = FieldMatrix(
            self.field,
            [list(row) + [vec[i]] for i, row in enumerate(self._rows)],
            ncols=n + 1,
        )
        rows, pivots = aug._rref_rows()
        if list(pivots[:n]) != list(range(n)) or len(pivots) < n:
            raise SingularMatrix("coefficient matrix is singular")
        return [rows[i][n] for i in range(n)]

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


class _SpanTracker:
    """Incremental echelon basis used to test span membership by elimination."""

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self.echelon: list[tuple[int, list[int]]] = []  # (pivot col, normalized row)

    def reduce(self, vec: list[int]) -> list[int]:
        f = self.field
        mul, sub = f.mul, f.sub
        vec = list(vec)
        for pc, row in self.echelon:
            c = vec[pc]
            if c:
                vec = [sub(v, mul(c, rv)) for v, rv in zip(vec, row)]
        return vec

    def contains(self, vec: list[int]) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec: list[int]) -> None:
        f = self.field
        red = self.reduce(vec)
        pc = next((i for i, v in enumerate(red) if v), None)
        if pc is None:
            raise ValueError("vector already in span")
        if red[pc] != 1:
            s = f.inv(red[pc])
            red = [f.mul(s, v) for v in red]
        self.echelon.append((pc, red))
        self.echelon.sort(key=lambda t: t[0])


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
    tracker = _SpanTracker(field, ncols)
    rows = []
    while len(rows) < nrows:
        cand = [rng.randrange(q) for _ in range(ncols)]
        if tracker.contains(cand):
            continue
        tracker.add(cand)
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

    def all_vectors():
        for idx in range(q**dim):
            yield [(idx // q**i) % q for i in range(dim)]

    def extend(rows: list[list[int]], tracker: _SpanTracker) -> None:
        if len(rows) == dim:
            out.append(FieldMatrix(field, [list(r) for r in rows], ncols=dim))
            return
        for cand in all_vectors():
            if tracker.contains(cand):
                continue
            sub = _SpanTracker(field, dim)
            sub.echelon = list(tracker.echelon)
            sub.add(cand)
            rows.append(cand)
            extend(rows, sub)
            rows.pop()

    extend([], _SpanTracker(field, dim))
    assert len(out) == total
    return out


def gl_uniform_probability(dim: int, q: int) -> Fraction:
    return Fraction(1, gl_order(dim, q))
