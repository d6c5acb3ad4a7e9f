"""Dense matrices over a FieldSpec: exact rank, kernel, inverse, sampling.

Every elimination runs through one echelon basis, `_Echelon`.  Inserting
rows keeps a row echelon form, which is all a rank, an invertibility test
or a residue modulo the span needs; `_Echelon.back_substitute` turns it
into the reduced row echelon form only where reduced rows are read
(`kernel`, `inverse`, row-space keys), by re-inserting each row into a
basis of the rows below it.  Row subtractions run in two loops of the same
rule: `_Echelon.reduce_packed`, which returns a residue, and its copy
inside `_Echelon.insert_packed`, which reduces, normalizes and places a
packed row in one frame.  `solve` back-substitutes its right-hand side
alone, one scalar per row.  The reduced form is unique, so kernels and
inverses are identical across runs.  `sample_full_rank` keeps the
sampled rows in a basis, or over GF(2) with few rows in the set of their
span.  The engine packs each row into one int over the
fields of characteristic 2 up to GF(256), one byte per column, and over
the prime fields with p > 2, one 64-bit cell per column.  Over the former
it subtracts c times a row with one XOR of its bytes translated through
the field's table for c (`FieldSpec.byte_products`); over the latter with
one integer multiply-add, reducing the cells mod p only where a row is
stored, tested or read.  Over odd-characteristic extension fields and
GF(2^e) with e > 8 rows stay lists, updated through the field's row
primitives (`FieldSpec.row_sub_scaled`, `row_scale`).  Products go through
`row_dot`, never a scalar call per cell.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
import struct

from .errors import EnumerationTooLarge, ShapeError, SingularMatrix
from .fields import FieldSpec, check_elements, is_element, random_symbols

MAX_GL_ENUMERATION = 100_000  # largest |GL(dim, q)| that enumerate_gl lists

# Over GF(2) a sample of at most this many rows tests each candidate against
# the set of its accepted rows' span, at most 2^4 = 16 keys, not a basis.
_SPAN_SET_ROWS = 5

# One column of a packed prime-field row.  Every p is below
# MAX_FIELD_SIZE = 2^16, so (p - 1)^2 < 2^32, and a cell that starts below
# p stays below p + 2^32 (p - 1)^2 < 2^64 through 2^32 subtractions of
# canonical rows: no carry reaches the next cell (see `_Echelon`).
_CELL_BYTES = 8
_CELL_BITS = 8 * _CELL_BYTES
_CELL_MASK = (1 << _CELL_BITS) - 1


class FieldMatrix:
    """A rows x cols matrix with entries canonical in the given field.

    Treated as immutable: operations return new matrices, and `inverse`
    caches its result on the matrix, which is only sound because the
    entries never change after construction.
    """

    __slots__ = ("field", "nrows", "ncols", "_rows", "_inverse")

    def __init__(self, field: FieldSpec, rows, ncols: int | None = None):
        if ncols is not None and not is_element(ncols, math.inf):
            raise ValueError(f"ncols = {ncols!r} is not a non-negative integer")
        data = [list(r) for r in rows]
        self.field = field
        self.nrows = len(data)
        if data:
            self.ncols = len(data[0])
            if ncols is not None and ncols != self.ncols:
                raise ShapeError(f"rows have {self.ncols} columns, ncols = {ncols}")
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
        check_elements(vec, self.field.q, "vector entry")
        return self._mul_vector(vec)

    def _mul_vector(self, vec) -> list[int]:
        """`mul_vector` for a vector its caller has checked: ncols
        canonical symbols."""
        dot = self.field.row_dot
        return [dot(row, vec) for row in self._rows]

    # -- elimination -----------------------------------------------------------------

    def _rref_rows(self) -> "_Echelon":
        """The row echelon basis of the row space: its nonzero rows, packed,
        and their pivot columns.  Callers that read the rows themselves call
        `back_substitute` first."""
        ncols = self.ncols
        ech = _Echelon(self.field)
        pivots, insert_packed, pack = ech.pivots, ech.insert_packed, ech.pack
        for row in self._rows:
            if len(pivots) == ncols:
                break  # every later row lies in the span
            insert_packed(pack(row))
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
            row = ech.unpack_canonical(row, self.ncols)
            out[pc] = [neg(row[j]) for j in free]
        return FieldMatrix._canonical(self.field, out, len(free))

    def inverse(self) -> "FieldMatrix":
        """The inverse, computed on the first call and cached; a singular
        matrix raises `SingularMatrix` on every call.  Read off the reduced
        [self | I]."""
        if self._inverse is not None:
            return self._inverse
        if self.nrows != self.ncols:
            raise ShapeError("only square matrices can be inverted")
        n = self.nrows
        ident = FieldMatrix.identity(self.field, n)._rows
        aug = FieldMatrix._canonical(
            self.field, [row + extra for row, extra in zip(self._rows, ident)], 2 * n
        )
        ech = aug._rref_rows()
        if ech.pivots[:n] != list(range(n)):
            rank = sum(pc < n for pc in ech.pivots)  # the pivots in self's columns
            raise SingularMatrix(f"matrix of rank {rank} < {n} has no inverse")
        ech.back_substitute()
        inv = [ech.unpack_canonical(r, 2 * n)[n:] for r in ech.rows]
        self._inverse = FieldMatrix._canonical(self.field, inv, n)
        return self._inverse

    def solve(self, vec) -> list[int]:
        """Solution x of self @ x = vec for square invertible self.

        Forward elimination of [self | vec] leaves normalized rows u with
        pivots 0..n-1, so x_i = u_(i,n) - sum over j > i of u_(i,j) x_j,
        bottom-up: only the right-hand side is back-substituted.
        """
        if self.nrows != self.ncols:
            raise ShapeError("solve requires a square matrix")
        n = self.nrows
        if len(vec) != n:
            raise ShapeError(f"rhs length {len(vec)} != {n}")
        check_elements(vec, self.field.q, "vector entry")
        return self._solve(vec)

    def _solve(self, vec) -> list[int]:
        """`solve` for a square self and a right-hand side its caller has
        checked: n canonical symbols."""
        n = self.nrows
        aug = FieldMatrix._canonical(
            self.field, [row + [v] for row, v in zip(self._rows, vec)], n + 1
        )
        ech = aug._rref_rows()
        if ech.pivots[:n] != list(range(n)):
            raise SingularMatrix("coefficient matrix is singular")
        dot, sub = self.field.row_dot, self.field.sub
        x: list[int] = []
        for i in range(n - 1, -1, -1):
            u = ech.unpack_canonical(ech.rows[i], n + 1)
            x.insert(0, sub(u[n], dot(u[i + 1:n], x)))
        return x


# ---------------------------------------------------------------------------
# Sampling and enumeration
# ---------------------------------------------------------------------------

def random_matrix(field: FieldSpec, nrows: int, ncols: int, rng: random.Random) -> FieldMatrix:
    rows = [random_symbols(rng, field.q, ncols) for _ in range(nrows)]
    return FieldMatrix._canonical(field, rows, ncols)


def _times(row: int, table: bytes) -> int:
    """c*row for a byte-packed row, through c's `byte_products` table."""
    return int.from_bytes(
        row.to_bytes((row.bit_length() + 7) >> 3, "little").translate(table), "little"
    )


@functools.cache
def _cells(ncols: int) -> struct.Struct:
    """The layout of a packed prime-field row of width ncols: one
    little-endian 64-bit cell per column, built once per width."""
    return struct.Struct("<%dQ" % ncols)  # "Q": _CELL_BYTES bytes


class _Echelon:
    """Row echelon basis of a growing row space: the one elimination engine
    behind sampling, enumeration, rank, kernel, inverse, solve and leakage.

    Rows enter a basis only through `insert_packed`, which reduces and
    normalizes them (pivot entry 1) and keeps them in pivot-column order,
    zero left of their pivots, appending a row whose pivot is the largest.
    Over the packed forms it does so in one frame, with the subtraction
    loop of `reduce_packed` written out, so its residue is the one
    `reduce_packed` returns; over list rows it calls `reduce_packed`.
    Inserting a row touches no earlier row, so rank queries and `solve` pay
    for no reduced form; `back_substitute` re-inserts the rows bottom-up,
    which leaves the unique reduced row echelon form.  The residue of a
    vector modulo the span is the one member of its coset that is zero in
    every pivot column, so `reduce_packed` gives the same residue against
    either form.  Rows are replaced, never changed in place, so a copy may
    share them.

    The basis holds its rows packed, in one of three forms:

    - Characteristic 2 with q <= 256: one int with column j in byte j,
      `int.from_bytes(bytes(row), "little")`, so packing and unpacking run
      in C.  Addition is XOR, so subtracting c times a basis row is one XOR
      with the row's bytes translated through the field's `byte_products`
      table for c, or with the row itself when c = 1, as it always is over
      GF(2); the lowest set bit gives the pivot.
    - A prime field with p > 2: one int with column j in the 64-bit cell j,
      packed and unpacked through one cached `struct.Struct` per width.
      Subtracting c times a basis row is `row += (p - c) * brow`, with no
      work per cell, and the coefficient at pivot pc is cell pc mod p.
      Cells are reduced mod p only where a row is stored in the basis,
      zero-tested, keyed or unpacked, so basis rows are canonical; a
      reduced row already canonical with lead 1, as a row `back_substitute`
      re-inserts is when no row below subtracts from it, is stored as it
      is.  Each
      subtraction adds at most (p - 1)^2 to a cell, and a row is reduced at
      most twice between canonical forms (a residue from `reduce_packed`
      that `insert_packed` takes), so a cell of a row of width ncols stays
      below p + 2 ncols (p - 1)^2, inside its `_CELL_BITS` bits for every
      width up to 2^31.
    - Every other field: a list of symbols, updated by the field's row
      primitives.

    `insert` takes a list row of field elements; `insert_packed` and
    `reduce_packed` take rows from `pack` (or residues from
    `reduce_packed`), and `unpack` turns one back into a list.
    """

    __slots__ = ("field", "rows", "pivots", "_products", "_p")

    def __init__(self, field: FieldSpec):
        self.field = field
        self.rows: list = []
        self.pivots: list[int] = []
        self._products = field.byte_products
        # p when rows are 64-bit cells, else 0
        self._p = field.p if field.e == 1 and field.p > 2 else 0

    def copy(self) -> "_Echelon":
        other = _Echelon(self.field)
        other.rows, other.pivots = list(self.rows), list(self.pivots)
        return other

    def pack(self, vec):
        """vec, a sequence of field elements, as a packed row."""
        if self._products is not None:
            return int.from_bytes(bytes(vec), "little")
        if self._p:
            return int.from_bytes(_cells(len(vec)).pack(*vec), "little")
        return vec

    def unpack(self, row, ncols: int) -> list[int]:
        """A packed row of width ncols, canonical or a residue from
        `reduce_packed`, as a list of symbols; over fields whose rows are
        lists the row itself, which must not be changed."""
        p = self._p
        if p:
            cells = _cells(ncols).unpack(row.to_bytes(ncols * _CELL_BYTES, "little"))
            return [v % p for v in cells]
        return self.unpack_canonical(row, ncols)

    def unpack_canonical(self, row, ncols: int) -> list[int]:
        """`unpack` for a canonical row, such as a row of the basis: over a
        prime field its cells are read as they are, with no reduction."""
        if self._p:
            return list(_cells(ncols).unpack(row.to_bytes(ncols * _CELL_BYTES, "little")))
        if self._products is not None:
            return list(row.to_bytes(ncols, "little"))
        return row

    def insert(self, vec) -> bool:
        """Add vec to the basis; False, leaving the basis unchanged, when vec
        already lies in the span."""
        return self.insert_packed(self.pack(vec))

    def reduce_packed(self, row):
        """A packed row reduced modulo the span, as a new packed row whose
        symbols are all zero iff it lies in the span; over a prime field its
        cells are not reduced mod p, and `unpack` reads them."""
        products = self._products
        if products is not None:
            from_bytes = int.from_bytes
            for pc, brow in zip(self.pivots, self.rows):
                c = row >> (pc << 3) & 255
                if c == 1:
                    row ^= brow
                elif c:  # `_times` inline: at GF(256) its call is ~1/4 of this loop
                    data = brow.to_bytes((brow.bit_length() + 7) >> 3, "little")
                    row ^= from_bytes(data.translate(products[c]), "little")
            return row
        p = self._p
        if p:
            bits, mask = _CELL_BITS, _CELL_MASK
            for pc, brow in zip(self.pivots, self.rows):
                c = (row >> bits * pc & mask) % p
                if c:
                    row += (p - c) * brow
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
        """`insert` for a packed row: reduced, normalized and placed in this
        one frame for the packed forms, with `reduce_packed`'s subtraction
        loop written out; over list rows through `reduce_packed`."""
        pivots, rows = self.pivots, self.rows
        products = self._products
        p = self._p
        if products is not None:
            from_bytes = int.from_bytes
            for pc, brow in zip(pivots, rows):
                c = row >> (pc << 3) & 255
                if c == 1:
                    row ^= brow
                elif c:
                    data = brow.to_bytes((brow.bit_length() + 7) >> 3, "little")
                    row ^= from_bytes(data.translate(products[c]), "little")
            if not row:
                return False
            pc = ((row & -row).bit_length() - 1) >> 3
            lead = row >> (pc << 3) & 255
            if lead != 1:
                row = _times(row, products[self.field.inv(lead)])
        elif p:
            bits, mask = _CELL_BITS, _CELL_MASK
            for pc, brow in zip(pivots, rows):
                c = (row >> bits * pc & mask) % p
                if c:
                    row += (p - c) * brow
            n = -(-row.bit_length() // bits)  # up to the highest nonzero cell
            cells = _cells(n)
            lazy = cells.unpack(row.to_bytes(n * _CELL_BYTES, "little"))
            for pc, lead in enumerate(lazy):
                lead %= p
                if lead:
                    break
            else:
                return False
            if lead != 1:
                s = self.field.inv(lead)
                row = int.from_bytes(cells.pack(*[s * v % p for v in lazy]), "little")
            elif max(lazy) >= p:  # a canonical row with lead 1 is stored as it is
                row = int.from_bytes(cells.pack(*[v % p for v in lazy]), "little")
        else:
            row = self.reduce_packed(row)
            for pc, lead in enumerate(row):
                if lead:
                    break
            else:
                return False
            if lead != 1:
                f = self.field
                row[pc] = 1
                row[pc + 1:] = f.row_scale(f.inv(lead), row[pc + 1:])
        if not pivots or pc > pivots[-1]:
            pivots.append(pc)
            rows.append(row)
        else:
            at = bisect.bisect(pivots, pc)
            pivots.insert(at, pc)
            rows.insert(at, row)
        return True

    def space_key(self) -> tuple:
        """A hashable key of the row space, equal for two bases exactly when
        they span the same space: the rows of the unique reduced form, which
        the call leaves in place by back-substituting first."""
        self.back_substitute()
        if self._products is None and not self._p:
            return tuple(map(tuple, self.rows))
        return tuple(self.rows)

    def back_substitute(self) -> None:
        """Insert the rows, bottom-up, into a fresh basis, which replaces each
        by its residue modulo the rows below it: those are already reduced,
        so the residue keeps its pivot, and the rows left form the reduced
        row echelon form of the span, in a new `rows` list."""
        below = _Echelon(self.field)
        for row in reversed(self.rows):
            below.insert_packed(row)
        self.rows = below.rows


def sample_full_rank(
    field: FieldSpec, nrows: int, ncols: int, rng: random.Random
) -> FieldMatrix:
    """Uniform sample from the full-rank nrows x ncols matrices.

    Rows are drawn uniformly and redrawn while they fall inside the span of
    the earlier rows, which keeps the distribution exactly uniform; each
    redraw accepts with probability at least 1 - 1/q.  Candidates are drawn
    as `random_symbols` draws them, call for call, and a candidate is
    rejected exactly when it lies in the span, so the matrix and the state
    `rng` is left in depend on neither test: over GF(2) with at most
    `_SPAN_SET_ROWS` rows the span is a set of packed rows, otherwise an
    `_Echelon`, and the last row is only reduced, never stored.
    """
    if nrows > ncols:
        raise ShapeError(f"no full-rank {nrows}x{ncols} matrix exists")
    rows: list[list[int]] = []
    if nrows <= 0:
        return FieldMatrix._canonical(field, rows, ncols)
    q = field.q
    k = q.bit_length()
    getrandbits = rng.getrandbits
    from_bytes = int.from_bytes
    if q == 2 and nrows <= _SPAN_SET_ROWS:
        span = {0}
    else:
        span = None
        ech = _Echelon(field)
        insert_packed, reduce_packed, pack, unpack = (
            ech.insert_packed, ech.reduce_packed, ech.pack, ech.unpack
        )
        xor_rows = ech._products is not None  # a residue is zero iff it is 0
    last = nrows - 1
    while True:
        cand = []  # `random_symbols(rng, q, ncols)`, written out
        for _ in range(ncols):
            r = getrandbits(k)
            while r >= q:
                r = getrandbits(k)
            cand.append(r)
        if span is not None:
            key = from_bytes(bytes(cand), "little")
            if key in span:
                continue
        elif len(rows) < last:
            if not insert_packed(pack(cand)):
                continue
        else:
            residue = reduce_packed(pack(cand))
            if not (residue if xor_rows else any(unpack(residue, ncols))):
                continue
        rows.append(cand)
        if len(rows) == nrows:
            return FieldMatrix._canonical(field, rows, ncols)
        if span is not None:
            span |= {key ^ s for s in span}


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
    _extend_gl(out, list(zip(vectors, map(start.pack, vectors))), [], start, dim)
    assert len(out) == total
    return out


def _extend_gl(out: list, candidates: list, rows: list, ech: _Echelon, dim: int) -> None:
    """Append to `out`, in order, every invertible dim x dim matrix whose
    first rows are `rows`, spanning `ech`; `candidates` lists each vector
    with its packed row.  A module-level function, not a closure, so the
    recursion leaves no reference cycle holding the matrices."""
    if len(rows) == dim:
        out.append(FieldMatrix._canonical(ech.field, list(rows), dim))
        return
    for cand, pcand in candidates:
        grown = ech.copy()
        if grown.insert_packed(pcand):
            rows.append(cand)
            _extend_gl(out, candidates, rows, grown, dim)
            rows.pop()
