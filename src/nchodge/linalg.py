"""Exact linear algebra over the rationals.

Everything downstream reduces to kernels, images and quotients of matrices
with rational entries.  A matrix stores one tuple of sparse rows
`{column: value}` whose values stay Python ints until a division forces a
Fraction (an integral Fraction becomes an int again); products, sums, block
placement and elimination all read and build these rows.  What the module
hands out is dense: vectors are tuples of Fractions, and `rows` is a dense
view of Fractions built on each access.  The one exception is
`apply_sparse`, the one matrix-vector product, which takes and returns
`{index: value}`; `apply` is its dense view.  `reduce` is the one elimination:
`rank`, `solve` (a whole batch of right-hand sides at once) and
`cohomology_at` read the RREF it returns.  It takes a matrix's stored rows
in increasing order of their number of nonzeros (a stable sort) and pivots
each residual at its leftmost nonzero column.  Any row order is safe:
reduced row echelon form depends only on the row space, so pivots, RREF and
every basis derived from them are those of the leftmost-column, topmost-row
elimination, and are deterministic for a given input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CompositionNonzero, DimensionMismatch

Vector = tuple[Fraction, ...]


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to an exact rational")


def vector(entries: Iterable) -> Vector:
    return tuple(_frac(x) for x in entries)


def zero_vector(length: int) -> Vector:
    return (Fraction(0),) * length


def unit_vector(length: int, index: int) -> Vector:
    """The standard basis vector e_index of the given length."""
    return tuple(Fraction(1 if i == index else 0) for i in range(length))


_ZERO = Fraction(0)
SparseRow = dict  # column -> nonzero value, an int unless it is not integral


def int_first(x):
    """`x` as an int when it is integral, else unchanged."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _nonzero(pairs) -> SparseRow:
    """{column: value} of the (column, value) pairs with a nonzero value,
    integer-first; `_frac` checks each non-int."""
    out: SparseRow = {}
    for j, x in pairs:
        if type(x) is not int:
            x = int_first(x if type(x) is Fraction else _frac(x))
        if x:
            out[j] = x
    return out


def _sparse(entries: Sequence) -> SparseRow:
    """The nonzero entries of a dense row."""
    return _nonzero(enumerate(entries))


def _dense(row: SparseRow, length: int) -> Vector:
    out = [_ZERO] * length
    for j, x in row.items():
        out[j] = _frac(x)
    return tuple(out)


def _residual(basis: dict[int, SparseRow], row: SparseRow) -> SparseRow:
    """`row` reduced in place against `basis` (pivot column -> row in RREF)."""
    for p in [c for c in row if c in basis]:
        _subtract(row, row[p], basis[p])
    return row


def _absorb(basis: dict[int, SparseRow], row: SparseRow) -> bool:
    """Add `row` to `basis`, keeping it in RREF; True iff it was independent.

    The residual is normalised at its leftmost column, which is then cleared
    from every other basis row.
    """
    row = _residual(basis, row)
    if not row:
        return False
    pivot = min(row)
    inv = int_first(Fraction(1) / row[pivot])
    new = {j: int_first(x * inv) for j, x in row.items()}
    for other in basis.values():
        if pivot in other:
            _subtract(other, other[pivot], new)
    basis[pivot] = new
    return True


def _subtract(row: SparseRow, factor, other: SparseRow) -> None:
    """row -= factor * other, in place, dropping the zeros it makes."""
    for j, y in other.items():
        x = row.get(j, 0) - factor * y
        if x:
            row[j] = int_first(x)
        else:
            del row[j]


class RationalMatrix:
    """Immutable matrix over the rationals, stored as sparse rows that are
    never changed after construction; `rows` is a dense view of Fractions.

    `ncols` must be passed explicitly when there are no rows; otherwise it is
    inferred and checked against every row.
    """

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        data = [tuple(row) for row in rows]
        sparse = tuple(map(_sparse, data))
        width = len(data[0]) if data else ncols or 0
        if any(len(row) != width for row in data):
            raise DimensionMismatch("ragged rows in matrix literal")
        if ncols is not None and ncols != width:
            raise DimensionMismatch(f"declared {ncols} columns, rows have {width}")
        self._init(sparse, width)

    def _init(self, rows: tuple[SparseRow, ...], ncols: int) -> None:
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    @classmethod
    def _from_sparse(cls, rows: Sequence[SparseRow], ncols: int) -> "RationalMatrix":
        """A matrix that takes ownership of integer-first sparse rows."""
        out = cls.__new__(cls)
        out._init(tuple(rows), ncols)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls._from_sparse([{}] * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._from_sparse([{i: 1} for i in range(n)], n)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], nrows: int) -> "RationalMatrix":
        rows: list[SparseRow] = [{} for _ in range(nrows)]
        for j, col in enumerate(columns):
            if len(col) != nrows:
                raise DimensionMismatch("column length disagrees with nrows")
            for i, x in _sparse(col).items():
                rows[i][j] = x
        return cls._from_sparse(rows, len(columns))

    @classmethod
    def from_blocks(
        cls, nrows: int, ncols: int, blocks: Iterable[tuple[int, int, "RationalMatrix"]]
    ) -> "RationalMatrix":
        """The nrows x ncols sum of blocks, each `(r, c, matrix)` placed with
        its top left entry at row r, column c."""
        rows: list[SparseRow] = [{} for _ in range(nrows)]
        for r, c, mat in blocks:
            if min(r, c) < 0 or r + mat.nrows > nrows or c + mat.ncols > ncols:
                raise DimensionMismatch(
                    f"block {mat.shape} at {(r, c)} leaves a {(nrows, ncols)} matrix"
                )
            for i, row in enumerate(mat._rows, r):
                out = rows[i]
                for j, x in row.items():
                    x += out.get(j + c, 0)
                    if x:
                        out[j + c] = int_first(x)
                    else:
                        del out[j + c]
        return cls._from_sparse(rows, ncols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def rows(self) -> tuple[Vector, ...]:
        """The entries as dense rows of Fractions."""
        return tuple(_dense(row, self.ncols) for row in self._rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.shape == other.shape
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.shape, tuple(frozenset(r.items()) for r in self._rows)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix({self.nrows}x{self.ncols}: {body})"

    def is_zero(self) -> bool:
        return not any(self._rows)

    def entries(self):
        """Yield (i, j, value) for every stored nonzero entry, row by row; a
        value is an int unless it is not integral."""
        return ((i, j, x) for i, row in enumerate(self._rows) for j, x in row.items())

    def column(self, j: int) -> Vector:
        return tuple(_frac(row[j]) if j in row else _ZERO for row in self._rows)

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.ncols:
            raise DimensionMismatch(
                f"matrix has {self.ncols} columns, vector has {len(v)}"
            )
        return _dense(self.apply_sparse(dict(enumerate(v))), self.nrows)

    def apply_sparse(self, v: dict) -> SparseRow:
        """`self @ v` for v given as {column: value}, as an integer-first
        {row: value} without zeros; reads each row only at the columns where
        v has a nonzero entry."""
        if v and not 0 <= min(v) <= max(v) < self.ncols:
            raise DimensionMismatch(f"columns {sorted(v)} reach outside 0..{self.ncols - 1}")
        right = _nonzero(v.items()).items()
        out: SparseRow = {}
        for i, row in enumerate(self._rows):
            total = 0
            for j, x in right:
                if j in row:
                    total += row[j] * x
            if total:
                out[i] = int_first(total)
        return out

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot compose {self.shape} with {other.shape}"
            )
        right = other._rows
        out = []
        for row in self._rows:
            acc: SparseRow = {}
            for k, a in row.items():
                for j, b in right[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: int_first(x) for j, x in acc.items() if x})
        return RationalMatrix._from_sparse(out, other.ncols)

    def scale(self, c) -> "RationalMatrix":
        c = int_first(_frac(c))
        if not c:
            return RationalMatrix.zeros(self.nrows, self.ncols)
        rows = [{j: c * x for j, x in row.items()} for row in self._rows]
        if c not in (1, -1):  # a sign keeps every stored entry integer-first
            rows = [{j: int_first(x) for j, x in row.items()} for row in rows]
        return RationalMatrix._from_sparse(rows, self.ncols)


def _kernel(basis: dict[int, SparseRow], ncols: int) -> list[SparseRow]:
    """The free-variable kernel basis of an RREF, in free column order."""
    kernel = {free: {free: 1} for free in range(ncols) if free not in basis}
    for p, row in basis.items():
        for j, x in row.items():
            if j != p:
                kernel[j][p] = -x
    return list(kernel.values())


def _columns(rows: Sequence[SparseRow], cols: Sequence[int]) -> list[SparseRow]:
    """Columns `cols` of the matrix with stored `rows`, read in one pass."""
    out: dict[int, SparseRow] = {c: {} for c in cols}
    for i, row in enumerate(rows):
        for j, x in row.items():
            if j in out:
                out[j][i] = x
    return list(out.values())


def reduce(matrix: RationalMatrix) -> dict[int, SparseRow]:
    """A fresh RREF of `matrix` (left unchanged) as pivot column ->
    integer-first sparse row; the package's one elimination.  Rows are taken
    shortest first, which the uniqueness of RREF makes immaterial."""
    basis: dict[int, SparseRow] = {}
    for row in sorted(matrix._rows, key=len):
        _absorb(basis, dict(row))
    return basis


def rank(matrix: RationalMatrix) -> int:
    return len(reduce(matrix))


class EchelonSpan:
    """Incremental row-echelon accumulator for span/independence queries."""

    def __init__(self, length: int):
        self.length = length
        self._basis: dict[int, SparseRow] = {}

    def _row(self, v: dict) -> SparseRow:
        if v and not 0 <= min(v) <= max(v) < self.length:
            raise DimensionMismatch(f"columns {sorted(v)} reach outside 0..{self.length - 1}")
        return _nonzero(v.items())

    def add(self, v: dict) -> bool:
        """Add the row `v`, {column: value}; True iff it was independent of the span."""
        return _absorb(self._basis, self._row(v))

    def contains(self, v: dict) -> bool:
        return not _residual(self._basis, self._row(v))

    @property
    def rank(self) -> int:
        return len(self._basis)


def solve(matrix: RationalMatrix, rhs: Sequence[Sequence]) -> list[Vector | None]:
    """For each b in `rhs`, one solution of `matrix @ x = b` (free variables
    zero), or None, from one `reduce` of `[matrix | b_1 ... b_N]`: None iff a
    row pivoted past `matrix` reaches b's column."""
    n = matrix.ncols
    rows = [dict(row) for row in matrix._rows]
    for k, b in enumerate(rhs, n):
        if len(b) != matrix.nrows:
            raise DimensionMismatch("right-hand side length disagrees with matrix")
        for i, x in _sparse(b).items():
            rows[i][k] = x
    basis = reduce(RationalMatrix._from_sparse(rows, n + len(rhs)))
    past = {k for p, row in basis.items() if p >= n for k in row}
    return [
        None if k in past else _dense({p: row[k] for p, row in basis.items() if k in row}, n)
        for k in range(n, n + len(rhs))
    ]


@dataclass(frozen=True)
class CohomologySpace:
    """ker/im data of one spot in a cochain complex.

    `representatives` extend the boundary space to the cycle space; they are
    actual cycles, chosen deterministically from the kernel basis.
    """

    dim: int
    representatives: tuple[Vector, ...]
    boundaries: tuple[Vector, ...]


def check_complex(d_in: RationalMatrix, d_out: RationalMatrix) -> None:
    """Raise unless the shapes meet and d_out @ d_in is zero where defined."""
    if d_in.nrows != d_out.ncols:
        raise DimensionMismatch(
            f"incoming target {d_in.nrows} disagrees with outgoing source {d_out.ncols}"
        )
    if d_in.ncols > 0 and d_out.nrows > 0 and not (d_out @ d_in).is_zero():
        raise CompositionNonzero("consecutive differentials do not compose to zero")


def cohomology_at(d_in: RationalMatrix, d_out: RationalMatrix) -> CohomologySpace:
    """Cohomology at the middle of  src --d_in--> here --d_out--> dst.

    Boundaries are `d_in`'s columns at the pivots of its RREF, and cycles the
    free-variable kernel basis of `d_out`'s; cycles are tested in kernel order
    against the RREF of the boundaries, as sparse rows.
    """
    check_complex(d_in, d_out)
    here = d_in.nrows
    boundaries = _columns(d_in._rows, sorted(reduce(d_in)))
    span = reduce(RationalMatrix._from_sparse(boundaries, here))
    representatives = tuple(
        _dense(c, here)
        for c in _kernel(reduce(d_out), here)
        if _absorb(span, dict(c))
    )
    return CohomologySpace(
        dim=len(representatives),
        representatives=representatives,
        boundaries=tuple(_dense(b, here) for b in boundaries),
    )
