"""Exact linear algebra over the rationals.

Everything downstream reduces to kernels, images and quotients of matrices
with Fraction entries.  Storage is dense: matrices are immutable row-major
tuples of Fractions, vectors are tuples of Fractions, and every result this
module hands out has that form.  The work is sparse: products skip zero
entries, and elimination runs on sparse rows `{column: value}` whose values
stay Python ints until a division forces a Fraction (an integral Fraction
becomes an int again).  The first-pivot rule is unchanged: rows are taken
top to bottom and each residual is pivoted at its leftmost nonzero column.
Reduced row echelon form is unique, so pivots, RREF and every basis derived
from them are those of the leftmost-column, topmost-row elimination, and are
deterministic for a given input.
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


def _int_first(x):
    """`x` as an int when it is integral, else unchanged."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _nonzeros(entries: Iterable) -> list[tuple[int, object]]:
    return [(j, _int_first(x)) for j, x in enumerate(entries) if x]


def _dense(row: SparseRow, length: int) -> list[Fraction]:
    out = [_ZERO] * length
    for j, x in row.items():
        out[j] = _frac(x)
    return out


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
    inv = _int_first(Fraction(1) / row[pivot])
    new = {j: _int_first(x * inv) for j, x in row.items()}
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
            row[j] = _int_first(x)
        else:
            del row[j]


class RationalMatrix:
    """Immutable dense matrix over Fraction.

    `ncols` must be passed explicitly when there are no rows; otherwise it is
    inferred and checked against every row.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        data = tuple(tuple(_frac(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            for row in data:
                if len(row) != width:
                    raise DimensionMismatch("ragged rows in matrix literal")
            if ncols is not None and ncols != width:
                raise DimensionMismatch(
                    f"declared {ncols} columns, rows have {width}"
                )
            ncols = width
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "rows", data)
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], nrows: int) -> "RationalMatrix":
        for col in columns:
            if len(col) != nrows:
                raise DimensionMismatch("column length disagrees with nrows")
        return cls(
            [[col[i] for col in columns] for i in range(nrows)],
            ncols=len(columns),
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix({self.nrows}x{self.ncols}: {body})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> tuple[Vector, ...]:
        return tuple(self.column(j) for j in range(self.ncols))

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.ncols:
            raise DimensionMismatch(
                f"matrix has {self.ncols} columns, vector has {len(v)}"
            )
        right = _nonzeros(vector(v))
        return tuple(
            _frac(sum(_int_first(row[i]) * x for i, x in right if row[i]))
            for row in self.rows
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot compose {self.shape} with {other.shape}"
            )
        right = [_nonzeros(row) for row in other.rows]
        out = []
        for row in self.rows:
            acc: SparseRow = {}
            for k, a in _nonzeros(row):
                for j, b in right[k]:
                    acc[j] = acc.get(j, 0) + a * b
            out.append(_dense(acc, other.ncols))
        return RationalMatrix(out, ncols=other.ncols)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        return RationalMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
            ncols=self.ncols,
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + other.scale(-1)

    def __neg__(self) -> "RationalMatrix":
        return self.scale(-1)

    def scale(self, c) -> "RationalMatrix":
        c = _frac(c)
        return RationalMatrix(
            [[c * x for x in row] for row in self.rows], ncols=self.ncols
        )

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.nrows != other.nrows:
            raise DimensionMismatch("hstack needs equal row counts")
        return RationalMatrix(
            [r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
            ncols=self.ncols + other.ncols,
        )


@dataclass(frozen=True)
class ReducedMatrix:
    """Reduced row echelon data of a matrix.

    `image` is the tuple of original matrix columns at the pivot positions,
    `kernel` the standard free-variable basis; both inherit the first-pivot
    determinism of the elimination.
    """

    matrix: RationalMatrix
    rref: RationalMatrix
    rank: int
    pivots: tuple[int, ...]
    kernel: tuple[Vector, ...]
    image: tuple[Vector, ...]


def reduce(matrix: RationalMatrix) -> ReducedMatrix:
    ncols = matrix.ncols
    basis: dict[int, SparseRow] = {}
    for row in matrix.rows:
        _absorb(basis, dict(_nonzeros(row)))
    pivots = sorted(basis)
    rows = [_dense(basis[p], ncols) for p in pivots]
    rows += [[_ZERO] * ncols] * (matrix.nrows - len(pivots))
    kernel = []
    for free in range(ncols):
        if free in basis:
            continue
        vec = [_ZERO] * ncols
        vec[free] = Fraction(1)
        for p in pivots:
            vec[p] = _frac(-basis[p].get(free, 0))
        kernel.append(tuple(vec))
    return ReducedMatrix(
        matrix=matrix,
        rref=RationalMatrix(rows, ncols=ncols),
        rank=len(pivots),
        pivots=tuple(pivots),
        kernel=tuple(kernel),
        image=tuple(matrix.column(p) for p in pivots),
    )


def rank(matrix: RationalMatrix) -> int:
    return reduce(matrix).rank


class EchelonSpan:
    """Incremental row-echelon accumulator for span/independence queries."""

    def __init__(self, length: int):
        self.length = length
        self._basis: dict[int, SparseRow] = {}

    def _row(self, v: Sequence) -> SparseRow:
        if len(v) != self.length:
            raise DimensionMismatch("vector length disagrees with span arity")
        return dict(_nonzeros(vector(v)))

    def add(self, v: Sequence) -> bool:
        """Add `v` to the span; True iff it was independent of the span."""
        return _absorb(self._basis, self._row(v))

    def contains(self, v: Sequence) -> bool:
        return not _residual(self._basis, self._row(v))

    @property
    def rank(self) -> int:
        return len(self._basis)


def solve(matrix: RationalMatrix, rhs: Sequence) -> Vector | None:
    """One solution of `matrix @ x = rhs` (free variables zero), or None."""
    if len(rhs) != matrix.nrows:
        raise DimensionMismatch("right-hand side length disagrees with matrix")
    augmented = matrix.hstack(RationalMatrix.from_columns([vector(rhs)], matrix.nrows))
    red = reduce(augmented)
    if matrix.ncols in red.pivots:
        return None
    x = [Fraction(0)] * matrix.ncols
    for i, p in enumerate(red.pivots):
        x[p] = red.rref.rows[i][matrix.ncols]
    return tuple(x)


@dataclass(frozen=True)
class CohomologySpace:
    """ker/im data of one spot in a cochain complex.

    `representatives` extend the boundary space to the cycle space; they are
    actual cycles, chosen deterministically from the kernel basis.
    """

    dim: int
    representatives: tuple[Vector, ...]
    boundaries: tuple[Vector, ...]


def cohomology_at(d_in: RationalMatrix, d_out: RationalMatrix) -> CohomologySpace:
    """Cohomology at the middle of  src --d_in--> here --d_out--> dst."""
    if d_in.nrows != d_out.ncols:
        raise DimensionMismatch(
            f"incoming target {d_in.nrows} disagrees with outgoing source {d_out.ncols}"
        )
    if d_in.ncols > 0 and d_out.nrows > 0:
        if not (d_out @ d_in).is_zero():
            raise CompositionNonzero(
                "consecutive differentials do not compose to zero"
            )
    cycles = reduce(d_out).kernel
    boundaries = reduce(d_in).image
    n = d_in.nrows
    span = EchelonSpan(n)
    for b in boundaries:
        span.add(b)
    representatives = tuple(c for c in cycles if span.add(c))
    return CohomologySpace(
        dim=len(representatives),
        representatives=representatives,
        boundaries=boundaries,
    )


def pairing_perfect(matrix: RationalMatrix) -> bool:
    """True iff the bilinear pairing encoded by `matrix` is perfect."""
    return matrix.nrows == matrix.ncols and reduce(matrix).rank == matrix.nrows
