"""Frozen dense reference for the elimination kernel in `nchodge.linalg`.

These are the dense `Fraction` versions of `reduce`, `EchelonSpan`,
`RationalMatrix.apply` and `RationalMatrix.__matmul__` as they stood before
the kernel went sparse, kept verbatim as an oracle for the property tests in
`test_linalg_oracle.py`.  They follow the same first-pivot rule (leftmost
available column, topmost available row), so their output must agree with
the library's entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from nchodge.errors import DimensionMismatch
from nchodge.linalg import RationalMatrix, _frac, vector


@dataclass(frozen=True)
class ReducedMatrix:
    """`reduce`'s result with every field computed at once, as the library's
    `ReducedMatrix` stood when this reference was frozen."""

    matrix: RationalMatrix
    rref: RationalMatrix
    rank: int
    pivots: tuple[int, ...]
    kernel: tuple
    image: tuple


def apply(self: RationalMatrix, v: Sequence):
    if len(v) != self.ncols:
        raise DimensionMismatch(
            f"matrix has {self.ncols} columns, vector has {len(v)}"
        )
    v = vector(v)
    return tuple(
        sum((row[i] * v[i] for i in range(self.ncols)), Fraction(0))
        for row in self.rows
    )


def matmul(self: RationalMatrix, other: RationalMatrix) -> RationalMatrix:
    if self.ncols != other.nrows:
        raise DimensionMismatch(
            f"cannot compose {self.shape} with {other.shape}"
        )
    cols = other.ncols
    return RationalMatrix(
        [
            [
                sum(
                    (self.rows[i][k] * other.rows[k][j] for k in range(self.ncols)),
                    Fraction(0),
                )
                for j in range(cols)
            ]
            for i in range(self.nrows)
        ],
        ncols=cols,
    )


def reduce(matrix: RationalMatrix) -> ReducedMatrix:
    rows = [list(row) for row in matrix.rows]
    nrows, ncols = matrix.nrows, matrix.ncols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    rank = len(pivots)
    pivot_set = set(pivots)
    kernel = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -rows[i][free]
        kernel.append(tuple(vec))
    image = tuple(matrix.column(p) for p in pivots)
    return ReducedMatrix(
        matrix=matrix,
        rref=RationalMatrix(rows, ncols=ncols),
        rank=rank,
        pivots=tuple(pivots),
        kernel=tuple(kernel),
        image=image,
    )


class EchelonSpan:
    """Incremental row-echelon accumulator for span/independence queries."""

    def __init__(self, length: int):
        self.length = length
        self._rows: list[tuple[int, list[Fraction]]] = []

    def _residual(self, v: Sequence) -> list[Fraction]:
        if len(v) != self.length:
            raise DimensionMismatch("vector length disagrees with span arity")
        work = [_frac(x) for x in v]
        for pivot, row in self._rows:
            if work[pivot] != 0:
                factor = work[pivot]
                work = [x - factor * y for x, y in zip(work, row)]
        return work

    def add(self, v: Sequence) -> bool:
        """Add `v` to the span; True iff it was independent of the span."""
        work = self._residual(v)
        for pivot in range(self.length):
            if work[pivot] != 0:
                inv = Fraction(1) / work[pivot]
                normalized = [x * inv for x in work]
                self._rows.append((pivot, normalized))
                self._rows.sort(key=lambda item: item[0])
                return True
        return False

    def contains(self, v: Sequence) -> bool:
        return all(x == 0 for x in self._residual(v))

    @property
    def rank(self) -> int:
        return len(self._rows)
