"""Mixed Hodge tables: blockwise cohomology of a row family.

A table records, for every cohomological degree m, the dimensions of the
weight-q, type-(a, b) pieces together with chosen cycle representatives.
Since every (q, a, b) block of a row family is a plain complex of rational
vector spaces, a dimension is the term dimension less the ranks of the two
differentials at the block, representatives are linalg.cohomology_at's, and
two tables agree iff the underlying mixed structures do.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass

from .complexes import RowFamily
from .linalg import CohomologySpace, Vector, check_complex, cohomology_at, rank
from .rings import Bidegree

BlockKey = tuple[int, int, Bidegree]  # (m, q, (a, b))


class _Spaces(Mapping):
    """Every slot's cohomology_at space, computed on first read and kept."""

    def __init__(self, family: RowFamily, dims: dict[BlockKey, int]):
        self._family, self._dims, self._read = family, dims, {}

    def __contains__(self, key) -> bool:
        return key in self._dims

    def __getitem__(self, key: BlockKey) -> CohomologySpace:
        if key not in self._read:
            if key not in self._dims:
                raise KeyError(key)
            m, q, ab = key
            row = self._family.rows[q]
            self._read[key] = cohomology_at(row.d(m - 1, ab), row.d(m, ab))
        return self._read[key]

    def __iter__(self):
        return iter(self._dims)

    def __len__(self) -> int:
        return len(self._dims)


@dataclass
class MixedHodgeTable:
    """Every slot's cohomology dim, in slot order; `spaces` maps the same
    slots to their CohomologySpace, each computed when first read."""

    family: RowFamily
    dims: dict[BlockKey, int]

    def __post_init__(self):
        self.spaces = _Spaces(self.family, self.dims)

    @property
    def label(self) -> str:
        return self.family.label

    def entries(self, m: int) -> tuple[tuple[int, Bidegree, int], ...]:
        """Sorted nonzero blocks (q, (a, b), dim) in degree m."""
        out = [(q, ab, d) for (mm, q, ab), d in self.dims.items() if mm == m and d > 0]
        return tuple(sorted(out))

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({m for (m, _, _), d in self.dims.items() if d > 0}))

    def dim(self, m: int, q: int, ab: Bidegree) -> int:
        return self.dims.get((m, q, ab), 0)

    def betti(self, m: int) -> int:
        return sum(d for _, _, d in self.entries(m))

    def weights(self, m: int) -> tuple[int, ...]:
        return tuple(sorted({q for q, _, _ in self.entries(m)}))

    def space(self, m: int, q: int, ab: Bidegree) -> CohomologySpace | None:
        return self.spaces.get((m, q, ab))

    def representatives(self, m: int, q: int, ab: Bidegree) -> tuple[Vector, ...]:
        if not self.dim(m, q, ab):
            return ()
        return self.spaces[(m, q, ab)].representatives

    def summary(self) -> dict:
        return {
            str(m): {
                "betti": self.betti(m),
                "blocks": [
                    {"weight": q, "type": [ab[0], ab[1]], "dim": d}
                    for q, ab, d in self.entries(m)
                ],
            }
            for m in self.degrees()
        }

    def to_text(self) -> str:
        lines = [f"table {self.label}"]
        header = f"{'degree':>6}  {'betti':>5}  {'weight':>6}  {'type':>7}  {'dim':>3}"
        lines.append(header)
        for m in self.degrees():
            first = True
            for q, ab, d in self.entries(m):
                lead = f"{m:>6}  {self.betti(m):>5}" if first else f"{'':>6}  {'':>5}"
                lines.append(f"{lead}  {q:>6}  {f'({ab[0]},{ab[1]})':>7}  {d:>3}")
                first = False
        if len(lines) == 2:
            lines.append("  (zero)")
        return "\n".join(lines)


def compute_table(family: RowFamily) -> MixedHodgeTable:
    """Blockwise cohomology of the family: cohomology_at's checks at every
    slot in order, and one rank per differential."""
    ranked = functools.cache(lambda q, m, ab: rank(family.rows[q].d(m, ab)))
    dims: dict[BlockKey, int] = {}
    for q, m, ab in family.slots():
        row = family.rows[q]
        check_complex(row.d(m - 1, ab), row.d(m, ab))
        dims[(m, q, ab)] = row.dim(m, ab) - ranked(q, m - 1, ab) - ranked(q, m, ab)
    return MixedHodgeTable(family, dims)


@dataclass(frozen=True)
class TableDiff:
    equal: bool
    differences: tuple[str, ...]

    def __str__(self) -> str:
        if self.equal:
            return "tables agree"
        return "tables differ:\n" + "\n".join(f"  - {d}" for d in self.differences)


def compare_tables(left: MixedHodgeTable, right: MixedHodgeTable) -> TableDiff:
    """Blockwise comparison of dimensions (representatives may differ)."""
    diffs = []
    for m, q, ab in sorted(set(left.dims) | set(right.dims)):
        dl = left.dim(m, q, ab)
        dr = right.dim(m, q, ab)
        if dl != dr:
            diffs.append(
                f"degree {m}, weight {q}, type {ab}: "
                f"{left.label} has {dl}, {right.label} has {dr}"
            )
    return TableDiff(equal=not diffs, differences=tuple(diffs))


def euler_check(family: RowFamily, table: MixedHodgeTable) -> bool:
    """Alternating sums of term dimensions must match those of cohomology,
    separately in every (weight, type) block."""
    chi: dict[tuple[int, Bidegree], int] = {}
    for q, m, ab in family.slots():
        excess = family.rows[q].dim(m, ab) - table.dim(m, q, ab)
        chi[(q, ab)] = chi.get((q, ab), 0) + (-1) ** m * excess
    return not any(chi.values())
