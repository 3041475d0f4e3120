"""Mixed Hodge tables: blockwise cohomology of a row family.

A table records, for every cohomological degree m, the dimensions of the
weight-q, type-(a, b) pieces together with chosen cycle representatives.
Since every (q, a, b) block of a row family is a plain complex of rational
vector spaces, this is nothing but linalg.cohomology_at applied block by
block, and two tables agree iff the underlying mixed structures do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import RowFamily
from .linalg import CohomologySpace, Vector, cohomology_at
from .rings import Bidegree

BlockKey = tuple[int, int, Bidegree]  # (m, q, (a, b))


@dataclass
class MixedHodgeTable:
    family: RowFamily
    spaces: dict[BlockKey, CohomologySpace]

    @property
    def label(self) -> str:
        return self.family.label

    def entries(self, m: int) -> tuple[tuple[int, Bidegree, int], ...]:
        """Sorted nonzero blocks (q, (a, b), dim) in degree m."""
        out = [
            (q, ab, space.dim)
            for (mm, q, ab), space in self.spaces.items()
            if mm == m and space.dim > 0
        ]
        return tuple(sorted(out))

    def degrees(self) -> tuple[int, ...]:
        return tuple(
            sorted({m for (m, _, _), space in self.spaces.items() if space.dim > 0})
        )

    def dim(self, m: int, q: int, ab: Bidegree) -> int:
        space = self.spaces.get((m, q, ab))
        return 0 if space is None else space.dim

    def betti(self, m: int) -> int:
        return sum(d for _, _, d in self.entries(m))

    def weights(self, m: int) -> tuple[int, ...]:
        return tuple(sorted({q for q, _, _ in self.entries(m)}))

    def space(self, m: int, q: int, ab: Bidegree) -> CohomologySpace | None:
        return self.spaces.get((m, q, ab))

    def representatives(self, m: int, q: int, ab: Bidegree) -> tuple[Vector, ...]:
        space = self.spaces.get((m, q, ab))
        return () if space is None else space.representatives

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
    """Blockwise cohomology of every weight row of the family."""
    spaces: dict[BlockKey, CohomologySpace] = {}
    for q, m, ab in family.slots():
        row = family.rows[q]
        spaces[(m, q, ab)] = cohomology_at(row.d(m - 1, ab), row.d(m, ab))
    return MixedHodgeTable(family=family, spaces=spaces)


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
    for m, q, ab in sorted(set(left.spaces) | set(right.spaces)):
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
