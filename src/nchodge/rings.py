"""Pure Hodge structures with multiplication, given by finite tables.

A PureHodgeRing models the rational cohomology ring of one smooth projective
stratum.  H^j is pure of weight j and splits into (a, b)-slices with a+b = j;
multiplication is recorded slice-by-slice as explicit rational tensors.  All
vectors are coordinates in the fixed slice bases the tables refer to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BidegreeError, DimensionMismatch
from .linalg import RationalMatrix, Vector, unit_vector, vector

Bidegree = tuple[int, int]
SliceKey = tuple[int, int, int]  # (j, a, b)
GradedVector = tuple[int, Bidegree, Vector]  # coordinates in slice (j, ab)


@dataclass
class PureHodgeRing:
    """Graded-commutative ring data of one stratum.

    hodge:  j -> {(a, b): dim}, only nonzero slices stored, a + b = j and
            0 <= a, b <= dim.
    mult:   ((j1, a1, b1), (j2, a2, b2)) -> per left basis vector, the matrix
            of `x_u * -` from the right slice to the target slice
            (j1+j2, a1+a2, b1+b2).  Absent keys mean the product is zero
            (e.g. the target slice does not exist).
    unit:   coordinates of 1 in H^0.
    fundamental: coordinates of the orientation class in H^{2 dim}.
    """

    dim: int
    hodge: dict[int, dict[Bidegree, int]]
    mult: dict[tuple[SliceKey, SliceKey], list[RationalMatrix]]
    unit: Vector
    fundamental: Vector

    def __post_init__(self):
        for j, slices in self.hodge.items():
            for (a, b), d in slices.items():
                if a + b != j:
                    raise BidegreeError(f"slice ({a},{b}) in degree {j}")
                if not (0 <= a <= self.dim and 0 <= b <= self.dim):
                    raise BidegreeError(
                        f"slice ({a},{b}) in degree {j}: types range over "
                        f"0..{self.dim} in dimension {self.dim}"
                    )
                if d <= 0:
                    raise DimensionMismatch(f"nonpositive slice dim at {(j, a, b)}")
        for (left, right), tensors in self.mult.items():
            j1, a1, b1 = left
            j2, a2, b2 = right
            dl = self.slice_dim(j1, (a1, b1))
            dr = self.slice_dim(j2, (a2, b2))
            dt = self.slice_dim(j1 + j2, (a1 + a2, b1 + b2))
            if len(tensors) != dl:
                raise DimensionMismatch(f"mult tensor at {left}x{right}: need {dl} sheets")
            for mat in tensors:
                if mat.shape != (dt, dr):
                    raise DimensionMismatch(
                        f"mult tensor at {left}x{right}: sheet shape {mat.shape}, "
                        f"expected {(dt, dr)}"
                    )
        if len(self.unit) != self.slice_dim(0, (0, 0)):
            raise DimensionMismatch("unit vector length")
        top = 2 * self.dim
        if len(self.fundamental) != self.slice_dim(top, (self.dim, self.dim)):
            raise DimensionMismatch("fundamental class vector length")

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(j for j, s in self.hodge.items() if s))

    def slices(self, j: int) -> tuple[tuple[Bidegree, int], ...]:
        return tuple(sorted(self.hodge.get(j, {}).items()))

    def slice_dim(self, j: int, ab: Bidegree) -> int:
        return self.hodge.get(j, {}).get(ab, 0)

    def mult_apply(
        self, j1: int, ab1: Bidegree, x: Vector, j2: int, ab2: Bidegree, y: Vector
    ) -> Vector:
        """Coordinates of x*y in the target slice (zeros if it is absent)."""
        target_dim = self.slice_dim(j1 + j2, (ab1[0] + ab2[0], ab1[1] + ab2[1]))
        out = [Fraction(0)] * target_dim
        key = ((j1, ab1[0], ab1[1]), (j2, ab2[0], ab2[1]))
        tensors = self.mult.get(key)
        if tensors is None or target_dim == 0:
            return tuple(out)
        if len(x) != len(tensors):
            raise DimensionMismatch("left factor length disagrees with slice")
        for u, coeff in enumerate(x):
            if coeff == 0:
                continue
            image = tensors[u].apply(y)
            for i, val in enumerate(image):
                out[i] += coeff * val
        return tuple(out)

    def mult_operator(
        self, j1: int, ab1: Bidegree, x: Vector, j2: int, ab2: Bidegree
    ) -> RationalMatrix:
        """Matrix of `x * -` from slice (j2, ab2) to the target slice: the
        stored sheets, each times its coordinate of x, summed."""
        target_dim = self.slice_dim(j1 + j2, (ab1[0] + ab2[0], ab1[1] + ab2[1]))
        right_dim = self.slice_dim(j2, ab2)
        tensors = self.mult.get(((j1, ab1[0], ab1[1]), (j2, ab2[0], ab2[1])))
        if tensors is None or target_dim == 0 or right_dim == 0:
            return RationalMatrix.zeros(target_dim, right_dim)
        if len(x) != len(tensors):
            raise DimensionMismatch("left factor length disagrees with slice")
        sheets = [(0, 0, sheet.scale(c)) for c, sheet in zip(x, tensors) if c]
        return RationalMatrix.from_blocks(target_dim, right_dim, sheets)

    def product(self, x: GradedVector, y: GradedVector) -> GradedVector:
        """x*y in the slice it lands in (zeros if that slice is absent)."""
        (j1, ab1, _), (j2, ab2, _) = x, y
        return j1 + j2, (ab1[0] + ab2[0], ab1[1] + ab2[1]), self.mult_apply(*x, *y)

    def basis_vectors(self):
        """Yield ((j, ab, index), (j, ab, e_index)) over the whole ring, in
        sorted order: where each basis vector sits, and the vector itself."""
        for j in self.degrees():
            for ab, d in self.slices(j):
                for i in range(d):
                    yield (j, ab, i), (j, ab, unit_vector(d, i))


def _unit_tensors(ring_dims: dict[int, dict[Bidegree, int]]):
    """Multiplication sheets involving H^0 for a ring with 1-dim H^0."""
    mult: dict[tuple[SliceKey, SliceKey], list[RationalMatrix]] = {}
    for j, slices in ring_dims.items():
        for ab, d in slices.items():
            key_left = ((0, 0, 0), (j, ab[0], ab[1]))
            mult[key_left] = [RationalMatrix.identity(d)]
            if j > 0:
                key_right = ((j, ab[0], ab[1]), (0, 0, 0))
                mult[key_right] = [
                    RationalMatrix.from_columns([unit_vector(d, u)], d)
                    for u in range(d)
                ]
    return mult


def truncated_polynomial_ring(dim: int) -> PureHodgeRing:
    """Q[h]/(h^{dim+1}) with h of type (1,1): projective space and friends."""
    hodge = {2 * a: {(a, a): 1} for a in range(dim + 1)}
    mult: dict[tuple[SliceKey, SliceKey], list[RationalMatrix]] = {}
    for a in range(dim + 1):
        for b in range(dim + 1):
            if a + b <= dim:
                mult[((2 * a, a, a), (2 * b, b, b))] = [RationalMatrix([[1]])]
    return PureHodgeRing(
        dim=dim,
        hodge=hodge,
        mult=mult,
        unit=vector([1]),
        fundamental=vector([1]),
    )


def elliptic_curve_ring() -> PureHodgeRing:
    """A genus-one curve: 1-dim (1,0) and (0,1) slices squaring to the point class."""
    hodge = {
        0: {(0, 0): 1},
        1: {(1, 0): 1, (0, 1): 1},
        2: {(1, 1): 1},
    }
    mult = _unit_tensors(hodge)
    mult[((1, 1, 0), (1, 0, 1))] = [RationalMatrix([[1]])]
    mult[((1, 0, 1), (1, 1, 0))] = [RationalMatrix([[-1]])]
    return PureHodgeRing(
        dim=1,
        hodge=hodge,
        mult=mult,
        unit=vector([1]),
        fundamental=vector([1]),
    )
