import pytest

from nchodge.errors import BidegreeError, DimensionMismatch
from nchodge.linalg import vector
from nchodge.rings import PureHodgeRing, elliptic_curve_ring, truncated_polynomial_ring


class TestTruncatedPolynomialRing:
    def test_slice_dims(self):
        r = truncated_polynomial_ring(2)
        assert r.degrees() == (0, 2, 4)
        assert r.slice_dim(2, (1, 1)) == 1
        assert r.slice_dim(2, (2, 0)) == 0
        assert r.slices(4) == (((2, 2), 1),)

    def test_point(self):
        r = truncated_polynomial_ring(0)
        assert r.degrees() == (0,)
        assert r.fundamental == vector([1])

    def test_multiplication_truncates(self):
        r = truncated_polynomial_ring(1)
        h = vector([1])
        hh = r.mult_apply(2, (1, 1), h, 2, (1, 1), h)
        assert hh == ()  # h^2 = 0 on a curve

    def test_unit_is_neutral(self):
        r = truncated_polynomial_ring(3)
        for (j, ab, idx), (_, _, v) in r.basis_vectors():
            assert v == vector(1 if i == idx else 0 for i in range(r.slice_dim(j, ab)))
            got = r.mult_apply(0, (0, 0), r.unit, j, ab, v)
            assert got == v

    def test_associative_and_commutative(self):
        r = truncated_polynomial_ring(3)
        h = vector([1])
        left = r.mult_apply(2, (1, 1), r.mult_apply(2, (1, 1), h, 2, (1, 1), h), 2, (1, 1), h)
        right = r.mult_apply(2, (1, 1), h, 4, (2, 2), r.mult_apply(2, (1, 1), h, 2, (1, 1), h))
        assert left == right == r.fundamental


class TestEllipticRing:
    def test_hodge_split(self):
        r = elliptic_curve_ring()
        assert r.slice_dim(1, (1, 0)) == 1
        assert r.slice_dim(1, (0, 1)) == 1
        assert r.slices(1) == (((0, 1), 1), ((1, 0), 1))

    def test_odd_degree_anticommutes(self):
        r = elliptic_curve_ring()
        a = vector([1])
        da = r.mult_apply(1, (1, 0), a, 1, (0, 1), a)
        db = r.mult_apply(1, (0, 1), a, 1, (1, 0), a)
        assert da == tuple(-x for x in db)
        assert da == r.fundamental or da == tuple(-x for x in r.fundamental)

    def test_square_of_odd_class_vanishes(self):
        r = elliptic_curve_ring()
        a = vector([1])
        assert all(x == 0 for x in r.mult_apply(1, (1, 0), a, 1, (1, 0), a))


class TestValidation:
    @pytest.mark.parametrize("j, ab", [(6, (3, 3)), (-2, (-1, -1)), (2, (3, -1))])
    def test_type_outside_dimension_rejected(self, j, ab):
        ring = truncated_polynomial_ring(2)
        message = rf"slice \({ab[0]},{ab[1]}\) in degree {j}: .* in dimension 2"
        with pytest.raises(BidegreeError, match=message):
            PureHodgeRing(
                dim=2,
                hodge={**ring.hodge, j: {ab: 1}},
                mult=ring.mult,
                unit=ring.unit,
                fundamental=ring.fundamental,
            )

    def test_unit_length_checked(self):
        with pytest.raises(DimensionMismatch):
            PureHodgeRing(
                dim=0,
                hodge={0: {(0, 0): 1}},
                mult={},
                unit=vector([1, 2]),
                fundamental=vector([1]),
            )

    def test_mult_operator_shape(self):
        r = truncated_polynomial_ring(2)
        op = r.mult_operator(2, (1, 1), vector([1]), 2, (1, 1))
        assert op.shape == (1, 1)
        assert op.rows[0][0] == 1
