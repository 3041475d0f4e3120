import random
from fractions import Fraction

import pytest

import reference_linalg as ref
from nchodge import linalg
from nchodge.errors import CompositionNonzero, DimensionMismatch
from nchodge.linalg import (
    EchelonSpan,
    RationalMatrix,
    cohomology_at,
    rank,
    reduce,
    solve,
    vector,
)


def M(rows, ncols=None):
    return RationalMatrix(rows, ncols=ncols)


def random_matrix(rng, nrows, ncols, span=5):
    return M(
        [[Fraction(rng.randint(-span, span)) for _ in range(ncols)] for _ in range(nrows)],
        ncols=ncols,
    )


class TestRationalMatrix:
    def test_entries_are_fractions(self):
        m = M([[1, "1/2"], [Fraction(2, 4), 3]])
        assert m.rows[0][1] == Fraction(1, 2)
        assert all(isinstance(x, Fraction) for row in m.rows for x in row)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            M([[0.5]])

    def test_zero_row_matrix(self):
        m = RationalMatrix([], ncols=3)
        assert m.shape == (0, 3)
        assert RationalMatrix([]).shape == (0, 0)

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            M([[1, 2], [3]])

    def test_immutable(self):
        m = M([[1]])
        with pytest.raises(AttributeError):
            m.rows = ()

    def test_apply_sparse_and_apply_match_dot_products(self):
        rng = random.Random(5)
        for _ in range(40):
            nrows, ncols = rng.randrange(0, 5), rng.randrange(1, 5)
            m = M([[Fraction(rng.randrange(-2, 3), rng.randrange(1, 3)) for _ in range(ncols)]
                   for _ in range(nrows)], ncols=ncols)
            v = [Fraction(rng.randrange(-2, 3), rng.randrange(1, 4)) for _ in range(ncols)]
            got = m.apply_sparse({j: x for j, x in enumerate(v) if rng.randrange(2) or x})
            want = [sum(a * x for a, x in zip(row, v)) for row in m.rows]
            assert got == {i: x for i, x in enumerate(want) if x}
            assert m.apply(v) == tuple(Fraction(x) for x in want)
            assert all(type(x) is Fraction for x in m.apply(v))
            assert all(type(x) is (int if x.denominator == 1 else Fraction)
                       for x in got.values())
            assert m.apply_sparse(dict(enumerate(v))) == got

    def test_apply_sparse_checks_its_columns(self):
        m = M([[1, 2], [3, 4]])
        assert m.apply_sparse({}) == {}
        assert m.apply_sparse({1: "1/2", 0: 0}) == {0: 1, 1: 2}
        for bad in (-1, 2):
            with pytest.raises(DimensionMismatch):
                m.apply_sparse({bad: 1})
        with pytest.raises(TypeError):
            m.apply_sparse({0: 0.5})

    def test_value_semantics(self):
        same = [M([[2]]), M([[Fraction(4, 2)]]), M([["2"]])]
        assert same[0] == same[1] == same[2]
        assert len({hash(m) for m in same}) == 1
        assert M([[1, 0], [0, "1/2"]]) != M([[1, 0], [0, Fraction(1, 3)]])
        assert M([], ncols=2) != M([], ncols=3)

    def test_zeros_and_identity_equal_their_literals(self):
        assert RationalMatrix.zeros(2, 3) == M([[0, 0, 0], [0, 0, 0]])
        assert RationalMatrix.zeros(0, 3) == M([], ncols=3)
        assert RationalMatrix.identity(2) == M([[1, 0], [0, 1]])
        assert hash(RationalMatrix.identity(2)) == hash(M([[1, 0], [0, 1]]))

    def test_views_hand_out_fractions(self):
        m = M([[2, 0], ["1/2", Fraction(6, 3)]])
        assert all(type(x) is Fraction for row in m.rows for x in row)
        assert all(type(x) is Fraction for x in m.column(0) + m.column(1))
        assert all(type(x) is Fraction for x in m.apply([1, 0]))
        assert m.rows == ((2, 0), (Fraction(1, 2), 2))

    def test_rows_cannot_be_assigned(self):
        m = M([[1, 2]])
        with pytest.raises(AttributeError):
            m.rows = ((Fraction(3), Fraction(4)),)
        assert m == M([[1, 2]])

    def test_matmul_shapes(self):
        a = M([[1, 2], [3, 4], [5, 6]])
        b = M([[1, 0, 0], [0, 1, 0]])
        assert (a @ b).shape == (3, 3)
        with pytest.raises(DimensionMismatch):
            b @ M([[1, 2]])

    def test_matmul_identity(self):
        a = M([[1, 2], [3, 4]])
        assert RationalMatrix.identity(2) @ a == a
        assert a @ RationalMatrix.identity(2) == a

    def test_apply_matches_matmul(self):
        a = M([[2, -1], [1, 3]])
        v = vector([5, 7])
        assert a.apply(v) == (Fraction(3), Fraction(26))

    def test_from_columns_round_trip(self):
        cols = (vector([1, 2]), vector([3, 4]))
        m = RationalMatrix.from_columns(cols, 2)
        assert tuple(m.column(j) for j in range(m.ncols)) == cols
        transpose = RationalMatrix.from_columns(m.rows, m.ncols)
        assert transpose.rows == ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))

    def test_from_blocks_side_by_side(self):
        a = M([[1], [2]])
        b = M([[3], [4]])
        placed = RationalMatrix.from_blocks(2, 2, [(0, 0, a), (0, 1, b)])
        assert placed == M([[1, 3], [2, 4]])

    def test_from_blocks_sums_overlaps(self):
        a = M([[1, "1/2"], [2, 0]])
        blocks = [(1, 1, a), (1, 1, a.scale(-1)), (0, 1, a)]
        placed = RationalMatrix.from_blocks(3, 3, blocks)
        assert placed == M([[0, 1, "1/2"], [0, 2, 0], [0, 0, 0]])
        assert RationalMatrix.from_blocks(2, 0, []) == RationalMatrix.zeros(2, 0)

    @pytest.mark.parametrize("offsets", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_from_blocks_rejects_a_block_that_leaves_the_matrix(self, offsets):
        with pytest.raises(DimensionMismatch):
            RationalMatrix.from_blocks(2, 2, [(*offsets, M([[1]]))])

    @staticmethod
    def _entry_cases():
        rng = random.Random(29)
        sparse = M([[0, 0, "1/2"], [0, 0, 0], [3, 0, Fraction(-4, 6)]])
        yield sparse
        yield M([[0, 0], [0, 0]])
        yield RationalMatrix.zeros(0, 4)
        yield RationalMatrix.zeros(3, 0)
        yield RationalMatrix.identity(3)
        yield RationalMatrix.from_blocks(
            4, 5, [(0, 0, sparse), (1, 2, sparse.scale("3/2")), (3, 4, M([[7]]))]
        )
        for _ in range(20):
            m = random_matrix(rng, rng.randint(0, 4), rng.randint(1, 4), span=2)
            yield m.scale(Fraction(rng.randint(1, 3), rng.randint(1, 4)))

    def test_entries_match_rows_and_columns(self):
        for m in self._entry_cases():
            seen = {}
            for i, j, x in m.entries():
                assert (i, j) not in seen
                assert x != 0 and (type(x) is int or x.denominator != 1)
                seen[(i, j)] = Fraction(x)
            dense = {
                (i, j): x for i, row in enumerate(m.rows) for j, x in enumerate(row) if x
            }
            assert seen == dense
            for j in range(m.ncols):
                column = tuple(seen.get((i, j), Fraction(0)) for i in range(m.nrows))
                assert column == m.column(j)

    def test_entries_cannot_change_the_matrix(self):
        for m in self._entry_cases():
            before = (m.rows, hash(m))
            listed = list(m.entries())
            for entry in listed:
                with pytest.raises(TypeError):
                    entry[2] = 99
            listed.clear()
            assert (m.rows, hash(m)) == before
            assert all(isinstance(entry, tuple) for entry in m.entries())

    def test_arithmetic(self):
        a = M([[1, 2], [3, 4]])
        negated = RationalMatrix.from_blocks(2, 2, [(0, 0, a), (0, 0, a.scale(-1))])
        assert negated == RationalMatrix.zeros(2, 2)
        assert RationalMatrix.from_blocks(2, 2, [(0, 0, a), (0, 0, a)]) == a.scale(2)
        assert a.scale(Fraction(1, 2)).rows[1][1] == Fraction(2)


class TestReduce:
    def test_known_rref(self):
        m = M([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
        assert reduce(m) == {0: {0: 1, 2: -1}, 1: {1: 1, 2: 2}}

    def test_kernel_image_dims(self):
        rng = random.Random(11)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(0, 5), rng.randint(1, 5))
            kernel = cohomology_at(RationalMatrix.zeros(m.ncols, 0), m).representatives
            image = cohomology_at(m, RationalMatrix.zeros(0, m.nrows)).boundaries
            assert len(kernel) == m.shape[1] - len(reduce(m))
            assert len(image) == len(reduce(m))
            for v in kernel:
                assert m.apply(v) == tuple([Fraction(0)] * m.shape[0])

    def test_kernel_basis_is_echelon(self):
        # kernel vectors carry a 1 in their free column, 0 in the others
        m = M([[1, 1, 1, 1]])
        assert len(reduce(m)) == 1
        kernel = cohomology_at(RationalMatrix.zeros(4, 0), m).representatives
        free = [1, 2, 3]
        for v, col in zip(kernel, free):
            assert v[col] == 1
            for other in free:
                if other != col:
                    assert v[other] == 0

    def test_rank_transpose_invariant(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            transpose = RationalMatrix.from_columns(m.rows, m.ncols)
            assert rank(m) == rank(transpose)


class TestOneElimination:
    """`rank`, `solve` and `cohomology_at` eliminate only through `reduce`."""

    @pytest.fixture
    def shapes(self, monkeypatch):
        seen = []
        original = linalg.reduce

        def counting(matrix):
            seen.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(linalg, "reduce", counting)
        return seen

    def test_rank_reduces_once(self, shapes):
        assert rank(M([[1, 2, 3], [2, 4, 6], [1, 1, 1]])) == 2
        assert shapes == [(3, 3)]

    def test_solve_reduces_the_augmented_matrix_once(self, shapes):
        assert solve(M([[1, 1], [1, -1]]), [vector([3, 1])]) == [vector([2, 1])]
        assert shapes == [(2, 3)]
        assert solve(M([[1, 1], [2, 2]]), [vector([1, 3])]) == [None]
        assert shapes == [(2, 3), (2, 3)]

    def test_solve_reduces_once_per_batch(self, shapes):
        m = M([[1, 1], [1, -1], [0, 0]])
        batch = [vector([3, 1, 0]), vector([0, 0, 1]), vector([1, 1, 0]), vector([0, 0, 0])]
        assert solve(m, batch) == [vector([2, 1]), None, vector([1, 0]), vector([0, 0])]
        assert shapes == [(3, 6)]
        assert solve(m, []) == []
        assert shapes == [(3, 6), (3, 2)]

    def test_cohomology_at_reduces_d_in_boundaries_and_d_out(self, shapes):
        h = cohomology_at(M([[1], [-1], [0]]), M([[1, 1, 0]]))
        assert h.dim == 1
        assert h.representatives == (vector([0, 0, 1]),)
        assert h.boundaries == (vector([1, -1, 0]),)
        assert shapes == [(3, 1), (1, 3), (1, 3)]


class TestSolve:
    def test_unique_solution(self):
        m = M([[2, 1], [1, 3]])
        rhs = m.apply(vector([4, -2]))
        assert solve(m, [rhs]) == [(Fraction(4), Fraction(-2))]

    def test_inconsistent_returns_none(self):
        m = M([[1, 0], [1, 0]])
        assert solve(m, [vector([1, 2])]) == [None]

    def test_fuzz_solutions_verify(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            x = vector([rng.randint(-3, 3) for _ in range(m.shape[1])])
            [sol] = solve(m, [m.apply(x)])
            assert sol is not None
            assert m.apply(sol) == m.apply(x)
            hits += 1
        assert hits == 40

    def test_batch_mixes_consistent_and_inconsistent_sides(self):
        # column 1 is twice column 0, so the image is spanned by (1, 0, 1)
        # and (0, 1, 0); (0, 0, 1) and (1, 0, 0) are off it
        m = M([[1, 2, 0], [0, 0, 1], [1, 2, 0]])
        batch = [
            vector([1, 0, 1]),
            vector([0, 0, 1]),
            vector([2, 5, 2]),
            vector([1, 0, 0]),
            vector([0, 0, 0]),
        ]
        got = solve(m, batch)
        assert got == [
            vector([1, 0, 0]),
            None,
            vector([2, 0, 5]),
            None,
            vector([0, 0, 0]),
        ]
        for b, sol in zip(batch, got):
            assert sol == solve(m, [b])[0]

    def test_repeated_inconsistent_side(self):
        m = M([[1, 0], [1, 0]])
        bad, good = vector([1, 2]), vector([3, 3])
        assert solve(m, [bad, good, bad, bad]) == [None, vector([3, 0]), None, None]

    def test_zero_column_matrix(self):
        # the zero space: only the zero vector is reached, by the empty solution
        m = RationalMatrix.zeros(3, 0)
        assert solve(m, [vector([0, 0, 0]), vector([0, 1, 0]), vector([0, 0, 0])]) == [
            (),
            None,
            (),
        ]
        assert solve(RationalMatrix.zeros(0, 0), [()]) == [()]

    def test_empty_batch(self):
        assert solve(M([[1, 2], [3, 4]]), []) == []
        assert solve(RationalMatrix.zeros(2, 0), []) == []

    def test_wrong_length_side_raises(self):
        m = M([[1, 0], [0, 1]])
        with pytest.raises(DimensionMismatch):
            solve(m, [vector([1, 0]), vector([1, 0, 0])])
        with pytest.raises(DimensionMismatch):
            solve(m, [vector([1])])


class TestEchelonSpan:
    """The span takes {column: value} rows."""

    def test_membership(self):
        span = EchelonSpan(3)
        assert span.add({0: 1, 1: 1})
        assert span.add({1: 1, 2: 1})
        assert not span.add({0: 1, 1: 2, 2: 1})
        assert span.rank == 2
        assert span.contains({0: 2, 1: 3, 2: 1})
        assert not span.contains({2: 1})

    def test_zero_vector_never_added(self):
        span = EchelonSpan(2)
        assert not span.add({})
        assert not span.add({0: 0, 1: Fraction(0)})
        assert span.rank == 0
        assert span.contains({})

    def test_matches_matrix_rank(self):
        rng = random.Random(7)
        for _ in range(20):
            vecs = [vector([rng.randint(-2, 2) for _ in range(4)]) for _ in range(6)]
            span = EchelonSpan(4)
            for v in vecs:
                span.add(dict(enumerate(v)))
            assert span.rank == rank(RationalMatrix(list(vecs), ncols=4))

    @pytest.mark.parametrize("row", [{3: 1}, {-1: 1}, {0: 1, 5: 2}])
    def test_column_outside_the_span_is_refused(self, row):
        span = EchelonSpan(3)
        with pytest.raises(DimensionMismatch):
            span.add(row)
        with pytest.raises(DimensionMismatch):
            span.contains(row)


class TestCohomology:
    def test_point_complex(self):
        d_in = RationalMatrix.zeros(1, 0)
        d_out = RationalMatrix.zeros(0, 1)
        h = cohomology_at(d_in, d_out)
        assert h.dim == 1
        assert h.representatives == (vector([1]),)

    def test_acyclic_two_term(self):
        # 0 -> Q -=-> Q -> 0 at the target slot
        d_in = M([[1]])
        d_out = RationalMatrix.zeros(0, 1)
        h = cohomology_at(d_in, d_out)
        assert h.dim == 0

    def test_circle_pattern(self):
        # 0 -> Q^2 -d-> Q^2 -> 0 with d = difference map, rank 1
        d = M([[1, -1], [-1, 1]])
        z0 = cohomology_at(RationalMatrix.zeros(2, 0), d)
        z1 = cohomology_at(d, RationalMatrix.zeros(0, 2))
        assert z0.dim == 1 and z1.dim == 1

    def test_composition_nonzero_raises(self):
        d_in = M([[1], [0]])
        d_out = M([[1, 0]])
        with pytest.raises(CompositionNonzero):
            cohomology_at(d_in, d_out)

    def test_quotient_representatives_are_cycles(self):
        rng = random.Random(31)
        for _ in range(15):
            mid = rng.randint(1, 4)
            d_in = random_matrix(rng, mid, rng.randint(0, 3))
            # build d_out vanishing on the image of d_in: rows from the left kernel
            left = ref.reduce(RationalMatrix.from_columns(d_in.rows, d_in.ncols)).kernel
            d_out = RationalMatrix([list(v) for v in left], ncols=mid)
            h = cohomology_at(d_in, d_out)
            assert h.dim == mid - rank(d_in) - rank(d_out)
            for r in h.representatives:
                assert all(x == 0 for x in d_out.apply(r))
