"""Property tests: the sparse kernel in `nchodge.linalg` against the dense oracle.

`reference_linalg` holds the dense `Fraction` elimination and products.
Reduced row echelon form is unique, so both must agree entry for entry on
every input.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_linalg as ref
from nchodge.errors import CompositionNonzero
from nchodge.linalg import EchelonSpan, RationalMatrix, cohomology_at, reduce, solve

# Nonzero entries: unit and non-unit ints, and proper rationals.
VALUES = (1, -1, 2, -3, Fraction(1, 2), 3, -2, Fraction(-2, 3), Fraction(3, 4))
SIDES = st.integers(0, 6)
NONEMPTY = st.integers(1, 6)
RANKS = st.integers(0, 3)
DENSITIES = st.sampled_from([0, 10, 50, 100])  # percent of nonzero cells
CELLS = st.integers(0, 99)


def draw_entries(draw, n: int, m: int) -> RationalMatrix:
    percent = draw(DENSITIES)
    # One draw per cell: below `percent` it picks a nonzero value, else 0.
    cells = [draw(CELLS) for _ in range(n * m)]
    entries = [VALUES[c % len(VALUES)] if c < percent else 0 for c in cells]
    return RationalMatrix([entries[i * m:(i + 1) * m] for i in range(n)], ncols=m)


def draw_matrix(draw, n: int, m: int) -> RationalMatrix:
    if draw(st.booleans()):
        # A product through a narrow middle: low rank, dependent rows.
        k = draw(RANKS)
        return ref.matmul(draw_entries(draw, n, k), draw_entries(draw, k, m))
    return draw_entries(draw, n, m)


@st.composite
def matrices(draw):
    return draw_matrix(draw, draw(SIDES), draw(SIDES))


@st.composite
def matrix_and_vector(draw):
    m = draw(matrices())
    return m, draw_entries(draw, 1, m.ncols).rows[0]


@st.composite
def batches(draw):
    """A matrix and up to five right-hand sides, each one it reaches half the
    time, with repeats."""
    m = draw(matrices())
    batch = []
    for _ in range(draw(st.integers(0, 5))):
        if batch and draw(st.booleans()):
            batch.append(draw(st.sampled_from(batch)))
        elif draw(st.booleans()):
            batch.append(m.apply(draw_entries(draw, 1, m.ncols).rows[0]))
        else:
            batch.append(draw_entries(draw, 1, m.nrows).rows[0])
    return m, batch


@st.composite
def composable_pairs(draw):
    a = draw(matrices())
    return a, draw_matrix(draw, a.ncols, draw(SIDES))


@st.composite
def complexes(draw):
    """`(d_in, d_out)` with `d_out @ d_in == 0`: each column of `d_in` is a
    drawn combination of the reference kernel basis of `d_out`."""
    d_out = draw_matrix(draw, draw(SIDES), draw(NONEMPTY))
    kernel = ref.reduce(d_out).kernel
    cycles = RationalMatrix.from_columns(kernel, d_out.ncols)
    return ref.matmul(cycles, draw_matrix(draw, len(kernel), draw(NONEMPTY))), d_out


def permuted_rows(m: RationalMatrix, order) -> RationalMatrix:
    return RationalMatrix([m.rows[i] for i in order], ncols=m.ncols)


def permuted_columns(m: RationalMatrix, order) -> RationalMatrix:
    return RationalMatrix([[row[j] for j in order] for row in m.rows], ncols=len(order))


def all_fractions(vectors) -> bool:
    return all(type(x) is Fraction for v in vectors for x in v)


@given(matrices())
def test_reduce_matches_reference(m):
    got, want = reduce(m), ref.reduce(m)
    pivots = tuple(sorted(got))
    assert pivots == want.pivots
    assert len(got) == want.rank
    rows = [[got[p].get(j, 0) for j in range(m.ncols)] for p in pivots]
    assert RationalMatrix(rows, ncols=m.ncols).rows == want.rref.rows[: want.rank]
    assert all(
        type(x) is int or (type(x) is Fraction and x.denominator != 1)
        for row in got.values()
        for x in row.values()
    )
    kernel = cohomology_at(RationalMatrix.zeros(m.ncols, 0), m).representatives
    image = cohomology_at(m, RationalMatrix.zeros(0, m.nrows)).boundaries
    assert kernel == want.kernel
    assert image == want.image
    assert all_fractions(kernel + image)


@given(matrices(), st.lists(st.booleans(), max_size=12))
def test_echelon_span_answers_match_reference(m, adds):
    got, want = EchelonSpan(m.ncols), ref.EchelonSpan(m.ncols)
    vectors = [m.rows[i % m.nrows] for i in range(len(adds))] if m.nrows else []
    for v, add in zip(vectors, adds):
        if add:
            assert got.add(dict(enumerate(v))) == want.add(v)
        else:
            assert got.contains(dict(enumerate(v))) == want.contains(v)
        assert got.rank == want.rank
    for v in m.rows:
        assert got.contains(dict(enumerate(v))) == want.contains(v)


@given(matrix_and_vector())
def test_apply_matches_reference(pair):
    m, v = pair
    got = m.apply(v)
    assert got == ref.apply(m, v)
    assert all_fractions([got])


@given(batches())
def test_solve_answers_match_reference(system):
    m, batch = system
    answers = solve(m, batch)
    assert len(answers) == len(batch)
    for rhs, got in zip(batch, answers):
        assert got == ref.solve(m, rhs)
        if got is None:
            augmented = RationalMatrix(
                [(*row, b) for row, b in zip(m.rows, rhs)], ncols=m.ncols + 1
            )
            assert ref.reduce(augmented).rank > ref.reduce(m).rank
            continue
        assert m.apply(got) == tuple(rhs)
        pivots = set(ref.reduce(m).pivots)
        assert all(x == 0 for j, x in enumerate(got) if j not in pivots)
        assert all_fractions([got])


@given(SIDES, SIDES, st.data())
def test_from_blocks_matches_dense_placement(nrows, ncols, data):
    dense = [[Fraction(0)] * ncols for _ in range(nrows)]
    blocks = []
    for _ in range(data.draw(st.integers(0, 4))):
        r, c = data.draw(st.integers(0, nrows)), data.draw(st.integers(0, ncols))
        block = draw_matrix(data.draw, nrows - r, ncols - c)
        blocks.append((r, c, block))
        for i, row in enumerate(block.rows):
            for j, x in enumerate(row):
                dense[r + i][c + j] += x
    got = RationalMatrix.from_blocks(nrows, ncols, blocks)
    assert got == RationalMatrix(dense, ncols=ncols)
    assert got.rows == tuple(map(tuple, dense))


@given(composable_pairs())
def test_matmul_matches_reference(pair):
    a, b = pair
    got = a @ b
    assert got == ref.matmul(a, b)
    assert all_fractions(got.rows)


@given(
    st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.data(),
    st.sampled_from(VALUES), st.sampled_from(VALUES),
)
def test_single_nonzero_composition_raises(n_src, n_mid, n_dst, data, a, b):
    i = data.draw(st.integers(0, n_mid - 1))
    j = data.draw(st.integers(0, n_src - 1))
    r = data.draw(st.integers(0, n_dst - 1))
    d_in = RationalMatrix(
        [[a if (x, y) == (i, j) else 0 for y in range(n_src)] for x in range(n_mid)]
    )
    d_out = RationalMatrix(
        [[b if (x, y) == (r, i) else 0 for y in range(n_mid)] for x in range(n_dst)]
    )
    product = d_out @ d_in
    assert sum(1 for row in product.rows for x in row if x) == 1
    with pytest.raises(CompositionNonzero):
        cohomology_at(d_in, d_out)


@given(complexes())
def test_cohomology_at_matches_reference(pair):
    d_in, d_out = pair
    boundaries = ref.reduce(d_in).image
    span = ref.EchelonSpan(d_in.nrows)
    for b in boundaries:
        span.add(b)
    # representatives: the kernel vectors of d_out, in kernel order, that are
    # independent of the boundaries and of the representatives before them
    representatives = tuple(c for c in ref.reduce(d_out).kernel if span.add(c))
    got = cohomology_at(d_in, d_out)
    assert got.boundaries == boundaries
    assert got.representatives == representatives
    assert got.dim == len(representatives)
    assert all_fractions(got.representatives + got.boundaries)


@given(complexes(), st.data())
def test_cohomology_at_ignores_stored_row_order(pair, data):
    d_in, d_out = pair
    want = cohomology_at(d_in, d_out)
    out_order = data.draw(st.permutations(range(d_out.nrows)))
    got = cohomology_at(d_in, permuted_rows(d_out, out_order))
    assert got.representatives == want.representatives
    assert got.boundaries == want.boundaries
    # Permuting the rows of d_in relabels the middle space, so the columns of
    # d_out move with them: the boundaries are the same vectors, relabelled.
    mid_order = data.draw(st.permutations(range(d_in.nrows)))
    got = cohomology_at(
        permuted_rows(d_in, mid_order),
        permuted_columns(permuted_rows(d_out, out_order), mid_order),
    )
    assert got.boundaries == tuple(
        tuple(b[i] for i in mid_order) for b in want.boundaries
    )
    assert got.dim == want.dim
