import dataclasses
import functools
import gc
import hashlib
import math
import random
import re
from fractions import Fraction

import pytest

import reference_tables as ref
from family_basis import iter_basis
from nchodge.atlas import StrataAtlas, generic_arrangement, key_to_string
from nchodge.cli import main
from nchodge.complexes import (
    SELECTORS,
    PureTerm,
    _Cone,
    RowFamily,
    RowMorphism,
    build,
    coker_u_rows,
    coker_v_rows,
    cone_morphism,
    cone_rows,
    identity_term_block,
    morphism_i_star,
    morphism_u,
    rows_constant,
    rows_log,
    rows_semisimplicial_log,
    rows_stratum_log,
    rows_sum_strata,
    term_slices,
)
from nchodge.errors import (
    BadParams,
    DimensionMismatch,
    EmptyDivisor,
    NotChainMap,
    UnknownStratum,
)
from nchodge.fixtures import BUILTIN_NAMES, builtin_atlas
from nchodge.linalg import RationalMatrix, vector
from nchodge.rings import PureHodgeRing, _unit_tensors
from nchodge.tables import compute_table, euler_check
from test_atlas import _conic_and_line


def table_of(atlas, selector):
    return compute_table(build(atlas, selector))


def entries(atlas, selector):
    t = table_of(atlas, selector)
    return {m: t.entries(m) for m in t.degrees()}


def terms_by_degree(family):
    """The family's terms by (weight, degree), each group in sort_key order."""
    grouped = {}
    for t in family.terms:
        grouped.setdefault((t.q, t.m), []).append(t)
    return {key: sorted(ts, key=PureTerm.sort_key) for key, ts in grouped.items()}


class TestDifferentials:
    @pytest.mark.parametrize("selector", SELECTORS)
    def test_d_squared_zero_triangle(self, triangle, selector):
        assert build(triangle, selector).differentials_square_to_zero()

    @pytest.mark.parametrize("selector", SELECTORS + ("sslog",))
    def test_d_squared_zero_p1_2pts(self, p1_2pts, selector):
        assert build(p1_2pts, selector).differentials_square_to_zero()

    def test_d_squared_zero_elliptic(self, elliptic):
        for selector in SELECTORS:
            assert build(elliptic, selector).differentials_square_to_zero()

    def test_euler_counts(self, triangle):
        for selector in SELECTORS:
            fam = build(triangle, selector)
            assert euler_check(fam, compute_table(fam))


def _scaled(blocks, pair, factor):
    """The block dict with the one block at `pair` scaled by `factor`."""
    return {**blocks, pair: ref.scale_block(blocks[pair], factor)}


def _failures_under_doubling(family):
    """How many of the family's term blocks break d² = 0 when doubled alone."""
    return sum(
        not RowFamily(
            family.atlas, family.label, family.terms, _scaled(family.blocks, pair, 2)
        ).differentials_square_to_zero()
        for pair in family.blocks
    )


class TestChecksCanFail:
    """How many one-block corruptions of its input each check catches."""

    def test_doubled_block_breaks_d_squared_on_triangle_xd(self, triangle):
        # a cone keeps no term blocks: the term-block cone of the same morphism
        family = ref.cone_rows(cone_morphism(triangle, "XD"))
        assert len(family.blocks) == 12
        assert _failures_under_doubling(family) == 9

    def test_doubled_block_breaks_d_squared_on_generic_divisor(self):
        family = rows_sum_strata(generic_arrangement(3, 4))
        assert len(family.blocks) == 36
        assert _failures_under_doubling(family) == 24

    def test_doubled_block_breaks_chain_map(self, triangle):
        mor = morphism_i_star(
            triangle, rows_constant(triangle), rows_sum_strata(triangle)
        )
        assert len(mor.blocks) == 6
        broken = [
            not RowMorphism(
                mor.source, mor.target, _scaled(mor.blocks, pair, 2)
            ).is_chain_map()
            for pair in mor.blocks
        ]
        assert sum(broken) == 3

    def test_zeroed_block_breaks_injectivity(self, triangle):
        mor = morphism_u(triangle, rows_constant(triangle), rows_log(triangle))
        assert len(mor.blocks) == 3
        for pair in mor.blocks:
            zeroed = RowMorphism(mor.source, mor.target, _scaled(mor.blocks, pair, 0))
            assert not zeroed.blockwise_injective()


class TestConeConventions:
    def test_degree_placement(self, p1_1pt):
        # cone(f)[-1]: degree m holds source terms at m and target terms at m-1
        fam = build(p1_1pt, "XD")
        for t in fam.terms:
            assert t.side in ("s", "t")
            assert t.shift == (0 if t.side == "s" else 1)
            m = t.j + t.k + t.p + (t.side == "t")
            for ab, _ in term_slices(p1_1pt, t):
                fam.rows[t.q].offset(m, t, ab)

    def test_morphisms_are_chain_maps(self, triangle):
        fx = rows_constant(triangle)
        assert morphism_i_star(triangle, fx, rows_sum_strata(triangle)).is_chain_map()
        assert morphism_u(triangle, fx, rows_log(triangle)).is_chain_map()

    @pytest.mark.parametrize("selector", ["XD", "XD-tilde", "locD", "locD-tilde"])
    def test_cone_morphisms_are_chain_maps(self, triangle, selector):
        assert cone_morphism(triangle, selector).is_chain_map()

    def test_chain_map_check_leaves_families_unchanged(self, triangle):
        fx, fd = rows_constant(triangle), rows_sum_strata(triangle)
        assert fd.weights() == (0, 2)
        assert morphism_i_star(triangle, fx, fd).is_chain_map()
        assert fx.weights() == (0, 2, 4)
        assert fd.weights() == (0, 2)


class TestDescribe:
    def test_x_d_log_terms_name_no_simplex(self, triangle):
        got = {
            t.describe()
            for builder in (rows_constant, rows_sum_strata, rows_log)
            for t in builder(triangle).terms
        }
        assert "H^0(X)" in got and "H^0(0)" in got and "H^0(0)(-1)" in got
        assert not any("@" in text for text in got)

    def test_sslog_residue_terms_name_their_simplex(self, triangle):
        got = {t.describe() for t in rows_semisimplicial_log(triangle).terms}
        assert "H^0(0,1)(-1)@0[p=0]" in got


class TestSelectorErrors:
    def test_unknown_selector(self, p1_1pt):
        with pytest.raises(BadParams):
            build(p1_1pt, "bogus")

    @pytest.mark.parametrize("selector", ["D", "sslog"])
    def test_empty_divisor_has_no_d(self, selector):
        with pytest.raises(EmptyDivisor):
            build(generic_arrangement(2, 0), selector)

    def test_nbhd_unknown_stratum(self, p1_1pt):
        with pytest.raises(UnknownStratum):
            build(p1_1pt, "nbhd:7")

    @pytest.mark.parametrize("selector", ["log", "X", "bogus"])
    def test_unknown_cone_selector(self, p1_1pt, selector):
        with pytest.raises(BadParams, match="XD, XD-tilde, locD, locD-tilde"):
            cone_morphism(p1_1pt, selector)


class TestP1Fixtures:
    def test_p1_1pt_tables(self, p1_1pt):
        assert entries(p1_1pt, "log") == {0: ((0, (0, 0), 1),)}
        assert entries(p1_1pt, "XD") == {2: ((2, (1, 1), 1),)}
        assert entries(p1_1pt, "locD") == {2: ((2, (1, 1), 1),)}
        assert entries(p1_1pt, "D") == {0: ((0, (0, 0), 1),)}

    def test_p1_2pts_complement(self, p1_2pts):
        # C*: one class in degree 0 weight 0, one in degree 1 weight 2
        assert entries(p1_2pts, "log") == {
            0: ((0, (0, 0), 1),),
            1: ((2, (1, 1), 1),),
        }

    def test_p1_2pts_relative(self, p1_2pts):
        assert entries(p1_2pts, "XD") == {
            1: ((0, (0, 0), 1),),
            2: ((2, (1, 1), 1),),
        }

    def test_p1_2pts_local(self, p1_2pts):
        assert entries(p1_2pts, "locD") == {2: ((2, (1, 1), 2),)}

    def test_p1_2pts_divisor(self, p1_2pts):
        assert entries(p1_2pts, "D") == {0: ((0, (0, 0), 2),)}


class TestTriangleFixture:
    def test_complement(self, triangle):
        assert entries(triangle, "log") == {
            0: ((0, (0, 0), 1),),
            1: ((2, (1, 1), 2),),
            2: ((4, (2, 2), 1),),
        }

    def test_divisor(self, triangle):
        assert entries(triangle, "D") == {
            0: ((0, (0, 0), 1),),
            1: ((0, (0, 0), 1),),
            2: ((2, (1, 1), 3),),
        }

    def test_relative(self, triangle):
        assert entries(triangle, "XD") == {
            2: ((0, (0, 0), 1),),
            3: ((2, (1, 1), 2),),
            4: ((4, (2, 2), 1),),
        }

    def test_local(self, triangle):
        assert entries(triangle, "locD") == {
            2: ((2, (1, 1), 3),),
            3: ((4, (2, 2), 1),),
            4: ((4, (2, 2), 1),),
        }


class TestEllipticFixture:
    def test_complement(self, elliptic):
        assert entries(elliptic, "log") == {
            0: ((0, (0, 0), 1),),
            1: ((1, (0, 1), 1), (1, (1, 0), 1)),
        }

    def test_relative(self, elliptic):
        assert entries(elliptic, "XD") == {
            1: ((1, (0, 1), 1), (1, (1, 0), 1)),
            2: ((2, (1, 1), 1),),
        }

    def test_local(self, elliptic):
        assert entries(elliptic, "locD") == {2: ((2, (1, 1), 1),)}


class TestTildeAgreement:
    @pytest.mark.parametrize(
        "name", ["p1_1pt", "p1_2pts", "triangle", "elliptic_1pt"]
    )
    def test_pairs_agree(self, name, request):
        from nchodge.fixtures import builtin_atlas

        atlas = builtin_atlas(name)
        for plain, tilde in [("XD", "XD-tilde"), ("locD", "locD-tilde")]:
            a = table_of(atlas, plain)
            b = table_of(atlas, tilde)
            assert a.degrees() == b.degrees(), (name, plain)
            for m in a.degrees():
                assert a.entries(m) == b.entries(m), (name, plain, m)


class TestOrlikSolomon:
    @pytest.mark.parametrize("n,m", [(1, 3), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)])
    def test_generic_betti(self, n, m):
        t = table_of(generic_arrangement(n, m), "log")
        for k in range(n + 1):
            want = math.comb(m - 1, k)
            assert t.betti(k) == want, (n, m, k)
            if want:
                assert t.entries(k) == ((2 * k, (k, k), want),)
        assert all(d <= n for d in t.degrees())


class TestEmptyDivisor:
    def test_collapse_to_x(self):
        a = generic_arrangement(2, 0)
        x = entries(a, "X")
        assert x == {
            0: ((0, (0, 0), 1),),
            2: ((2, (1, 1), 1),),
            4: ((4, (2, 2), 1),),
        }
        for sel in ("log", "XD", "XD-tilde"):
            assert entries(a, sel) == x

    def test_local_acyclic(self):
        a = generic_arrangement(2, 0)
        assert table_of(a, "locD").degrees() == ()
        assert table_of(a, "locD-tilde").degrees() == ()

    def test_divisor_families_have_no_terms(self):
        a = generic_arrangement(2, 0)
        for builder in (rows_sum_strata, rows_semisimplicial_log, coker_v_rows):
            family = builder(a)
            assert family.terms == () and family.weights() == ()
        for selector in ("XD", "XD-tilde", "locD-tilde"):
            assert cone_morphism(a, selector).blocks == {}


class TestSmoothDivisorNeighborhood:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_circle_bundle_pattern(self, n, circle_bundle_oracle):
        a = generic_arrangement(n, 1)
        key = ((0,), "")
        got = entries(a, "nbhd:" + key_to_string(key))
        stratum = a.strata[key]
        want = circle_bundle_oracle(stratum.ring, a.divisor_class(0, key))
        assert got == want

    def test_sphere_values(self):
        # explicit S^3 pattern for the hyperplane in the projective plane
        got = entries(generic_arrangement(2, 1), "nbhd:0")
        assert got == {0: ((0, (0, 0), 1),), 3: ((4, (2, 2), 1),)}

    def test_point_in_curve(self, p1_1pt):
        got = entries(p1_1pt, "nbhd:0")
        assert got == {0: ((0, (0, 0), 1),), 1: ((2, (1, 1), 1),)}


class TestDeletedNeighborhoods:
    def test_triangle_vertex_is_torus(self, triangle):
        key = ((0, 1), "")
        got = entries(triangle, "nbhd:" + key_to_string(key))
        assert got == {
            0: ((0, (0, 0), 1),),
            1: ((2, (1, 1), 2),),
            2: ((4, (2, 2), 1),),
        }

    def test_triangle_edge(self, triangle):
        # a line minus two vertices, crossed with a punctured disk
        got = entries(triangle, "nbhd:0")
        t_cstar = {0: ((0, (0, 0), 1),), 1: ((2, (1, 1), 1),)}
        # Kuenneth square of C*: betti (1, 2, 1)
        assert got[0] == t_cstar[0]
        assert got[1] == ((2, (1, 1), 2),)
        assert got[2] == ((4, (2, 2), 1),)


IDENTITY_ATLASES = [
    pytest.param(functools.partial(builtin_atlas, name), id=name)
    for name in BUILTIN_NAMES
] + [
    pytest.param(functools.partial(generic_arrangement, n, m), id=f"generic({n},{m})")
    for n, m in [(2, 0), (2, 4), (3, 5)]
]


def _term_sans_simp(term):
    return tuple(
        getattr(term, f.name) for f in dataclasses.fields(term) if f.name != "simp"
    )


def _sans_simp(terms, blocks):
    """Terms in order and blocks by term pair, with each term's simp set aside."""
    return (
        [_term_sans_simp(t) for t in terms],
        {
            (_term_sans_simp(t1), _term_sans_simp(t2)): block
            for (t1, t2), block in blocks.items()
        },
    )


class TestSharedCombinatorics:
    """The open complement is the deleted neighborhood of the ambient stratum,
    and the divisor rows are the twist-zero subcomplex of the semisimplicial
    log rows."""

    @pytest.mark.parametrize("make", IDENTITY_ATLASES)
    def test_log_is_ambient_neighborhood(self, make):
        atlas = make()
        log = rows_log(atlas)
        nbhd = rows_stratum_log(atlas, atlas.x_key)
        assert _sans_simp(log.terms, log.blocks) == _sans_simp(nbhd.terms, nbhd.blocks)

    @pytest.mark.parametrize("make", IDENTITY_ATLASES)
    def test_divisor_is_twist_zero_sslog(self, make):
        atlas = make()
        fd = rows_sum_strata(atlas)
        fss = rows_semisimplicial_log(atlas)
        zero_terms = [t for t in fss.terms if t.k == 0]
        zero_blocks = {
            pair: block
            for pair, block in fss.blocks.items()
            if pair[0].k == 0 and pair[1].k == 0
        }
        assert _sans_simp(fd.terms, fd.blocks) == _sans_simp(zero_terms, zero_blocks)


LAYOUT_ATLASES = [
    pytest.param(functools.partial(builtin_atlas, name), id=name)
    for name in BUILTIN_NAMES
] + [pytest.param(functools.partial(generic_arrangement, 2, 4), id="generic(2,4)")]


def _every_family(atlas):
    """Every selector, sslog and every nbhd: family of the atlas, built."""
    keys = atlas.keys_sorted()
    selectors = [*SELECTORS, "sslog", *(f"nbhd:{key_to_string(k)}" for k in keys)]
    return [(selector, build(atlas, selector)) for selector in selectors]


CONE_ATLASES = LAYOUT_ATLASES + [
    pytest.param(functools.partial(generic_arrangement, 3, 4), id="generic(3,4)")
]
REFERENCE_ATLASES = CONE_ATLASES + [
    pytest.param(functools.partial(generic_arrangement, 3, 5), id="generic(3,5)")
]


class TestRowLayout:
    """Each (degree, type) slot of a weight row stacks the slices of its
    terms contiguously from 0, in PureTerm.sort_key order."""

    @pytest.mark.parametrize("make", LAYOUT_ATLASES)
    def test_offsets_are_contiguous_in_sort_order(self, make):
        atlas = make()
        for selector, family in _every_family(atlas):
            slots = {q: {} for q in family.weights()}
            for (q, m), terms in terms_by_degree(family).items():
                row = family.rows[q]
                filled = {}
                for t in terms:
                    for ab, d in term_slices(atlas, t):
                        here = filled.get(ab, 0)
                        assert row.offset(m, t, ab) == (here, d), selector
                        filled[ab] = here + d
                slots[q].update({(m, ab): d for ab, d in filled.items()})
            assert slots == {q: row.dims for q, row in family.rows.items()}, selector

    @pytest.mark.parametrize("make", LAYOUT_ATLASES)
    def test_term_of_another_row_has_no_slot(self, make):
        atlas = make()
        for selector, family in _every_family(atlas):
            for q, row in family.rows.items():
                for t in family.terms:
                    if t.q == q:
                        continue
                    for ab, _ in term_slices(atlas, t):
                        with pytest.raises(DimensionMismatch):
                            row.offset(t.m, t, ab)

    @pytest.mark.parametrize("make", CONE_ATLASES)
    def test_cone_slot_is_source_then_target(self, make):
        """Slot (m, ab) of a cone is the source slot (m, ab) followed by the
        target slot (m-1, ab), so a slice of a cone vector is a vector of
        either end."""
        atlas = make()
        for selector in ("XD", "XD-tilde", "locD", "locD-tilde"):
            morphism = cone_morphism(atlas, selector)
            cone = cone_rows(morphism)
            for q, row in cone.rows.items():
                src = morphism.source.row(q)
                tgt = morphism.target.row(q)
                for (m, ab), slot in row.layout.items():
                    n_src = src.dim(m, ab)
                    expected = [
                        (dataclasses.replace(t, side="s"), place)
                        for t, place in src.layout.get((m, ab), {}).items()
                    ] + [
                        (
                            dataclasses.replace(t, side="t", shift=t.shift + 1),
                            (off + n_src, d),
                        )
                        for t, (off, d) in tgt.layout.get((m - 1, ab), {}).items()
                    ]
                    assert list(slot.items()) == expected, (selector, q, m, ab)


class TestConeAssembly:
    """A cone assembled from its ends' placed matrices equals the cone
    placed term block by term block (tests/reference_tables.py)."""

    @staticmethod
    def assert_same_cone(cone, expected):
        assert (cone.label, cone.terms) == (expected.label, expected.terms)
        assert cone.rows.keys() == expected.rows.keys()
        for q, row in expected.rows.items():
            got = cone.rows[q]
            assert (got.dims, got.layout) == (row.dims, row.layout)
            for m, ab in row.dims:
                assert got.d(m, ab) == row.d(m, ab), (cone.label, q, m, ab)
        if isinstance(cone, _Cone):
            assert not hasattr(cone, "blocks")  # a cone keeps only its placed matrices
        else:
            assert list(cone.blocks) == list(expected.blocks)
            assert cone.blocks == expected.blocks

    @pytest.mark.parametrize("make", REFERENCE_ATLASES)
    def test_matches_term_block_cone(self, make):
        atlas = make()
        for selector in ("XD", "XD-tilde", "locD", "locD-tilde"):
            morphism = cone_morphism(atlas, selector)
            self.assert_same_cone(cone_rows(morphism), ref.cone_rows(morphism))

    def test_not_a_chain_map_raises_before_assembly(self, triangle, monkeypatch):
        mor = morphism_i_star(
            triangle, rows_constant(triangle), rows_sum_strata(triangle)
        )
        broken = [
            RowMorphism(mor.source, mor.target, _scaled(mor.blocks, pair, 2), "i*")
            for pair in mor.blocks
        ]
        broken = [b for b in broken if not b.is_chain_map()]
        assert len(broken) == 3

        def assembled(*args):
            raise AssertionError("a cone slot was assembled")

        monkeypatch.setattr(RationalMatrix, "from_blocks", assembled)
        for morphism in broken:
            with pytest.raises(NotChainMap, match=r"cone of i\*: not a chain map"):
                cone_rows(morphism)

    @pytest.mark.parametrize("selector", ["XD", "locD-tilde"])
    def test_cone_of_cones(self, triangle, selector):
        # an end that holds cone terms keeps its slot order under the prefix
        cone = build(triangle, selector)
        blocks = {(t, t): identity_term_block(triangle, t) for t in cone.terms}
        identity = RowMorphism(cone, cone, blocks, "id")
        assert identity.is_chain_map()
        # the oracle reads its ends' term blocks, so its end is its own cone
        inner = ref.build(triangle, selector)
        expected = ref.cone_rows(RowMorphism(inner, inner, blocks, "id"))
        self.assert_same_cone(cone_rows(identity), expected)
        assert compute_table(cone_rows(identity)).degrees() == ()


    @pytest.mark.parametrize("start", ["X", "XD"])
    def test_nested_cones_of_the_identity(self, triangle, start):
        """Cones of the identity nested four deep keep every term apart, so
        each is an acyclic complex equal to the term-block cone."""
        family = build(triangle, start)
        # the oracle reads its ends' term blocks, so it nests its own cones
        expected = ref.build(triangle, start) if start in ref.CONES else ref.rows_constant(triangle)
        for depth in range(1, 5):
            blocks = {(t, t): identity_term_block(triangle, t) for t in family.terms}
            family = cone_rows(RowMorphism(family, family, blocks, "id"))
            expected = ref.cone_rows(RowMorphism(expected, expected, blocks, "id"))
            assert len(set(family.terms)) == len(family.terms), depth
            assert family.differentials_square_to_zero(), depth
            assert compute_table(family).degrees() == (), depth
            self.assert_same_cone(family, expected)


TWIST_ATLASES = [
    pytest.param(functools.partial(builtin_atlas, name), id=name)
    for name in BUILTIN_NAMES
] + [
    pytest.param(functools.partial(generic_arrangement, n, m), id=f"generic({n},{m})")
    for n, m in [(2, 4), (3, 4), (2, 0), (3, 5)]
] + [pytest.param(_conic_and_line, id="conic+line")]

TWIST_BUILDERS = {
    "X": (rows_constant, ref.rows_constant),
    "D": (rows_sum_strata, ref.rows_sum_strata),
    "coker(u)": (coker_u_rows, ref.coker_u_rows),
    "coker(v)": (coker_v_rows, ref.coker_v_rows),
}


class TestTwistRanges:
    """X, D, coker(u) and coker(v), built as twist ranges of the log term
    generators, equal the hand-written and truncated builders they replace
    (tests/reference_tables.py), and each is placed once."""

    @pytest.mark.parametrize("name", sorted(TWIST_BUILDERS))
    @pytest.mark.parametrize("make", TWIST_ATLASES)
    def test_matches_reference_builder(self, make, name):
        atlas = make()
        build_rows, reference = TWIST_BUILDERS[name]
        # terms in order, blocks, layout, dims and every d
        TestConeAssembly.assert_same_cone(build_rows(atlas), reference(atlas))

    @pytest.mark.parametrize("name", ["coker(u)", "coker(v)"])
    def test_cokernel_is_placed_once(self, triangle, name, monkeypatch):
        placed, original = [], RowFamily.__init__

        def counting(self, *args):
            placed.append(args[1])
            original(self, *args)

        monkeypatch.setattr(RowFamily, "__init__", counting)
        build_rows, reference = TWIST_BUILDERS[name]
        build_rows(triangle)
        assert placed == [name]
        placed.clear()
        reference(triangle)  # the whole log family, then its truncation
        assert len(placed) == 2


FROZEN_BUILDERS = {
    "log": (rows_log, ref.rows_log),
    "sslog": (rows_semisimplicial_log, ref.rows_semisimplicial_log),
    **{
        selector: (functools.partial(build, selector=selector),
                   functools.partial(ref.build, selector=selector))
        for selector in ref.CONES
    },
}


class TestFrozenBuilders:
    """The builders equal the frozen 2^m-scan generators, column-by-column
    ring operator and sign copies they replace (tests/reference_tables.py);
    TestTwistRanges compares X, D, coker(u) and coker(v) on the same atlases."""

    @pytest.mark.parametrize("name", list(FROZEN_BUILDERS))
    @pytest.mark.parametrize("make", TWIST_ATLASES)
    def test_matches_reference_builder(self, make, name):
        atlas = make()
        build_rows, reference = FROZEN_BUILDERS[name]
        TestConeAssembly.assert_same_cone(build_rows(atlas), reference(atlas))

    @pytest.mark.parametrize("make", TWIST_ATLASES)
    def test_every_neighborhood_matches_reference(self, make):
        atlas = make()
        for key in atlas.keys_sorted():
            TestConeAssembly.assert_same_cone(
                rows_stratum_log(atlas, key), ref.rows_stratum_log(atlas, key)
            )

    @staticmethod
    def assert_mult_operator_matches(ring, rng, classes=()):
        """On every pair of ring slices, with seeded random vectors (zeros
        among their entries) and, on H^2 of type (1,1), `classes` as left
        factors."""
        slices = [(j, ab, d) for j in ring.degrees() for ab, d in ring.slices(j)]
        for j1, ab1, d1 in slices:
            lefts = [
                tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d1))
                for _ in range(3)
            ]
            if (j1, ab1) == (2, (1, 1)):
                lefts += list(classes)
            for x in lefts:
                for j2, ab2, _ in slices:
                    got = ring.mult_operator(j1, ab1, x, j2, ab2)
                    want = ref.mult_operator(ring, j1, ab1, x, j2, ab2)
                    assert got == want, (j1, ab1, x, j2, ab2)

    @pytest.mark.parametrize("make", TWIST_ATLASES)
    def test_mult_operator_matches_reference(self, make):
        atlas = make()
        rng = random.Random(5)
        for key in atlas.keys_sorted():
            classes = [atlas.divisor_class(a, key) for a in range(len(atlas.components))]
            self.assert_mult_operator_matches(atlas.ring(key), rng, classes)

    def test_mult_operator_sums_every_sheet(self):
        """The atlases' slices are one-dimensional, so each has one sheet;
        on P^1 x P^1, H^2 has two, and their order and sum show."""
        hodge = {0: {(0, 0): 1}, 2: {(1, 1): 2}, 4: {(2, 2): 1}}
        mult = _unit_tensors(hodge)
        # the rulings a, b: a.a = b.b = 0 and a.b = b.a = the point
        mult[((2, 1, 1), (2, 1, 1))] = [RationalMatrix([[0, 1]]), RationalMatrix([[1, 0]])]
        ring = PureHodgeRing(2, hodge, mult, vector([1]), vector([1]))
        self.assert_mult_operator_matches(ring, random.Random(5))

    @pytest.mark.parametrize("make", TWIST_ATLASES)
    def test_no_two_term_pairs_share_a_block(self, make):
        """Each term pair owns its block dict, so a test may replace one
        pair's block without touching another's."""
        atlas = make()
        for name, (build_rows, _) in {**TWIST_BUILDERS, **FROZEN_BUILDERS}.items():
            if name in ref.CONES:
                continue  # a cone keeps no term blocks
            blocks = build_rows(atlas).blocks.values()
            assert len({id(block) for block in blocks}) == len(blocks), name


    def test_builds_leave_no_reference_cycles(self):
        """A builder's memo dies with its call: building every family leaves
        nothing for the cycle collector to free."""
        atlas = generic_arrangement(3, 5)
        gc.collect()
        gc.disable()
        try:
            for selector in SELECTORS + ("sslog",):
                build(atlas, selector)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestManyComponents:
    """Forty points on the projective line: residue sets come from the
    strata under each simplex, not from the 2^40 subsets of components."""

    @pytest.fixture(scope="class")
    def atlas(self):
        return generic_arrangement(1, 40)

    def test_every_selector(self, atlas):
        got = {selector: entries(atlas, selector) for selector in SELECTORS + ("sslog",)}
        # Orlik-Solomon: b0 = 1, and b1 = 39 of weight 2 and type (1,1)
        assert got["log"] == {0: ((0, (0, 0), 1),), 1: ((2, (1, 1), 39),)}
        assert got["X"] == {0: ((0, (0, 0), 1),), 2: ((2, (1, 1), 1),)}
        assert got["D"] == {0: ((0, (0, 0), 40),)}
        assert got["XD"] == {1: ((0, (0, 0), 39),), 2: ((2, (1, 1), 1),)}
        assert got["locD"] == {2: ((2, (1, 1), 40),)}
        assert got["XD-tilde"] == got["XD"]
        assert got["locD-tilde"] == got["locD"]
        # a punctured disk around each point
        assert got["sslog"] == {0: ((0, (0, 0), 40),), 1: ((2, (1, 1), 40),)}

    def test_neighborhoods(self, atlas):
        assert entries(atlas, "nbhd:") == entries(atlas, "log")
        for key in ("0", "39"):
            # a punctured disk
            got = entries(atlas, f"nbhd:{key}")
            assert got == {0: ((0, (0, 0), 1),), 1: ((2, (1, 1), 1),)}, key

    def test_verify_all(self, atlas, capsys):
        argv = "verify --family generic --dim 1 --hyperplanes 40 --suite all"
        assert main(argv.split()) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_lattice_queries_follow_the_lattice(self, monkeypatch):
        """rows_log asks the lattice at most (number of strata)^2 questions;
        a scan of every residue set asks one per subset of the 16 points."""
        atlas = generic_arrangement(1, 16)
        calls = []

        def counted(query):
            def wrapper(*args):
                calls.append(query.__name__)
                return query(*args)
            return wrapper

        for name in ("components_of", "intersection_components", "leq", "meet", "descendants"):
            monkeypatch.setattr(StrataAtlas, name, counted(getattr(StrataAtlas, name)))
        family = rows_log(atlas)
        assert len(family.terms) == 2 + 16
        assert 0 < len(calls) <= len(atlas.strata) ** 2


class TestUnflattenLength:
    """unflatten, like flatten, rejects a vector of the wrong length for its
    slot, on a plain slot and on a cone slot."""

    @pytest.mark.parametrize(
        # the locD slot holds H^2(X) from the source and three target terms
        "selector, slot", [("log", (0, 0, (0, 0))), ("locD", (2, 2, (1, 1)))]
    )
    def test_wrong_length_raises(self, triangle, selector, slot):
        family = build(triangle, selector)
        n = family.rows[slot[0]].dim(*slot[1:])
        assert family.unflatten(*slot, (1,) * n)
        for length in {0, n - 1, n + 1, 4} - {n}:
            with pytest.raises(DimensionMismatch):
                family.unflatten(*slot, (1,) * length)


class TestSparseApplyD:
    """apply_d reads d through the element's nonzero coordinates and gives
    what the dense flatten / apply / unflatten path gives."""

    @staticmethod
    def dense(family, q, m, elem):
        out = {}
        for ab in sorted({ab for _, ab in elem}):
            image = family.row(q).d(m, ab).apply(family.flatten(q, m, ab, elem))
            out.update(family.unflatten(q, m + 1, ab, image))
        return out

    def test_every_basis_vector_of_the_cup_target(self):
        from nchodge.pairings import cup_log_XD

        family = cup_log_XD(generic_arrangement(3, 4)).target
        count = 0
        for q, m, ab, elem in iter_basis(family):
            got = family.apply_d(q, m, elem)
            assert got == self.dense(family, q, m, elem)
            assert all(type(x) is Fraction for v in got.values() for x in v)
            assert all(any(v) for v in got.values())
            count += 1
        assert count == 256

    def test_sums_over_types_and_ignores_other_slots(self, triangle):
        family = build(triangle, "locD")
        for q, m, ab in family.slots():
            elem = {}
            for t, (_, d) in family.rows[q].layout[(m, ab)].items():
                elem[(t, ab)] = tuple(Fraction(i + 1, 2) for i in range(d))
            for t, (_, d) in family.rows[q].layout.get((m + 1, ab), {}).items():
                elem[(t, ab)] = (Fraction(7),) * d  # a piece of degree m + 1
            assert family.apply_d(q, m, elem) == self.dense(family, q, m, elem)

    def test_wrong_length_raises(self, triangle):
        family = build(triangle, "log")
        q, m, ab = next(family.slots())
        t, (_, d) = next(iter(family.rows[q].layout[(m, ab)].items()))
        with pytest.raises(DimensionMismatch):
            family.apply_d(q, m, {(t, ab): (1,) * (d + 1)})


class TestTermMessages:
    """Shape errors name their terms as describe() prints them."""

    @staticmethod
    def raises(message):
        return pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$")

    def test_term_without_slice(self, triangle):
        cone = build(triangle, "XD")
        blocks = {(t, t): identity_term_block(triangle, t) for t in cone.terms}
        nested = cone_rows(RowMorphism(cone, cone, blocks, "id"))
        with self.raises("term H^0(X)[ss] has no (0, (1, 1)) slice"):
            nested.rows[0].offset(0, nested.terms[0], (1, 1))

    def test_differential_block_changes_the_weight(self, triangle):
        h0, h2, _ = rows_constant(triangle).terms
        with self.raises("differential block H^0(X) -> H^2(X) changes the weight"):
            RowFamily(triangle, "X", (h0, h2), {(h0, h2): {}})

    def test_differential_block_of_wrong_degree(self, triangle):
        h0 = rows_constant(triangle).terms[0]
        with self.raises("differential block H^0(X) -> H^0(X) is not of degree +1"):
            RowFamily(triangle, "X", (h0,), {(h0, h0): {}})

    def test_morphism_block_shifts_degrees(self, triangle):
        family = rows_constant(triangle)
        h0, h2, _ = family.terms
        with self.raises("morphism block H^0(X) -> H^2(X) shifts degrees"):
            RowMorphism(family, family, {(h0, h2): {}})


class TestCechStep:
    @pytest.mark.parametrize("make", IDENTITY_ATLASES)
    def test_own_simplex_meet_is_the_child(self, make):
        """Out of a stratum's own simplex, the meet of the child simplex with
        the stratum is that child alone."""
        atlas = make()
        for key in atlas.keys_sorted():
            for b in range(len(atlas.components)):
                if b in key[0]:
                    continue
                for c2 in atlas.children.get((key, b), ()):
                    assert atlas.meet(c2, key) == (c2,)


class TestTermHash:
    """A term's hash is the hash of its field tuple, as the dataclass would
    compute it, so sets and dicts of terms keep their order."""

    @staticmethod
    def _fields(term):
        return tuple(getattr(term, f.name) for f in dataclasses.fields(term))

    @staticmethod
    def _families():
        for name in BUILTIN_NAMES:
            atlas = builtin_atlas(name)
            for selector in SELECTORS + ("sslog",):
                yield name, selector, build(atlas, selector)

    def test_hash_is_the_field_tuple_hash(self):
        for name, selector, family in self._families():
            for t in family.terms:
                fields = self._fields(t)
                assert hash(t) == hash(fields), (name, selector, t)
                apart = PureTerm(*fields)
                assert apart == t and hash(apart) == hash(t), (name, selector, t)
                moved = dataclasses.replace(t, side="s")
                fresh = PureTerm(*self._fields(moved))
                assert moved == fresh and hash(moved) == hash(fresh)
                assert hash(moved) == hash(self._fields(fresh))

    def test_term_order_is_pinned(self):
        digest = hashlib.sha256()
        for name, selector, family in self._families():
            digest.update(f"{name} {selector}\n".encode())
            for t in family.terms:
                digest.update(f"{t!r}\n".encode())
        assert digest.hexdigest() == (
            "f3e3744441c167464ce659cd88c2c6097abfad8ec3e32b674d31a4599929d9ca"
        )


def _assert_slots_from_ends(cone):
    """Each cone slot (m, ab) is the source slot (m, ab), then the target slot
    (m - 1, ab) with its offsets moved up by the source slot's dim, and there
    is no other slot."""
    mor = cone.morphism
    for q, row in cone.rows.items():
        src, tgt = mor.source.rows.get(q), mor.target.rows.get(q)
        src_slots = src.layout if src else {}
        tgt_slots = {(m + 1, ab): slot for (m, ab), slot in (tgt.layout if tgt else {}).items()}
        assert set(row.layout) == set(src_slots) | set(tgt_slots), q
        for key, slot in row.layout.items():
            n_src = sum(d for _, d in src_slots.get(key, {}).values())
            want = [(dataclasses.replace(x, side="s" + x.side), at)
                    for x, at in src_slots.get(key, {}).items()]
            want += [(dataclasses.replace(x, side="t" + x.side, shift=x.shift + 1), (off + n_src, d))
                     for x, (off, d) in tgt_slots.get(key, {}).items()]
            assert list(slot.items()) == want, (q, key)
            assert row.dims[key] == n_src + sum(d for _, d in tgt_slots.get(key, {}).values())


class TestConeLayout:
    """Sorting a cone's terms puts each slot's source terms first, so every
    cone slot is the source slot followed by the target slot one degree down."""

    @pytest.mark.parametrize("make", REFERENCE_ATLASES)
    def test_cone_slots_come_from_its_ends(self, make):
        atlas = make()
        for selector in ("XD", "XD-tilde", "locD", "locD-tilde"):
            _assert_slots_from_ends(build(atlas, selector))

    @pytest.mark.parametrize("make", REFERENCE_ATLASES)
    def test_cones_of_cones(self, make):
        """Cones of the identity of every cone, two deep."""
        atlas = make()
        for selector in ("XD", "XD-tilde", "locD", "locD-tilde"):
            family = build(atlas, selector)
            for depth in range(2):
                blocks = {(t, t): identity_term_block(atlas, t) for t in family.terms}
                family = cone_rows(RowMorphism(family, family, blocks, "id"))
                _assert_slots_from_ends(family)

    def test_x_and_log_terms_are_renamed_apart(self, triangle):
        """X's terms equal log's twist-0 terms, so under u each side of the
        cone renames its own."""
        morphism = cone_morphism(triangle, "locD")
        shared = set(morphism.source.terms) & set(morphism.target.terms)
        assert shared
        cone = cone_rows(morphism)
        assert len(set(cone.terms)) == len(morphism.source.terms) + len(morphism.target.terms)
        for t in shared:
            assert dataclasses.replace(t, side="s" + t.side) in cone.terms
            assert dataclasses.replace(t, side="t" + t.side, shift=t.shift + 1) in cone.terms


class TestPureTermFields:
    def test_dataclass_behaviour_is_kept(self):
        key = ((0,), "")
        t = PureTerm(key, 1, 2, 3, key, (0,), "s", 1)
        assert (t.m, t.q) == (1 + 2 + 3 + 1, 1 + 2 * 2)
        assert [f.name for f in dataclasses.fields(t)] == [
            "stratum", "j", "k", "p", "simp", "res", "side", "shift"]
        moved = dataclasses.replace(t, k=0, shift=0)
        assert (moved.m, moved.q, moved.res) == (1 + 3, 1, (0,))
        assert t == PureTerm(key, 1, 2, 3, simp=key, res=(0,), side="s", shift=1)
        assert hash(t) == hash((key, 1, 2, 3, key, (0,), "s", 1)) != hash(moved)
        assert PureTerm(key, 1, 0, 0, key) == PureTerm(key, 1, 0, 0, key, (), "", 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.j = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.m = 5
