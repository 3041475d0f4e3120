import dataclasses
import random
from fractions import Fraction

import pytest
import reference_atlas as ref

from nchodge.atlas import (
    Stratum,
    StrataAtlas,
    compose_blockmaps,
    generic_arrangement,
    identity_blockmap,
    key_from_string,
    key_to_string,
    validate_atlas,
)
from nchodge.cli import main
from nchodge.complexes import build
from nchodge.errors import (
    BadParams,
    LatticeError,
    MissingStratum,
    UnknownStratum,
)
from nchodge.fixtures import BUILTIN_NAMES, builtin_atlas
from nchodge.linalg import RationalMatrix, vector
from nchodge.rings import PureHodgeRing, _unit_tensors, truncated_polynomial_ring
from nchodge.schema import save_atlas
from nchodge.tables import compute_table
from nchodge.verify import run_suite


class TestKeys:
    def test_round_trip(self):
        for key in [((), ""), ((0,), ""), ((0, 2), "a"), ((1,), "x|y")]:
            assert key_from_string(key_to_string(key)) == key

    def test_ambient_is_empty_string(self):
        assert key_to_string(((), "")) == ""
        assert key_from_string("") == ((), "")

    def test_bad_strings(self):
        with pytest.raises(BadParams):
            key_from_string("2,1")
        with pytest.raises(BadParams):
            key_from_string("1,1")
        with pytest.raises(BadParams):
            key_from_string("a,b")


class TestGenericArrangement:
    def test_stratum_count(self):
        import math

        a = generic_arrangement(2, 3)
        # one ambient + 3 lines + 3 points
        assert len(a.strata) == 1 + 3 + 3
        b = generic_arrangement(3, 5)
        assert len(b.strata) == sum(math.comb(5, k) for k in range(4))

    def test_depth_truncated_at_dimension(self):
        a = generic_arrangement(1, 3)
        assert all(len(k[0]) <= 1 for k in a.strata)

    def test_validates(self):
        for n, m in [(1, 2), (2, 3), (2, 0), (3, 4)]:
            report = validate_atlas(generic_arrangement(n, m))
            assert report.ok, report.violations

    def test_bad_params(self):
        with pytest.raises(BadParams):
            generic_arrangement(0, 2)
        with pytest.raises(BadParams):
            generic_arrangement(2, -1)

    def test_leq_and_components(self):
        a = generic_arrangement(2, 3)
        pt = ((0, 1), "")
        line = ((0,), "")
        assert a.leq(pt, line)
        assert not a.leq(line, pt)
        assert a.components_of((0, 1)) == (pt,)
        assert a.intersection_components((0, 1), [line]) == (pt,)
        assert a.intersection_components((2,), [pt]) == ()

    @pytest.mark.parametrize("name", BUILTIN_NAMES + ("generic_3_4",))
    def test_meet_is_the_intersection_under_both(self, name):
        """meet answers every ordered pair as the components of the merged
        index set lying under both strata."""
        if name == "generic_3_4":
            a = generic_arrangement(3, 4)
        else:
            a = builtin_atlas(name)
        keys = a.keys_sorted()
        for s in keys:
            for t in keys:
                want = a.intersection_components(set(s[0]) | set(t[0]), [s, t])
                assert a.meet(s, t) == want, (s, t)

    def test_rho_composes_to_point(self):
        a = generic_arrangement(2, 3)
        bm = a.rho(((), ""), ((0, 1), ""))
        # restriction of the hyperplane class to a point: only degree 0 survives
        assert set(bm) == {(0, (0, 0))}

    def test_unknown_stratum(self):
        a = generic_arrangement(1, 1)
        with pytest.raises(UnknownStratum):
            a.ring(((5,), ""))
        with pytest.raises(MissingStratum):
            a.rho(((0,), ""), ((), ""))


class TestBuiltins:
    def test_all_validate(self):
        for name in BUILTIN_NAMES:
            report = validate_atlas(builtin_atlas(name))
            assert report.ok, (name, report.violations)

    def test_unknown_name(self):
        with pytest.raises(BadParams):
            builtin_atlas("nope")

    def test_elliptic_ring(self):
        a = builtin_atlas("elliptic_1pt")
        x = a.ring(((), ""))
        # H^1 of an elliptic curve splits as (1,0) + (0,1)
        assert x.slice_dim(1, (1, 0)) == 1
        assert x.slice_dim(1, (0, 1)) == 1


class TestConnectedComponents:
    def test_fixture_counts(self):
        expected = {"p1_1pt": 1, "p1_2pts": 2, "triangle": 1, "elliptic_1pt": 1}
        for name, count in expected.items():
            assert builtin_atlas(name).divisor_connected_components() == count

    def test_generic_counts(self):
        assert generic_arrangement(2, 0).divisor_connected_components() == 0
        # points on a line never meet
        assert generic_arrangement(1, 3).divisor_connected_components() == 3
        # any two lines in the plane meet
        assert generic_arrangement(2, 4).divisor_connected_components() == 1
        assert generic_arrangement(3, 5).divisor_connected_components() == 1


def _two_lines(cross_class, point_label=""):
    """Two lines meeting in a point, with a tunable divisor class on line 1
    and a free-text label on the point."""
    ring1 = truncated_polynomial_ring(1)
    ring0 = truncated_polynomial_ring(0)
    strata = [
        Stratum(indices=(), label="", ring=truncated_polynomial_ring(2)),
        Stratum(indices=(0,), label="", ring=ring1),
        Stratum(indices=(1,), label="", ring=ring1),
        Stratum(indices=(0, 1), label=point_label, ring=ring0),
    ]
    one = RationalMatrix([[1]])
    blocks2 = {(0, (0, 0)): one, (2, (1, 1)): one}
    blocks1 = {(0, (0, 0)): one}
    restrictions = {}
    gysin = {}
    for a in (0, 1):
        restrictions[(((), ""), ((a,), ""))] = dict(blocks2)
        gysin[(((a,), ""), ((), ""))] = dict(blocks2)
        restrictions[((((a,), "")), ((0, 1), point_label))] = dict(blocks1)
        gysin[(((0, 1), point_label), ((a,), ""))] = dict(blocks1)
    classes = {
        (0, ((), "")): vector([1]),
        (1, ((), "")): vector([1]),
        (0, ((0,), "")): vector([cross_class]),
        (1, ((0,), "")): vector([1]),
        (0, ((1,), "")): vector([1]),
        (1, ((1,), "")): vector([1]),
    }
    return StrataAtlas(("A", "B"), strata, restrictions, gysin, classes)


def _conic_and_line():
    """P^2 with a conic C (component 0) and a line L (component 1) that meet
    in two points, a and b: on each curve, gysin after restriction equals
    multiplication by the other curve's class only summed over both points."""
    x, c, line = ((), ""), ((0,), ""), ((1,), "")
    points = (((0, 1), "a"), ((0, 1), "b"))
    dims = ((x, 2), (c, 1), (line, 1)) + tuple((p, 0) for p in points)
    strata = [Stratum(k[0], k[1], truncated_polynomial_ring(d)) for k, d in dims]

    def blocks(*images):  # h^i -> images[i] times the generator in degree 2i
        return {(2 * i, (i, i)): RationalMatrix([[y]]) for i, y in enumerate(images)}

    restrictions = {(x, c): blocks(1, 2), (x, line): blocks(1, 1)}
    gysin = {(c, x): blocks(2, 1), (line, x): blocks(1, 1)}
    for curve in (c, line):
        for p in points:
            restrictions[(curve, p)] = blocks(1)
            gysin[(p, curve)] = blocks(1)
    classes = {
        (a, key): vector([n])
        for a, key, n in (
            (0, x, 2), (1, x, 1), (0, c, 4), (1, c, 2), (0, line, 2), (1, line, 1)
        )
    }
    return StrataAtlas(("C", "L"), strata, restrictions, gysin, classes)


class TestSeveralPieces:
    """Intersections with several pieces: C . L is two points."""

    def test_validates(self):
        assert validate_atlas(_conic_and_line()).ok

    def test_verify_all_passes(self, tmp_path):
        path = tmp_path / "conic_and_line.json"
        save_atlas(_conic_and_line(), path)
        assert main(["verify", "--suite", "all", "--config", str(path)]) == 0

    def test_tables(self):
        atlas = _conic_and_line()
        log = compute_table(build(atlas, "log"))
        assert {m: log.entries(m) for m in log.degrees()} == {
            0: ((0, (0, 0), 1),),
            1: ((2, (1, 1), 1),),
            2: ((4, (2, 2), 1),),
        }
        xd = compute_table(build(atlas, "XD"))
        # H^2 of weight 0 comes from the loop in the dual graph
        assert {m: xd.weights(m) for m in xd.degrees()} == {2: (0,), 3: (2,), 4: (4,)}
        assert [xd.betti(m) for m in xd.degrees()] == [1, 1, 1]


class TestValidator:
    def test_good_two_lines(self):
        assert validate_atlas(_two_lines(1)).ok

    def test_wrong_divisor_class_reported(self):
        # gysin-after-restriction must equal multiplication by the class;
        # scaling one class breaks it and the report should say so
        report = validate_atlas(_two_lines(3))
        assert not report.ok
        assert any("class" in v or "gysin" in v for v in report.violations)
        assert str(report).startswith("atlas invalid")

    def test_duplicate_key_rejected(self):
        ring = truncated_polynomial_ring(1)
        strata = [
            Stratum(indices=(), label="", ring=ring),
            Stratum(indices=(), label="", ring=ring),
        ]
        with pytest.raises(LatticeError):
            StrataAtlas((), strata, {}, {}, {})

    def test_missing_ambient_rejected(self):
        with pytest.raises(LatticeError):
            StrataAtlas(
                ("A",),
                [Stratum(indices=(0,), label="", ring=truncated_polynomial_ring(1))],
                {},
                {},
                {},
            )

    def test_gysin_without_restriction_rejected(self):
        ring2 = truncated_polynomial_ring(2)
        ring1 = truncated_polynomial_ring(1)
        strata = [
            Stratum(indices=(), label="", ring=ring2),
            Stratum(indices=(0,), label="", ring=ring1),
        ]
        one = RationalMatrix([[1]])
        gysin = {(((0,), ""), ((), "")): {(0, (0, 0)): one, (2, (1, 1)): one}}
        with pytest.raises(LatticeError):
            StrataAtlas(("A",), strata, {}, gysin, {})


def _corrupted(atlas, rings=(), restrictions=(), gysin=(), classes=()):
    """A copy of atlas with some rings, map blocks or divisor classes replaced.

    restrictions and gysin map ((source, target), (j, ab)) to a new block.
    """
    rings = dict(rings)
    strata = [
        Stratum(s.indices, s.label, rings.get(key, s.ring))
        for key, s in atlas.strata.items()
    ]

    def blocks(maps, replaced):
        out = {pair: dict(bm) for pair, bm in maps.items()}
        for (pair, block), mat in dict(replaced).items():
            out[pair][block] = mat
        return out

    return StrataAtlas(
        atlas.components,
        strata,
        blocks(atlas.restrictions, restrictions),
        blocks(atlas.gysin, gysin),
        {**atlas.divisor_classes, **dict(classes)},
    )


def _with_sheet(ring, key, value):
    """The ring with one 1x1 multiplication sheet replaced by [[value]]."""
    return dataclasses.replace(
        ring, mult={**ring.mult, key: [RationalMatrix([[value]])]}
    )


X, H0, H1, H01 = ((), ""), ((0,), ""), ((1,), ""), ((0, 1), "")
TWO = RationalMatrix([[2]])


def _lopsided_curve():
    """A curve ring whose H^1 is two (1,0) slices and no (0,1) one: every
    ring axiom but Hodge symmetry holds, H^1 x H^1 landing in no slice."""
    hodge = {0: {(0, 0): 1}, 1: {(1, 0): 2}, 2: {(1, 1): 1}}
    return PureHodgeRing(1, hodge, _unit_tensors(hodge), vector([1]), vector([1]))


def _corruption(kind):
    g11, g21 = generic_arrangement(1, 1), generic_arrangement(2, 1)
    g31, g22 = generic_arrangement(3, 1), generic_arrangement(2, 2)
    g32, ell = generic_arrangement(3, 2), builtin_atlas("elliptic_1pt")
    h, unit = (2, 1, 1), (0, 0, 0)
    if kind == "left unit":
        return _corrupted(g11, rings={X: _with_sheet(g11.ring(X), (unit, h), 2)})
    if kind == "right unit":
        return _corrupted(g11, rings={X: _with_sheet(g11.ring(X), (h, unit), 2)})
    if kind == "Hodge symmetry":
        return _corrupted(ell, rings={X: _lopsided_curve()})
    if kind == "graded commutativity":
        # odd classes of the elliptic curve made to commute
        sheet = ((1, 0, 1), (1, 1, 0))
        return _corrupted(ell, rings={X: _with_sheet(ell.ring(X), sheet, 1)})
    if kind == "path-dependent restriction":
        return _corrupted(g32, restrictions={((H0, H01), (2, (1, 1))): TWO})
    if kind == "unit not fixed":
        return _corrupted(g11, restrictions={((X, H0), (0, (0, 0))): TWO})
    if kind == "restriction not multiplicative":
        return _corrupted(g31, restrictions={((X, H0), (2, (1, 1))): TWO})
    if kind == "projection formula":
        return _corrupted(g21, gysin={((H0, X), (2, (1, 1))): TWO})
    if kind == "gysin-after-restriction":
        return _corrupted(g11, classes={(0, X): vector([3])})
    if kind == "restriction-after-gysin":
        return _corrupted(g21, classes={(0, H0): vector([3])})
    if kind == "divisor-class restriction":
        return _corrupted(g22, classes={(1, H0): vector([3])})
    if kind == "base change":
        return _corrupted(g32, gysin={((H01, H1), (0, (0, 0))): TWO})
    raise AssertionError(kind)


# What validate_atlas reports on each corruption, in its order.
VIOLATIONS = {
    "Hodge symmetry": ("((), ''): Hodge symmetry fails at (1, (1, 0))",),
    "left unit": (
        "((), ''): unit fails on the left at (2, (1, 1), 0)",
        "((), ''): graded commutativity fails at (0, (0, 0), 0)x(2, (1, 1), 0)",
        "((), ''): graded commutativity fails at (2, (1, 1), 0)x(0, (0, 0), 0)",
    ),
    "right unit": (
        "((), ''): unit fails on the right at (2, (1, 1), 0)",
        "((), ''): graded commutativity fails at (0, (0, 0), 0)x(2, (1, 1), 0)",
        "((), ''): graded commutativity fails at (2, (1, 1), 0)x(0, (0, 0), 0)",
        "((0,), '')->((), ''): projection formula"
        " fails at (0, (0, 0), 0)x(0, (0, 0), 0)",
        "((), '')->((0,), ''): gysin-after-restriction fails at (0, (0, 0), 0)",
    ),
    "graded commutativity": (
        "((), ''): graded commutativity fails at (1, (0, 1), 0)x(1, (1, 0), 0)",
        "((), ''): graded commutativity fails at (1, (1, 0), 0)x(1, (0, 1), 0)",
    ),
    "path-dependent restriction": (
        "restriction to ((0, 1), '') from ((), '') depends on the path",
        "((0, 1), '')->((0,), ''): projection formula"
        " fails at (0, (0, 0), 0)x(2, (1, 1), 0)",
        "((0,), '')->((0, 1), ''): gysin-after-restriction fails at (2, (1, 1), 0)",
        "((0, 1), '')->((0,), ''): restriction-after-gysin fails at (0, (0, 0), 0)",
        "((0,), '')->((0, 1), ''): divisor class of component 0"
        " does not restrict correctly",
        "((0,), '')->((0, 1), ''): divisor class of component 1"
        " does not restrict correctly",
        "base change fails on square ((), '')/((0,), '')/((1,), '') at (2, (1, 1), 0)",
    ),
    "unit not fixed": (
        "((), '')->((0,), ''): restriction does not fix the unit",
        "((), '')->((0,), ''): restriction not multiplicative"
        " at (0, (0, 0), 0)x(0, (0, 0), 0)",
        "((0,), '')->((), ''): projection formula"
        " fails at (0, (0, 0), 0)x(0, (0, 0), 0)",
        "((), '')->((0,), ''): gysin-after-restriction fails at (0, (0, 0), 0)",
    ),
    "restriction not multiplicative": (
        "((), '')->((0,), ''): restriction not multiplicative"
        " at (2, (1, 1), 0)x(2, (1, 1), 0)",
        "((0,), '')->((), ''): projection formula"
        " fails at (0, (0, 0), 0)x(2, (1, 1), 0)",
        "((0,), '')->((), ''): projection formula"
        " fails at (2, (1, 1), 0)x(2, (1, 1), 0)",
        "((), '')->((0,), ''): gysin-after-restriction fails at (2, (1, 1), 0)",
        "((0,), '')->((), ''): restriction-after-gysin fails at (0, (0, 0), 0)",
        "((), '')->((0,), ''): divisor class of component 0"
        " does not restrict correctly",
    ),
    "projection formula": (
        "((0,), '')->((), ''): projection formula"
        " fails at (0, (0, 0), 0)x(2, (1, 1), 0)",
        "((), '')->((0,), ''): gysin-after-restriction fails at (2, (1, 1), 0)",
    ),
    "gysin-after-restriction": (
        "((), '')->((0,), ''): gysin-after-restriction fails at (0, (0, 0), 0)",
    ),
    "restriction-after-gysin": (
        "((0,), '')->((), ''): restriction-after-gysin fails at (0, (0, 0), 0)",
        "((), '')->((0,), ''): divisor class of component 0"
        " does not restrict correctly",
    ),
    "divisor-class restriction": (
        "((), '')->((0,), ''): divisor class of component 1"
        " does not restrict correctly",
        "((0,), '')->((0, 1), ''): gysin-after-restriction fails at (0, (0, 0), 0)",
    ),
    "base change": (
        "((0, 1), '')->((1,), ''): projection formula"
        " fails at (0, (0, 0), 0)x(2, (1, 1), 0)",
        "((1,), '')->((0, 1), ''): gysin-after-restriction fails at (0, (0, 0), 0)",
        "((0, 1), '')->((1,), ''): restriction-after-gysin fails at (0, (0, 0), 0)",
        "base change fails on square ((), '')/((0,), '')/((1,), '') at (0, (0, 0), 0)",
    ),
}


class TestViolationPins:
    @pytest.mark.parametrize("kind", sorted(VIOLATIONS))
    def test_exact_violations(self, kind):
        report = validate_atlas(_corruption(kind))
        assert not report.ok
        assert report.violations == VIOLATIONS[kind]

    def test_hodge_symmetry_fails_verify(self, tmp_path):
        path = tmp_path / "lopsided.json"
        save_atlas(_corruption("Hodge symmetry"), path)
        assert main(["verify", "--suite", "consistency", "--config", str(path)]) == 1

    def test_consistency_suite_detail(self):
        report = run_suite("consistency", _corruption("path-dependent restriction"))
        assert not report.ok
        assert [line.name for line in report.lines] == ["atlas invariants"]
        assert report.lines[0].detail == (
            "restriction to ((0, 1), '') from ((), '') depends on the path; "
            "((0, 1), '')->((0,), ''): projection formula fails at "
            "(0, (0, 0), 0)x(2, (1, 1), 0); "
            "((0,), '')->((0, 1), ''): gysin-after-restriction fails at "
            "(2, (1, 1), 0)"
        )
        assert str(report) == "consistency\n  [FAIL] atlas invariants (" + (
            report.lines[0].detail
        ) + ")"


# -- the validator against its frozen per-instance reference -----------------

ORACLE_GENERIC = [(1, 3), (2, 4), (3, 4), (3, 5), (4, 7)]


def _same_as_reference(atlas):
    report = validate_atlas(atlas)
    assert report == ref.validate_atlas(atlas)
    return report


def _scaled_copy(atlas, rng):
    """A copy of atlas with one restriction block, Gysin block, mult sheet
    or divisor class scaled by a drawn factor other than 1."""
    factor = rng.choice([0, -1, 2, Fraction(1, 3)])
    kind = rng.choice(["restrictions", "gysin", "sheet", "class"])
    if kind in ("restrictions", "gysin"):
        maps = getattr(atlas, kind)
        pair = rng.choice(sorted(maps))
        block = rng.choice(sorted(maps[pair]))
        change = {(pair, block): maps[pair][block].scale(factor)}
        return _corrupted(atlas, **{kind: change})
    if kind == "sheet":
        key = rng.choice(sorted(atlas.strata))
        ring = atlas.ring(key)
        at = rng.choice(sorted(ring.mult))
        sheets = list(ring.mult[at])
        u = rng.randrange(len(sheets))
        sheets[u] = sheets[u].scale(factor)
        new = dataclasses.replace(ring, mult={**ring.mult, at: sheets})
        return _corrupted(atlas, rings={key: new})
    at = rng.choice(sorted(atlas.divisor_classes))
    cls = tuple(factor * x for x in atlas.divisor_classes[at])
    return _corrupted(atlas, classes={at: cls})


SEEDED = [("generic_3_4", seed) for seed in range(15)] + [
    ("triangle", seed) for seed in range(15)
]


def _seeded(name, seed):
    atlas = generic_arrangement(3, 4) if name == "generic_3_4" else builtin_atlas(name)
    return _scaled_copy(atlas, random.Random(seed))


class TestValidatorMatchesReference:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name):
        assert _same_as_reference(builtin_atlas(name)).ok

    @pytest.mark.parametrize("n, m", ORACLE_GENERIC)
    def test_generic(self, n, m):
        assert _same_as_reference(generic_arrangement(n, m)).ok

    @pytest.mark.parametrize("kind", sorted(VIOLATIONS))
    def test_pinned_corruptions(self, kind):
        assert not _same_as_reference(_corruption(kind)).ok

    @pytest.mark.parametrize("name, seed", SEEDED)
    def test_seeded_corruption(self, name, seed):
        _same_as_reference(_seeded(name, seed))

    def test_seeded_corruptions_are_caught(self):
        # agreement on a seeded case only tests the checks if the case fails
        assert not any(ref.validate_atlas(_seeded(*case)).ok for case in SEEDED)

    def test_several_pieces(self):
        assert _same_as_reference(_conic_and_line()).ok

    @pytest.mark.parametrize("seed", range(15))
    def test_several_pieces_seeded_corruption(self, seed):
        corrupted = _scaled_copy(_conic_and_line(), random.Random(seed))
        assert not _same_as_reference(corrupted).ok


# -- one corrupted instance among many equal ones ----------------------------

G34 = generic_arrangement(3, 4)
A0, A02, A1 = ((0,), ""), ((0, 2), ""), ((1,), "")

# generic(3,4) with the h block of the cover ((0,),'') -> ((0,2),'') doubled;
# every other cover carries the same [[1]] blocks between the same rings.
ONE_COVER = (
    "restriction to ((0, 2), '') from ((), '') depends on the path",
    "((0, 2), '')->((0,), ''): projection formula"
    " fails at (0, (0, 0), 0)x(2, (1, 1), 0)",
    "((0,), '')->((0, 2), ''): gysin-after-restriction fails at (2, (1, 1), 0)",
    "((0, 2), '')->((0,), ''): restriction-after-gysin fails at (0, (0, 0), 0)",
    "((0,), '')->((0, 2), ''): divisor class of component 0"
    " does not restrict correctly",
    "((0,), '')->((0, 2), ''): divisor class of component 1"
    " does not restrict correctly",
    "((0,), '')->((0, 2), ''): divisor class of component 2"
    " does not restrict correctly",
    "((0,), '')->((0, 2), ''): divisor class of component 3"
    " does not restrict correctly",
    "base change fails on square ((), '')/((0,), '')/((2,), '') at (2, (1, 1), 0)",
    "base change fails on square ((0,), '')/((0, 1), '')/((0, 2), '')"
    " at (0, (0, 0), 0)",
    "base change fails on square ((0,), '')/((0, 3), '')/((0, 2), '')"
    " at (0, (0, 0), 0)",
)

# generic(3,4) with a left unit sheet doubled in the ring of ((1,),''); the
# other three planes hold equal rings as separate objects.
ONE_RING = (
    "((1,), ''): unit fails on the left at (2, (1, 1), 0)",
    "((1,), ''): graded commutativity fails at (0, (0, 0), 0)x(2, (1, 1), 0)",
    "((1,), ''): graded commutativity fails at (2, (1, 1), 0)x(0, (0, 0), 0)",
    "((), '')->((1,), ''): restriction not multiplicative"
    " at (0, (0, 0), 0)x(2, (1, 1), 0)",
    "((1,), '')->((), ''): projection formula"
    " fails at (0, (0, 0), 0)x(2, (1, 1), 0)",
    "((1,), '')->((0, 1), ''): restriction not multiplicative"
    " at (0, (0, 0), 0)x(2, (1, 1), 0)",
    "((1,), '')->((1, 2), ''): restriction not multiplicative"
    " at (0, (0, 0), 0)x(2, (1, 1), 0)",
    "((1,), '')->((1, 3), ''): restriction not multiplicative"
    " at (0, (0, 0), 0)x(2, (1, 1), 0)",
)


def _one_cover():
    return _corrupted(G34, restrictions={((A0, A02), (2, (1, 1))): TWO})


def _one_ring():
    unit_h = ((0, 0, 0), (2, 1, 1))
    return _corrupted(G34, rings={A1: _with_sheet(G34.ring(A1), unit_h, 2)})


class TestOneAmongEqualInstances:
    def test_one_cover(self):
        assert validate_atlas(_one_cover()).violations == ONE_COVER

    def test_one_ring(self):
        rings = [s.ring for s in G34.strata.values() if len(s.indices) == 1]
        assert len({id(r) for r in rings}) == len(rings) == 4
        assert validate_atlas(_one_ring()).violations == ONE_RING

    def test_no_state_between_calls(self):
        # the corrupted copies share every other ring and matrix with G34
        assert validate_atlas(G34).ok
        assert validate_atlas(_one_cover()).violations == ONE_COVER
        assert validate_atlas(_one_ring()).violations == ONE_RING
        assert validate_atlas(G34).ok


# -- one object at several instances ----------------------------------------

A2, A03 = ((2,), ""), ((0, 3), "")


def _shared_objects():
    """generic(3,4) with one corrupted ring object at the planes ((1,),'')
    and ((2,),''), and one corrupted restriction dict on the covers
    ((0,),'') -> ((0,2),'') and ((0,),'') -> ((0,3),'')."""
    ring = _with_sheet(G34.ring(A1), ((0, 0, 0), (2, 1, 1)), 2)
    strata = [
        Stratum(s.indices, s.label, ring if key in (A1, A2) else s.ring)
        for key, s in G34.strata.items()
    ]
    bm = {**G34.restrictions[(A0, A02)], (2, (1, 1)): TWO}
    return StrataAtlas(
        G34.components,
        strata,
        {**G34.restrictions, (A0, A02): bm, (A0, A03): bm},
        G34.gysin,
        G34.divisor_classes,
    )


class TestSharedObjects:
    def test_every_instance_reported(self):
        atlas = _shared_objects()
        assert atlas.ring(A1) is atlas.ring(A2)
        assert atlas.restrictions[(A0, A02)] is atlas.restrictions[(A0, A03)]
        violations = _same_as_reference(atlas).violations
        for key in (A1, A2):
            assert f"{key}: unit fails on the left at (2, (1, 1), 0)" in violations
        for tkey in (A02, A03):
            assert (
                f"{A0}->{tkey}: gysin-after-restriction fails at (2, (1, 1), 0)"
                in violations
            )


# -- stratum labels are free text --------------------------------------------

LABEL = "{0}%s{}"
PT = ((0, 1), LABEL)


def _braced_two_lines():
    """Two lines whose labelled point has a doubled unit sheet and a doubled
    restriction block from the first line."""
    atlas = _two_lines(1, point_label=LABEL)
    unit = (0, 0, 0)
    return _corrupted(
        atlas,
        rings={PT: _with_sheet(atlas.ring(PT), (unit, unit), 2)},
        restrictions={((H0, PT), (0, (0, 0))): TWO},
    )


BRACED = (
    "((0, 1), '{0}%s{}'): unit fails on the left at (0, (0, 0), 0)",
    "((0, 1), '{0}%s{}'): unit fails on the right at (0, (0, 0), 0)",
    "restriction to ((0, 1), '{0}%s{}') from ((), '') depends on the path",
    "((0,), '')->((0, 1), '{0}%s{}'): restriction does not fix the unit",
    "((0,), '')->((0, 1), '{0}%s{}'): restriction not multiplicative"
    " at (0, (0, 0), 0)x(0, (0, 0), 0)",
    "((0, 1), '{0}%s{}')->((0,), ''): projection formula"
    " fails at (0, (0, 0), 0)x(0, (0, 0), 0)",
    "((0,), '')->((0, 1), '{0}%s{}'): gysin-after-restriction"
    " fails at (0, (0, 0), 0)",
    "((1,), '')->((0, 1), '{0}%s{}'): restriction not multiplicative"
    " at (0, (0, 0), 0)x(0, (0, 0), 0)",
    "((0, 1), '{0}%s{}')->((1,), ''): projection formula"
    " fails at (0, (0, 0), 0)x(0, (0, 0), 0)",
    "base change fails on square ((), '')/((0,), '')/((1,), '') at (0, (0, 0), 0)",
)


class TestBraceSafeMessages:
    def test_clean_labelled_atlas_validates(self):
        assert validate_atlas(_two_lines(1, point_label=LABEL)).ok

    def test_messages_verbatim(self):
        report = _same_as_reference(_braced_two_lines())
        assert report.violations == BRACED
        assert str(report) == "atlas invalid:\n" + "\n".join(
            f"  - {v}" for v in BRACED
        )


RHO_ATLASES = [*BUILTIN_NAMES, (2, 4), (3, 4), (3, 5)]


@pytest.mark.parametrize("name", RHO_ATLASES, ids=str)
def test_rho_is_the_identity_composed_path(name):
    """rho starts from the first cover's blocks on the source ring's slices:
    the restrictions composed after the identity, key for key and in the
    same order, for every stratum and every stratum below it."""
    atlas = generic_arrangement(*name) if isinstance(name, tuple) else builtin_atlas(name)
    pairs = 0
    for skey in atlas.keys_sorted():
        for tkey in sorted(atlas.descendants(skey)):
            want = identity_blockmap(atlas.ring(skey))
            for cover in atlas._rho_path(skey, tkey, ascending=True):
                want = compose_blockmaps(atlas.restrictions[cover], want)
            assert list(atlas.rho(skey, tkey).items()) == list(want.items()), (skey, tkey)
            pairs += 1
    assert pairs > len(atlas.strata)
