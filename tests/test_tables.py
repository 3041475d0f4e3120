import collections
import dataclasses
import functools

import pytest

import reference_tables as ref
from nchodge import tables
from nchodge.atlas import generic_arrangement, key_to_string
from nchodge.complexes import (
    SELECTORS,
    RowFamily,
    build,
    cone_morphism,
    cone_rows,
)
from nchodge.errors import NCHodgeError
from nchodge.fixtures import BUILTIN_NAMES, builtin_atlas
from nchodge.tables import MixedHodgeTable, compare_tables, compute_table, euler_check


def table_of(atlas, selector):
    return compute_table(build(atlas, selector))


class TestTableQueries:
    def test_dims_and_betti(self, triangle):
        t = table_of(triangle, "log")
        assert t.betti(1) == 2
        assert t.dim(1, 2, (1, 1)) == 2
        assert t.dim(1, 0, (0, 0)) == 0
        assert t.weights(1) == (2,)
        assert t.weights(9) == ()

    def test_representatives_are_nonzero(self, triangle):
        t = table_of(triangle, "log")
        reps = t.representatives(1, 2, (1, 1))
        assert len(reps) == 2
        assert all(any(x != 0 for x in r) for r in reps)
        assert t.representatives(1, 0, (0, 0)) == ()

    def test_space_lookup(self, triangle):
        t = table_of(triangle, "log")
        assert t.space(1, 2, (1, 1)).dim == 2
        assert t.space(9, 0, (0, 0)) is None

    def test_summary_shape(self, p1_2pts):
        s = table_of(p1_2pts, "XD").summary()
        assert set(s) == {"1", "2"}
        assert s["1"]["betti"] == 1
        assert s["1"]["blocks"] == [{"weight": 0, "type": [0, 0], "dim": 1}]

    def test_to_text_has_header_and_rows(self, p1_2pts):
        text = table_of(p1_2pts, "XD").to_text()
        assert text.startswith("table XD")
        assert "degree" in text and "weight" in text
        assert len(text.splitlines()) == 4

    def test_label_carried(self, p1_2pts):
        assert table_of(p1_2pts, "XD").label == "XD"


class TestCompare:
    def test_equal(self, triangle):
        d = compare_tables(table_of(triangle, "XD"), table_of(triangle, "XD-tilde"))
        assert d.equal
        assert d.differences == ()
        assert str(d) == "tables agree"

    def test_unequal_reports_block(self, triangle, p1_2pts):
        d = compare_tables(table_of(triangle, "log"), table_of(p1_2pts, "log"))
        assert not d.equal
        assert d.differences
        assert any("degree" in line for line in str(d).splitlines())

    def test_unequal_names_every_differing_block(self, triangle, p1_2pts):
        d = compare_tables(table_of(triangle, "log"), table_of(p1_2pts, "log"))
        assert d.differences == (
            "degree 1, weight 2, type (1, 1): log has 2, log has 1",
            "degree 2, weight 4, type (2, 2): log has 1, log has 0",
        )


class TestEuler:
    def test_all_selectors(self, p1_2pts):
        for selector in ("X", "D", "log", "XD", "locD"):
            fam = build(p1_2pts, selector)
            assert euler_check(fam, compute_table(fam))

    def test_empty_family(self):
        fam = build(generic_arrangement(1, 0), "locD")
        assert euler_check(fam, compute_table(fam))

    def test_one_wrong_dim_fails(self, triangle):
        fam = build(triangle, "log")
        table = compute_table(fam)
        assert len(table.dims) == 6
        for key, d in table.dims.items():
            dims = {**table.dims, key: d + 1}
            assert not euler_check(fam, MixedHodgeTable(fam, dims))


REFERENCE_ATLASES = [
    pytest.param(functools.partial(builtin_atlas, name), id=name)
    for name in BUILTIN_NAMES
] + [
    pytest.param(functools.partial(generic_arrangement, n, m), id=f"generic({n},{m})")
    for n, m in ((2, 4), (3, 4), (3, 5))
]


def every_selector(atlas):
    """Every selector, sslog and every nbhd: key of the atlas."""
    nbhds = [f"nbhd:{key_to_string(k)}" for k in atlas.keys_sorted()]
    return [*SELECTORS, "sslog", *nbhds]


# selector -> the weights Deligne's theory allows in degree k on an
# n-dimensional ambient space; the other families get the symmetry check only
WEIGHT_RANGES = {
    "X": lambda k, n: (k, k),
    "log": lambda k, n: (k, 2 * k),
    "D": lambda k, n: (0, k),
    "XD": lambda k, n: (0, k),
    "XD-tilde": lambda k, n: (0, k),
    "locD": lambda k, n: (k, 2 * n),
    "locD-tilde": lambda k, n: (k, 2 * n),
}


class TestHodgeOracles:
    """In each Gr^W_q block the types (a, b) have a + b = q and
    h^{a,b} = h^{b,a}, and each theory's weights lie in their range."""

    @pytest.mark.parametrize("make", REFERENCE_ATLASES)
    def test_types_symmetry_and_weights(self, make):
        atlas = make()
        for selector in every_selector(atlas):
            table = table_of(atlas, selector)
            weights = WEIGHT_RANGES.get(selector)
            for k in table.degrees():
                blocks = {(q, ab): d for q, ab, d in table.entries(k)}
                for (q, (a, b)), d in blocks.items():
                    place = (selector, k, q, (a, b))
                    assert a + b == q, place
                    assert blocks.get((q, (b, a))) == d, place
                    if weights:
                        low, high = weights(k, atlas.dim)
                        assert low <= q <= high, place


class TestAgainstEagerTable:
    """The dimension-first table equals one cohomology_at call per slot."""

    @pytest.mark.parametrize("make", REFERENCE_ATLASES)
    def test_dims_and_spaces(self, make):
        atlas = make()
        for selector in every_selector(atlas):
            family = build(atlas, selector)
            table = compute_table(family)
            expected = ref.compute_table(family)
            assert list(table.dims.items()) == [
                (key, space.dim) for key, space in expected.items()
            ], selector
            assert list(table.spaces) == list(expected)
            for (m, q, ab), space in expected.items():
                assert table.representatives(m, q, ab) == space.representatives
                assert table.space(m, q, ab) == space, (selector, m, q, ab)

    def test_spaces_computed_once_on_first_read(self, triangle, monkeypatch):
        calls = []
        cohomology_at = tables.cohomology_at

        def counted(d_in, d_out):
            calls.append((d_in, d_out))
            return cohomology_at(d_in, d_out)

        monkeypatch.setattr(tables, "cohomology_at", counted)
        table = compute_table(build(triangle, "XD-tilde"))
        assert calls == []
        assert len(table.spaces) == len(table.dims) > 0
        assert all(key in table.spaces for key in table.dims)
        assert calls == []
        key = next(k for k, d in table.dims.items() if d)
        first = table.spaces[key]
        assert table.space(*key) is first
        assert table.representatives(*key) is first.representatives
        assert len(calls) == 1
        assert table.spaces.get((99, 0, (0, 0))) is None
        assert (99, 0, (0, 0)) not in table.spaces and key in table.spaces
        assert len(calls) == 1


def _doubled_ends(morphism):
    """The morphism once for each block of its source and of its target,
    with that one block doubled."""
    for end in ("source", "target"):
        family = getattr(morphism, end)
        for pair, block in family.blocks.items():
            blocks = {**family.blocks, pair: ref.scale_block(block, 2)}
            broken = RowFamily(family.atlas, family.label, family.terms, blocks)
            yield dataclasses.replace(morphism, **{end: broken})


def _outcome(monkeypatch, owner, name, run):
    """`run()`'s value, or the error it raises with the number of slots that
    the patched per-slot check `owner.name` reached."""
    calls = []
    check = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return check(*args)

    with monkeypatch.context() as patch:
        patch.setattr(owner, name, counted)
        try:
            return run()
        except NCHodgeError as exc:
            return type(exc), str(exc), len(calls)


class TestFailuresKeepTheirPlace:
    # per cone selector on triangle: how the doubled end blocks fail
    EXPECTED = {
        "XD": {"NotChainMap": 6},
        "XD-tilde": {"NotChainMap": 48, "CompositionNonzero": 3},
        "locD": {"table": 3, "CompositionNonzero": 9},
        "locD-tilde": {"NotChainMap": 12, "table": 33},
    }

    @pytest.mark.parametrize("selector", ["XD", "XD-tilde", "locD", "locD-tilde"])
    def test_doubled_end_block(self, triangle, selector, monkeypatch):
        kinds = collections.Counter()
        for morphism in _doubled_ends(cone_morphism(triangle, selector)):
            got = _outcome(
                monkeypatch, tables, "check_complex",
                lambda: compute_table(cone_rows(morphism)).dims,
            )
            want = _outcome(
                monkeypatch, ref, "cohomology_at",
                lambda: {
                    key: space.dim
                    for key, space in ref.compute_table(ref.cone_rows(morphism)).items()
                },
            )
            assert got == want
            kinds[got[0].__name__ if isinstance(got, tuple) else "table"] += 1
        assert kinds == self.EXPECTED[selector]
