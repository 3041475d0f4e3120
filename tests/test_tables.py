import dataclasses

from nchodge.atlas import generic_arrangement
from nchodge.complexes import build
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
        assert len(table.spaces) == 6
        for key, space in table.spaces.items():
            raised = dataclasses.replace(space, dim=space.dim + 1)
            spaces = {**table.spaces, key: raised}
            assert not euler_check(fam, MixedHodgeTable(fam, spaces))
