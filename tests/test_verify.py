import pytest

from nchodge import verify
from nchodge.atlas import generic_arrangement
from nchodge.errors import BadParams
from nchodge.fixtures import builtin_atlas
from nchodge.reports import CheckLine, CheckReport
from nchodge.verify import SUITES, run_suite, suite_consistency, suite_logforms


class TestReports:
    def test_line_format(self):
        assert str(CheckLine("thing", True)) == "[ok] thing"
        assert str(CheckLine("thing", False, "why")) == "[FAIL] thing (why)"

    def test_report_ok_and_json(self):
        report = CheckReport("t", (CheckLine("a", True), CheckLine("b", False)))
        assert not report.ok
        data = report.to_json_dict()
        assert data["title"] == "t"
        assert data["ok"] is False
        assert [c["name"] for c in data["checks"]] == ["a", "b"]
        assert str(report).splitlines()[0] == "t"


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(BadParams):
            run_suite("nope", generic_arrangement(1, 1))

    def test_atlas_required(self):
        with pytest.raises(BadParams):
            run_suite("fujiki")

    def test_degree_bound_just_below_the_exponent_limit_is_accepted(self, monkeypatch):
        # the claim's span reaches degree bound + 1, which is still a legal exponent
        seen = []
        monkeypatch.setattr(verify, "suite_logforms",
                            lambda seed, degree_bound: seen.append(degree_bound) or "ran")
        assert run_suite("logforms", degree_bound=32766) == "ran" and seen == [32766]
        with pytest.raises(BadParams, match="exponent limit 32767, got 32767"):
            run_suite("logforms", degree_bound=32767)
        assert seen == [32766]

    def test_logforms_needs_no_atlas(self):
        report = run_suite("logforms", seed=1, degree_bound=1)
        assert report.ok

    def test_suite_names_stable(self):
        assert SUITES == ("consistency", "fujiki", "les", "cup", "logforms", "all")

    @pytest.mark.parametrize("suite", ["consistency", "fujiki", "les", "cup"])
    def test_small_fixture_suites_pass(self, p1_1pt, suite):
        report = run_suite(suite, p1_1pt)
        assert report.ok, str(report)
        assert report.lines

    def test_all_on_empty_divisor_skips_duality(self):
        report = run_suite("all", generic_arrangement(1, 0), degree_bound=1)
        assert report.ok
        assert any("skipped: empty divisor" in l.detail for l in report.lines)

    @pytest.mark.parametrize("suite", ["fujiki", "les", "cup", "consistency", "all"])
    @pytest.mark.parametrize("name", ["p1_1pt", "p1_2pts", "triangle", "elliptic_1pt", "generic_2_4"])
    def test_line_names_unique_within_a_report(self, name, suite):
        atlas = generic_arrangement(2, 4) if name == "generic_2_4" else builtin_atlas(name)
        names = [l.name for l in run_suite(suite, atlas, seed=7).lines]
        assert len(names) == len(set(names))


class TestConsistencySuite:
    def test_covers_every_selector_and_neighborhood(self, p1_2pts):
        report = suite_consistency(p1_2pts)
        assert report.ok
        names = " ".join(l.name for l in report.lines)
        for token in ("X", "log", "XD-tilde", "locD-tilde", "sslog", "nbhd:0", "nbhd:1"):
            assert token in names, token

    def test_agreement_lines_present(self, triangle):
        report = suite_consistency(triangle)
        names = [l.name for l in report.lines]
        assert any("XD agrees" in n or ("XD" in n and "tilde" in n) for n in names)


class TestLogformsSuite:
    def test_deterministic_given_seed(self):
        a = suite_logforms(seed=4, trials=10, degree_bound=1)
        b = suite_logforms(seed=4, trials=10, degree_bound=1)
        assert [str(l) for l in a.lines] == [str(l) for l in b.lines]

    def test_seed_echoed(self):
        report = suite_logforms(seed=9, trials=5, degree_bound=1)
        assert any("seed 9" in l.detail for l in report.lines)
