import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from nchodge import cli
from nchodge.cli import main
from nchodge.complexes import SELECTORS
from nchodge.fixtures import builtin_atlas
from nchodge.schema import atlas_to_json, atlases_equal, load_atlas


ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_broken_atlas(path):
    data = atlas_to_json(builtin_atlas("triangle"))
    for g in data["gysin"]:
        for key in g["blocks"]:
            g["blocks"][key] = [[str(2 * int(x)) for x in row] for row in g["blocks"][key]]
        break
    path.write_text(json.dumps(data))


class TestGen:
    def test_generic_round_trip(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        code, _, _ = run(capsys, "gen", "--family", "generic", "--dim", "2",
                         "--hyperplanes", "3", "-o", str(out))
        assert code == 0
        atlas = load_atlas(out)
        assert len(atlas.strata) == 7

    def test_gen_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "generic", "--dim", "1",
                           "--hyperplanes", "1")
        assert code == 0
        assert json.loads(out)["format"] == "nc-hodge/1"

    def test_gen_rejects_builtin_names(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "triangle")
        assert code == 2
        assert err

    def test_gen_needs_dimensions(self, capsys):
        code, _, _ = run(capsys, "gen", "--family", "generic")
        assert code == 2


class TestCompute:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "triangle",
                           "--complex", "log")
        assert code == 0
        assert out.startswith("table log")

    def test_degree_filter(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "p1_2pts",
                           "--complex", "XD", "--degree", "2")
        assert code == 0
        assert "(2,(1,1),1) weight 2" in out
        assert "weight 0" not in out

    def test_json_deterministic(self, capsys):
        args = ("compute", "--family", "triangle", "--complex", "locD",
                "--format", "json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["format"] == "nc-hodge-table/1"
        assert payload["complex"] == "locD"
        assert payload["table"]["2"]["betti"] == 3

    def test_unknown_complex(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "triangle",
                           "--complex", "wat")
        assert code == 2
        assert err

    def test_unknown_family(self, capsys):
        code, _, _ = run(capsys, "compute", "--family", "nope", "--complex", "X")
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _, _ = run(capsys, "compute", "--config", "/does/not/exist.json",
                         "--complex", "X")
        assert code == 2

    def test_undecodable_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        code, _, err = run(capsys, "compute", "--config", str(path), "--complex", "X")
        assert code == 2
        assert err.startswith("error: ")

    def test_deeply_nested_config_file(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, _, err = run(capsys, "compute", "--config", str(path), "--complex", "X")
        assert code == 2
        assert err.startswith("error: ")

    def test_exponent_in_config_file(self, tmp_path, capsys):
        data = atlas_to_json(builtin_atlas("triangle"))
        data["divisor_classes"][0]["class"] = ["1e2000000"]
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "compute", "--config", str(path), "--complex", "X")
        assert code == 2
        assert err == "error: divisor_classes[0]: exponent in rational '1e2000000'\n"

    @pytest.mark.parametrize("unit_sheets", [True, False])
    @pytest.mark.parametrize("degree, a", [(6, 3), (-2, -1)])
    def test_type_outside_dimension_in_config_file(
        self, tmp_path, capsys, degree, a, unit_sheets
    ):
        # a surface has no slice of type (3,3), nor of type (-1,-1)
        data = atlas_to_json(builtin_atlas("triangle"))
        index, ambient = next(
            (i, s) for i, s in enumerate(data["strata"]) if not s["indices"]
        )
        ambient["hodge"][str(degree)] = [[a, a, 1]]
        if unit_sheets:
            slot = f"{degree},{a},{a}"
            ambient["mult"][f"0,0,0|{slot}"] = [[["1"]]]
            ambient["mult"][f"{slot}|0,0,0"] = [[["1"]]]
        path = tmp_path / "type.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "compute", "--config", str(path), "--complex", "log")
        assert code == 2
        assert out == ""
        assert err == (
            f"error: strata[{index}]: slice ({a},{a}) in degree {degree}: types"
            " range over 0..2 in dimension 2\n"
        )

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="JSON integers have no digit limit on this Python",
    )
    def test_oversized_integer_in_config_file(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(
            '{"format": "nc-hodge/1", "components": [], "strata": [%s]}' % ("1" * 5000)
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        result = subprocess.run(
            [sys.executable, "-m", "nchodge.cli", "compute", "--config", str(path),
             "--complex", "X"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: invalid JSON: ")
        assert "Traceback" not in result.stderr

    def test_nbhd_selector(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "p1_1pt",
                           "--complex", "nbhd:0")
        assert code == 0
        assert "table nbhd:0" in out

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, stdout, _ = run(capsys, "compute", "--family", "p1_1pt",
                              "--complex", "X", "--format", "json", "-o", str(out))
        assert code == 0
        assert stdout == ""
        assert json.loads(out.read_text())["complex"] == "X"


class TestVerify:
    def test_fujiki_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "p1_2pts",
                           "--suite", "fujiki", "--seed", "3")
        assert code == 0
        assert "[ok]" in out
        assert "seed 3" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "p1_1pt",
                           "--suite", "les", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["format"] == "nc-hodge-report/1"
        assert payload["suite"] == "les"
        assert payload["ok"] is True
        assert all(c["ok"] for c in payload["checks"])

    def test_logforms_seed_echoed(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "logforms",
                           "--seed", "11", "--degree-bound", "1")
        assert code == 0
        assert "seed 11" in out

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--family", "p1_1pt", "--suite", "wat")
        assert code == 2

    def test_unknown_suite_without_atlas(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "bogus")
        assert code == 2
        assert out == ""
        assert "unknown suite 'bogus'" in err

    @pytest.mark.parametrize("suite", ["logforms", "all"])
    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_vacuous_degree_bound_rejected(self, capsys, suite, bound):
        # a bound below 1 admits no ideal forms: the residue check would be vacuous
        code, out, err = run(capsys, "verify", "--family", "p1_1pt",
                             "--suite", suite, "--degree-bound", bound)
        assert code == 2
        assert out == ""
        assert f"got {bound}" in err

    @pytest.mark.parametrize("suite", ["logforms", "all"])
    @pytest.mark.parametrize("bound", ["32767", "40000"])
    def test_degree_bound_past_the_exponent_limit_rejected(self, capsys, suite, bound):
        # the claim's span reaches one degree past the bound, and an exponent stops at
        # 32767: the bound is refused before any draw, not left to exhaust memory
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--family", "p1_1pt",
                             "--suite", suite, "--degree-bound", bound)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert f"exponent limit 32767, got {bound}" in err
        assert "Traceback" not in err

    def test_failing_check_exits_one(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        write_broken_atlas(broken)
        code, out, _ = run(capsys, "verify", "--config", str(broken),
                           "--suite", "consistency")
        assert code == 1
        assert "[FAIL] atlas invariants" in out

    def test_all_suite_short_circuits(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        write_broken_atlas(broken)
        code, out, _ = run(capsys, "verify", "--config", str(broken),
                           "--suite", "all")
        assert code == 1
        assert "skipped: consistency failed" in out

    def test_internal_invariant_exits_three(self, tmp_path, capsys):
        # compute assumes a valid atlas; on a tampered one the squared
        # differential is caught as an internal invariant
        broken = tmp_path / "broken.json"
        write_broken_atlas(broken)
        code, _, err = run(capsys, "compute", "--config", str(broken),
                           "--complex", "locD")
        assert code == 3
        assert err

    def test_verify_deterministic(self, capsys):
        args = ("verify", "--family", "triangle", "--suite", "cup",
                "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestGenComputeVerifyPipeline:
    def test_generated_atlas_passes_all(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        assert run(capsys, "gen", "--family", "generic", "--dim", "2",
                   "--hyperplanes", "2", "-o", str(out))[0] == 0
        code, _, _ = run(capsys, "verify", "--config", str(out),
                         "--suite", "consistency")
        assert code == 0

    def test_gen_matches_library(self, tmp_path, capsys):
        from nchodge.atlas import generic_arrangement

        out = tmp_path / "a.json"
        run(capsys, "gen", "--family", "generic", "--dim", "2",
            "--hyperplanes", "3", "-o", str(out))
        assert atlases_equal(load_atlas(out), generic_arrangement(2, 3))


class TestParserReuse:
    """One parser serves every call in a process; no call sees another's
    arguments."""

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_an_omitted_flag_is_unset_after_a_call_that_set_it(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "_run_compute", lambda args: seen.append(args) or 0)
        base = ["compute", "--family", "triangle", "--complex", "log"]
        assert main([*base, "--degree", "1"]) == 0
        assert main(base) == 0
        assert [args.degree for args in seen] == [1, None]

    def test_a_valid_call_after_an_argument_error(self, capsys):
        args = ("compute", "--family", "triangle", "--complex", "log")
        before = run(capsys, *args)
        with pytest.raises(SystemExit) as info:
            main([*args, "--degree", "x"])
        assert info.value.code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err
        assert run(capsys, *args) == before
        assert before[0] == 0 and before[1].startswith("table log")


# documents written by `gen`, read back through --config, against the same
# arrangement built in-process through --family generic
CONFIG_CASES = [(3, 5, selector) for selector in SELECTORS] + [
    (4, 7, selector) for selector in ("log", "D", "XD")
]


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    paths = {}

    def document(dim, hyperplanes):
        if (dim, hyperplanes) not in paths:
            path = tmp_path_factory.mktemp("gen") / f"generic_{dim}_{hyperplanes}.json"
            argv = ["gen", "--dim", str(dim), "--hyperplanes", str(hyperplanes)]
            assert main([*argv, "-o", str(path)]) == 0
            paths[(dim, hyperplanes)] = path
        return paths[(dim, hyperplanes)]

    return document


@pytest.mark.parametrize("dim, hyperplanes, selector", CONFIG_CASES)
def test_config_document_matches_family(generated, capsys, dim, hyperplanes, selector):
    tail = ("--complex", selector, "--format", "json")
    path = generated(dim, hyperplanes)
    from_document = run(capsys, "compute", "--config", str(path), *tail)
    sizes = ("--dim", str(dim), "--hyperplanes", str(hyperplanes))
    assert from_document == run(capsys, "compute", "--family", "generic", *sizes, *tail)
    assert from_document[0] == 0 and from_document[2] == ""
    assert json.loads(from_document[1])["complex"] == selector
