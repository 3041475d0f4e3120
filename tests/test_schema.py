import json
import os
import pathlib
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from nchodge.atlas import generic_arrangement, key_from_string, validate_atlas
from nchodge.cli import main
from nchodge.errors import DimensionMismatch, SchemaError
from nchodge.fixtures import BUILTIN_NAMES, builtin_atlas
from nchodge.linalg import RationalMatrix
from nchodge.schema import (
    FORMAT,
    atlas_from_json,
    atlas_to_json,
    atlases_equal,
    dumps_atlas,
    load_atlas,
    save_atlas,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


class TestRoundTrip:
    def test_builtins_round_trip(self):
        for name in BUILTIN_NAMES:
            a = builtin_atlas(name)
            b = atlas_from_json(atlas_to_json(a))
            assert atlases_equal(a, b), name
            assert validate_atlas(b).ok

    def test_generic_round_trip(self):
        a = generic_arrangement(2, 4)
        assert atlases_equal(a, atlas_from_json(atlas_to_json(a)))

    def test_dumps_is_deterministic(self):
        a = builtin_atlas("triangle")
        assert dumps_atlas(a) == dumps_atlas(builtin_atlas("triangle"))
        assert dumps_atlas(a).endswith("\n")

    def test_save_load(self, tmp_path):
        path = tmp_path / "a.json"
        a = builtin_atlas("p1_2pts")
        save_atlas(a, path)
        assert atlases_equal(a, load_atlas(path))

    def test_committed_fixtures_match_builtins(self):
        for name in BUILTIN_NAMES:
            path = FIXTURES / f"{name}.json"
            assert path.exists(), f"missing fixture file {path}"
            assert atlases_equal(load_atlas(path), builtin_atlas(name)), name

    def test_fixture_builder_runs_from_a_checkout(self, tmp_path):
        """`tools/make_fixtures.py` finds the checkout's own `src/`: run from a
        copy of `tools/` and `src/` with no PYTHONPATH and no site-packages
        (`-S`, so an installed package cannot stand in), it writes every
        committed fixture byte for byte."""
        for part in ("tools", "src"):
            shutil.copytree(
                FIXTURES.parent / part,
                tmp_path / part,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        result = subprocess.run(
            [sys.executable, "-S", str(tmp_path / "tools" / "make_fixtures.py")],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr.decode(errors="replace")
        written = sorted(p.name for p in (tmp_path / "fixtures").iterdir())
        assert written == sorted(p.name for p in FIXTURES.glob("*.json"))
        for name in written:
            got = (tmp_path / "fixtures" / name).read_bytes()
            assert got == (FIXTURES / name).read_bytes(), name

    def test_not_equal_to_other_fixture(self):
        assert not atlases_equal(builtin_atlas("p1_1pt"), builtin_atlas("p1_2pts"))


class TestSchemaErrors:
    def good(self):
        return atlas_to_json(builtin_atlas("p1_1pt"))

    def test_top_level_type(self):
        with pytest.raises(SchemaError):
            atlas_from_json([1, 2])

    def test_format_field(self):
        data = self.good()
        data["format"] = "nc-hodge/999"
        with pytest.raises(SchemaError):
            atlas_from_json(data)

    def test_missing_field(self):
        data = self.good()
        del data["strata"]
        with pytest.raises(SchemaError):
            atlas_from_json(data)

    def test_duplicate_components(self):
        data = self.good()
        data["components"] = ["P", "P"]
        with pytest.raises(SchemaError):
            atlas_from_json(data)

    def test_bad_rational(self):
        data = self.good()
        entry = data["divisor_classes"][0]
        entry["class"] = ["1/0"]
        with pytest.raises(SchemaError):
            atlas_from_json(data)

    def test_bad_matrix_shape(self):
        # parses as JSON but the block no longer matches the ring slices;
        # the atlas constructor rejects it
        data = self.good()
        blob = json.loads(json.dumps(data))
        for rest in blob["restrictions"]:
            for key in rest["blocks"]:
                rest["blocks"][key] = [["1"], ["2"]]
            break
        with pytest.raises((SchemaError, DimensionMismatch)):
            atlas_from_json(blob)

    def test_format_constant(self):
        assert self.good()["format"] == FORMAT


def _triangle_with(place: str, entry):
    """The triangle document with one rational entry replaced."""
    data = atlas_to_json(builtin_atlas("triangle"))
    if place == "mult":
        data["strata"][0]["mult"]["0,0,0|0,0,0"][0][0][0] = entry
    elif place == "restriction":
        data["restrictions"][0]["blocks"]["0,0,0"][0][0] = entry
    else:
        data["strata"][0]["unit"][0] = entry
    return data


WHERE = {
    "mult": "strata[0].mult[0,0,0|0,0,0]",
    "restriction": "restrictions[0][0,0,0]",
    "unit": "strata[0].unit",
}
BAD_ENTRIES = {
    "abc": "Invalid literal for Fraction: 'abc'",
    "1/0": "Fraction(1, 0)",
    1.5: "cannot coerce 1.5 to an exact rational",
    None: "cannot coerce None to an exact rational",
    True: "cannot coerce True to an exact rational",
    # Fraction would spend about a second on the nine bytes of 10**2000000
    "1e2000000": "exponent in rational '1e2000000'",
    "-0.5E1": "exponent in rational '-0.5E1'",
}


class TestRationalEntries:
    @pytest.mark.parametrize("place", sorted(WHERE))
    @pytest.mark.parametrize("entry", list(BAD_ENTRIES), ids=repr)
    def test_bad_entry_names_its_place(self, place, entry):
        with pytest.raises(SchemaError) as info:
            atlas_from_json(_triangle_with(place, entry))
        assert str(info.value) == f"{WHERE[place]}: {BAD_ENTRIES[entry]}"

    @pytest.mark.parametrize("place", sorted(WHERE))
    @pytest.mark.parametrize("entry", ["0.5", "-3/2", "7"])
    def test_plain_rationals_load(self, place, entry):
        atlas = atlas_from_json(_triangle_with(place, entry))
        assert atlas_to_json(atlas) == _triangle_with(place, str(Fraction(entry)))

    def test_fractions_load_reduced(self):
        data = _triangle_with("mult", "-3/2")
        data["restrictions"][0]["blocks"]["0,0,0"][0][0] = "2/4"
        data["strata"][0]["fundamental"][0] = "-3/2"
        atlas = atlas_from_json(data)
        ring = atlas.strata[atlas.x_key].ring
        sheet = ring.mult[((0, 0, 0), (0, 0, 0))][0]
        first = data["restrictions"][0]
        pair = (key_from_string(first["from"]), key_from_string(first["to"]))
        block = atlas.restrictions[pair][(0, (0, 0))]
        for value, want in (
            (sheet.rows[0][0], Fraction(-3, 2)),
            (block.rows[0][0], Fraction(1, 2)),
            (ring.fundamental[0], Fraction(-3, 2)),
        ):
            assert type(value) is Fraction and value == want
        again = atlas_to_json(atlas)
        assert again["strata"][0]["mult"]["0,0,0|0,0,0"][0][0][0] == "-3/2"
        assert again["restrictions"][0]["blocks"]["0,0,0"][0][0] == "1/2"
        assert again["strata"][0]["fundamental"][0] == "-3/2"


def _set_dimension(data):
    data["strata"][0]["dimension"] = True


def _set_indices(data):
    data["strata"][1]["indices"] = [False]


def _set_hodge(data):
    data["strata"][0]["hodge"]["0"][0] = [0, 0, True]


BOOLEAN_FIELDS = {
    "dimension": (_set_dimension, "strata[0]: field 'dimension' has the wrong type"),
    "indices": (_set_indices, "strata[1]: indices must be integers"),
    "hodge": (_set_hodge, "strata[0]: bad hodge entry [0, 0, True]"),
}


class TestBooleanFields:
    """A JSON boolean is no integer, though Python's bool is an int."""

    @pytest.mark.parametrize("field", sorted(BOOLEAN_FIELDS))
    def test_boolean_names_its_field(self, field):
        corrupt, message = BOOLEAN_FIELDS[field]
        data = atlas_to_json(builtin_atlas("p1_1pt"))
        corrupt(data)
        with pytest.raises(SchemaError) as info:
            atlas_from_json(data)
        assert str(info.value) == message

    @pytest.mark.parametrize("field", sorted(BOOLEAN_FIELDS))
    def test_cli_exits_two(self, field, tmp_path, capsys):
        corrupt, message = BOOLEAN_FIELDS[field]
        data = atlas_to_json(builtin_atlas("p1_1pt"))
        corrupt(data)
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(data))
        assert main(["compute", "--config", str(path), "--complex", "log"]) == 2
        assert message in capsys.readouterr().err


def _documents():
    for name in BUILTIN_NAMES:
        yield name, json.loads((FIXTURES / f"{name}.json").read_text())
    yield "generic_3_5", atlas_to_json(generic_arrangement(3, 5))


def _document_matrices(data, atlas):
    """Each matrix literal of `data` beside the matrix `atlas` loaded for it."""
    for entry in data["strata"]:
        ring = atlas.strata[(tuple(entry["indices"]), entry["label"])].ring
        for key, sheets in entry["mult"].items():
            left, right = (tuple(map(int, half.split(","))) for half in key.split("|"))
            for literal, loaded in zip(sheets, ring.mult[(left, right)], strict=True):
                yield literal, loaded
    for field in ("restrictions", "gysin"):
        maps = getattr(atlas, field)
        for entry in data[field]:
            pair = (key_from_string(entry["from"]), key_from_string(entry["to"]))
            for key, literal in entry["blocks"].items():
                j, a, b = map(int, key.split(","))
                yield literal, maps[pair][(j, (a, b))]


class TestLoadPath:
    @pytest.mark.parametrize("name, data", list(_documents()), ids=lambda x: x)
    def test_matrices_load_as_their_dense_entries(self, name, data):
        matrices = list(_document_matrices(data, atlas_from_json(data)))
        assert matrices
        for literal, loaded in matrices:
            dense = [[Fraction(x) for x in row] for row in literal]
            assert loaded == RationalMatrix(dense), name
            assert loaded.rows == tuple(map(tuple, dense)), name

    def test_ragged_matrix_names_its_place(self, tmp_path, capsys):
        data = atlas_to_json(builtin_atlas("triangle"))
        data["restrictions"][0]["blocks"]["0,0,0"] = [["1"], ["1", "2"]]
        message = "restrictions[0][0,0,0]: ragged rows in matrix literal"
        with pytest.raises(SchemaError) as info:
            atlas_from_json(data)
        assert str(info.value) == message
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(data))
        assert main(["compute", "--config", str(path), "--complex", "log"]) == 2
        assert message in capsys.readouterr().err

    def test_repeated_bad_stratum_key_is_reported_at_its_first_place(self):
        data = atlas_to_json(builtin_atlas("triangle"))
        data["restrictions"][1]["to"] = "2,1"
        data["gysin"][0]["from"] = "2,1"
        with pytest.raises(SchemaError) as info:
            atlas_from_json(data)
        assert str(info.value) == (
            "restrictions[1]: bad stratum key '2,1': indices must be sorted and unique"
        )


def _repeat_block(data):
    data["restrictions"][0]["blocks"][" 0,0,0"] = [["5"]]


def _repeat_mult(data):
    mult = data["strata"][0]["mult"]
    mult["0, 0,0|0,0,0"] = mult["0,0,0|0,0,0"]


def _repeat_degree(data):
    hodge = data["strata"][0]["hodge"]
    hodge["02"] = hodge["2"]


def _repeat_hodge_type(data):
    data["strata"][0]["hodge"]["2"].append([1, 1, 1])


REPEATED_KEYS = {
    "block": (_repeat_block, "restrictions[0]: duplicate block key ' 0,0,0'"),
    "mult": (_repeat_mult, "strata[0]: duplicate mult key '0, 0,0|0,0,0'"),
    "degree": (_repeat_degree, "strata[0]: duplicate degree key '02'"),
    "hodge": (_repeat_hodge_type, "strata[0]: hodge[2] repeats type (1, 1)"),
}


class TestRepeatedKeys:
    """Two keys that parse equal are an error at the second, not a silent
    overwrite by the later one."""

    @pytest.mark.parametrize("kind", sorted(REPEATED_KEYS))
    def test_second_key_is_named(self, kind):
        repeat, message = REPEATED_KEYS[kind]
        data = atlas_to_json(builtin_atlas("triangle"))
        repeat(data)
        with pytest.raises(SchemaError) as info:
            atlas_from_json(data)
        assert str(info.value) == message

    def test_an_empty_degree_loads_as_no_slices(self):
        data = atlas_to_json(builtin_atlas("triangle"))
        data["strata"][0]["hodge"]["6"] = []
        atlas = atlas_from_json(data)
        ring = atlas.strata[atlas.x_key].ring
        assert ring.hodge == {0: {(0, 0): 1}, 2: {(1, 1): 1}, 4: {(2, 2): 1}}

    @pytest.mark.parametrize("kind", sorted(REPEATED_KEYS))
    def test_cli_exits_two(self, kind, tmp_path, capsys):
        repeat, message = REPEATED_KEYS[kind]
        data = atlas_to_json(builtin_atlas("triangle"))
        repeat(data)
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(data))
        assert main(["compute", "--config", str(path), "--complex", "log"]) == 2
        assert message in capsys.readouterr().err


SPELLED_TWICE = {
    "block": (lambda data: data["gysin"][0]["blocks"], "0,0,0", [["2"]]),
    "mult": (lambda data: data["strata"][0]["mult"], "0,0,0|0,0,0", [[["2"]]]),
    "field": (lambda data: data, "components", ["H0", "H1", "H3"]),
}


class TestKeySpelledTwice:
    """A key written twice in one object, which plain `json.loads` would
    read as its last value, is an error naming the key."""

    @pytest.mark.parametrize("kind", sorted(SPELLED_TWICE))
    @pytest.mark.parametrize("argv", [
        ["compute", "--complex", "XD"],
        ["compute", "--complex", "log"],
        ["verify", "--suite", "les"],
    ])
    def test_cli_exits_two_naming_the_key(self, kind, argv, tmp_path, capsys):
        place, key, value = SPELLED_TWICE[kind]
        data = atlas_to_json(builtin_atlas("triangle"))
        assert key in place(data)
        place(data)["spelled-twice"] = value  # written after the first spelling
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(data).replace('"spelled-twice"', json.dumps(key)))
        assert main([*argv, "--config", str(path)]) == 2
        assert f"error: invalid JSON: duplicate key {key!r}\n" == capsys.readouterr().err


def _slice_dim(d):
    def edit(stratum):
        stratum["hodge"]["0"] = [[0, 0, d]]

    return edit, "nonpositive slice dim at (0, 0, 0)"  # (degree, a, b)


def _long_unit(stratum):
    stratum["unit"].append("0")


RING_ERRORS = {
    "zero slice dim": _slice_dim(0),
    "negative slice dim": _slice_dim(-1),
    "wrong-length unit": (_long_unit, "unit vector length"),
}


class TestRingErrorsNameTheirStratum:
    """A ring that breaks an axiom of PureHodgeRing is a SchemaError that
    names its stratum, as every other schema error names its place."""

    @pytest.mark.parametrize("index", [0, 2, 6])
    @pytest.mark.parametrize("kind", sorted(RING_ERRORS))
    def test_message_names_the_stratum(self, kind, index):
        edit, message = RING_ERRORS[kind]
        data = atlas_to_json(builtin_atlas("triangle"))
        edit(data["strata"][index])
        with pytest.raises(SchemaError) as info:
            atlas_from_json(data)
        assert str(info.value) == f"strata[{index}]: {message}"

    @pytest.mark.parametrize("kind", sorted(RING_ERRORS))
    def test_cli_exits_two(self, kind, tmp_path, capsys):
        edit, message = RING_ERRORS[kind]
        data = atlas_to_json(builtin_atlas("triangle"))
        edit(data["strata"][2])
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(data))
        assert main(["compute", "--config", str(path), "--complex", "log"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: strata[2]: {message}\n"


# Each literal below replaces the triangle document's second restriction
# (0,0,0) block or second stratum's unit, so it is read after the first one,
# a valid [["1"]] and ["1"] or, in a second run, [[1]] and [1]: the number 1
# hashes and compares equal to 1.0 and True, but no string does.
EARLIER = {"string": ("1", "1"), "int": (1, 1)}
LATER_MATRICES = {
    "[[1]]": ([[1]], None),
    "[[1.0]]": ([[1.0]], "cannot coerce 1.0 to an exact rational"),
    "[[true]]": ([[True]], "cannot coerce True to an exact rational"),
    "nested": ([["1", ["2"]]], "cannot coerce ['2'] to an exact rational"),
    "1/0": ([["1/0"]], "Fraction(1, 0)"),
    "x": ([["x"]], "Invalid literal for Fraction: 'x'"),
    "bare string": ("1", "matrices must be nonempty lists of rows"),
    "row of strings": (["1"], "matrices must be nonempty lists of rows"),
}
LATER_VECTORS = {
    "[1]": ([1], None),
    "[1.0]": ([1.0], "cannot coerce 1.0 to an exact rational"),
    "[true]": ([True], "cannot coerce True to an exact rational"),
    "nested": ([["1"]], "cannot coerce ['1'] to an exact rational"),
    "1/0": (["1/0"], "Fraction(1, 0)"),
    "x": (["x"], "Invalid literal for Fraction: 'x'"),
}


def _restriction_block(atlas, data, index):
    entry = data["restrictions"][index]
    pair = (key_from_string(entry["from"]), key_from_string(entry["to"]))
    return atlas.restrictions[pair][(0, (0, 0))]


class TestLiteralTables:
    """Each distinct all-string literal is built once per load; a literal
    holding any other entry is read on its own, with its own error."""

    @pytest.mark.parametrize("earlier", sorted(EARLIER))
    @pytest.mark.parametrize("name", list(LATER_MATRICES))
    def test_later_matrix_literal_keeps_its_outcome(self, earlier, name):
        literal, error = LATER_MATRICES[name]
        data = atlas_to_json(builtin_atlas("triangle"))
        data["restrictions"][0]["blocks"]["0,0,0"] = [[EARLIER[earlier][0]]]
        data["restrictions"][1]["blocks"]["0,0,0"] = literal
        if error is None:
            atlas = atlas_from_json(data)
            first, second = (_restriction_block(atlas, data, i) for i in (0, 1))
            assert second == first and second is not first
            return
        with pytest.raises(SchemaError) as info:
            atlas_from_json(data)
        assert str(info.value) == f"restrictions[1][0,0,0]: {error}"

    @pytest.mark.parametrize("earlier", sorted(EARLIER))
    @pytest.mark.parametrize("name", list(LATER_VECTORS))
    def test_later_vector_literal_keeps_its_outcome(self, earlier, name):
        literal, error = LATER_VECTORS[name]
        data = atlas_to_json(builtin_atlas("triangle"))
        data["strata"][0]["unit"] = [EARLIER[earlier][1]]
        data["strata"][1]["unit"] = literal
        if error is None:
            units = [s.ring.unit for s in atlas_from_json(data).strata.values()]
            assert units[1] == units[0] and units[1] is not units[0]
            return
        with pytest.raises(SchemaError) as info:
            atlas_from_json(data)
        assert str(info.value) == f"strata[1].unit: {error}"

    def test_equal_string_literals_load_as_one_object(self):
        atlas = atlas_from_json(atlas_to_json(builtin_atlas("triangle")))
        ring = atlas.strata[atlas.x_key].ring
        one = ring.mult[((0, 0, 0), (0, 0, 0))][0]
        blocks = [bm[(0, (0, 0))] for bm in atlas.restrictions.values()]
        assert blocks and all(block is one for block in blocks)
        vectors = [
            *(s.ring.unit for s in atlas.strata.values()),
            *(s.ring.fundamental for s in atlas.strata.values()),
            *atlas.divisor_classes.values(),
        ]
        assert all(v is ring.unit for v in vectors)
        rings = [s.ring for s in atlas.strata.values()]
        assert len({id(r) for r in rings}) == len(rings)
        assert len({id(r.mult) for r in rings}) == len(rings)
