"""Serialization of strata atlases to and from JSON ("nc-hodge/1").

The layout mirrors the in-memory atlas: a list of component names, one object
per stratum (indices, label, dimension, Hodge slice dimensions, the
multiplication tensors, unit and fundamental class), restriction and Gysin
blocks per covering pair, and the divisor classes.  All rationals are
strings ("-3/2", "0.5", "7"), so files round-trip exactly; an exponent
("1e3") is an error, as its few bytes can spell a huge integer.  Stratum
references use the printable key form from atlas.key_to_string: "0,2" or
"0,2|East", with the ambient space as "".  Two keys of one object that
parse equal (" 0,0,0" and "0,0,0") are an error at the second, and so is a
key spelled twice, which plain `json.loads` would keep the last of.  One load
parses each distinct string once, through tables that load alone owns
(`_Parsed`): rational string -> value, an int when integral (matrices take
it as is, vectors as a Fraction); stratum key string -> StratumKey; slice
key string "j,a,b" -> (j, a, b); a matrix or vector literal of strings only
-> one immutable RationalMatrix or tuple, shared by all that spell it.  Any
other literal is read on its own: 1, 1.0 and True hash alike, but no string
equals them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .atlas import (
    BlockMap,
    StrataAtlas,
    Stratum,
    StratumKey,
    key_from_string,
    key_to_string,
)
from .errors import BadParams, BidegreeError, DimensionMismatch, NCHodgeError, SchemaError
from .linalg import RationalMatrix, Vector, _frac, int_first
from .rings import PureHodgeRing, SliceKey

FORMAT = "nc-hodge/1"


def _require(data: dict, key: str, kind, where: str):
    if key not in data:
        raise SchemaError(f"{where}: missing field {key!r}")
    value = data[key]
    # a JSON boolean loads as a bool, which Python counts as an int
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaError(f"{where}: field {key!r} has the wrong type")
    return value


def _matrix_to_json(mat: RationalMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in mat.rows]


class _Parsed:
    """The tables of one load; the module docstring says what each holds."""

    def __init__(self):
        self.rationals: dict[str, int | Fraction] = {}
        self.strata: dict[str, StratumKey] = {}
        self.slices: dict[str, SliceKey] = {}
        self.matrices: dict[tuple[tuple[str, ...], ...], RationalMatrix] = {}
        self.vectors: dict[tuple[tuple[str, ...]], Vector] = {}


def _rational(entry, parsed: _Parsed) -> int | Fraction:
    """One matrix or vector entry, integer-first, parsed once per load."""
    if type(entry) is not str:
        if type(entry) is bool:
            raise TypeError(f"cannot coerce {entry!r} to an exact rational")
        return int_first(_frac(entry))
    value = parsed.rationals.get(entry)
    if value is None:
        if "e" in entry or "E" in entry:
            raise ValueError(f"exponent in rational {entry!r}")
        value = parsed.rationals[entry] = int_first(Fraction(entry))
    return value


def _literal(table: dict, rows: tuple, where: str, build):
    """`build()`, failing as a SchemaError at `where`; kept if `rows` is all str."""
    try:  # no stored key holds a list entry, which is unhashable
        return table[rows]
    except (KeyError, TypeError):
        pass
    try:
        value = build()
    except (ValueError, ZeroDivisionError, TypeError, NCHodgeError) as exc:
        raise SchemaError(f"{where}: {exc}") from None
    if all(type(x) is str for row in rows for x in row):
        table[rows] = value
    return value


def _matrix_from_json(value, where: str, parsed: _Parsed) -> RationalMatrix:
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(row, list) and row for row in value)
    ):
        raise SchemaError(f"{where}: matrices must be nonempty lists of rows")
    return _literal(
        parsed.matrices, tuple(map(tuple, value)), where,
        lambda: RationalMatrix([[_rational(x, parsed) for x in row] for row in value]),
    )


def _vector_from_json(value, where: str, parsed: _Parsed) -> Vector:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: vectors must be lists")
    return _literal(
        parsed.vectors, (tuple(value),), where,
        lambda: tuple(_frac(_rational(x, parsed)) for x in value),
    )


def _slice_key_from_string(text: str, where: str, parsed: _Parsed) -> SliceKey:
    key = parsed.slices.get(text)
    if key is None:
        try:  # a wrong number of parts fails to unpack, also a ValueError
            j, a, b = map(int, text.split(","))
        except ValueError:
            raise SchemaError(f"{where}: bad slice key {text!r}") from None
        key = parsed.slices[text] = (j, a, b)
    return key


def _stratum_key(text: str, where: str, parsed: _Parsed) -> StratumKey:
    key = parsed.strata.get(text)
    if key is None:
        try:
            key = parsed.strata[text] = key_from_string(text)
        except BadParams as exc:
            raise SchemaError(f"{where}: {exc}") from None
    return key


def _blocks_to_json(blocks: BlockMap) -> dict:
    return {
        f"{j},{a},{b}": _matrix_to_json(mat)
        for (j, (a, b)), mat in sorted(blocks.items())
        if mat.nrows > 0 and mat.ncols > 0
    }


def _maps_to_json(maps: dict[tuple[StratumKey, StratumKey], BlockMap]) -> list:
    return [
        {"from": key_to_string(a), "to": key_to_string(b), "blocks": _blocks_to_json(m)}
        for (a, b), m in sorted(maps.items(), key=lambda item: item[0])
    ]


def _blocks_from_json(value, where: str, parsed: _Parsed) -> BlockMap:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: blocks must be an object")
    out: BlockMap = {}
    for key, mat in value.items():
        j, a, b = _slice_key_from_string(key, where, parsed)
        if (j, (a, b)) in out:
            raise SchemaError(f"{where}: duplicate block key {key!r}")
        out[(j, (a, b))] = _matrix_from_json(mat, f"{where}[{key}]", parsed)
    return out


def _stratum_to_json(stratum: Stratum) -> dict:
    ring = stratum.ring
    hodge = {
        str(j): [[a, b, d] for (a, b), d in ring.slices(j)] for j in ring.degrees()
    }
    mult = {}
    for (left, right), tensors in sorted(ring.mult.items()):
        key = f"{left[0]},{left[1]},{left[2]}|{right[0]},{right[1]},{right[2]}"
        sheets = [_matrix_to_json(mat) for mat in tensors]
        if any(mat.nrows > 0 and not mat.is_zero() for mat in tensors):
            mult[key] = sheets
    return {
        "indices": list(stratum.indices),
        "label": stratum.label,
        "dimension": stratum.dim,
        "hodge": hodge,
        "mult": mult,
        "unit": [str(x) for x in ring.unit],
        "fundamental": [str(x) for x in ring.fundamental],
    }


def _ring_from_json(data: dict, where: str, parsed: _Parsed) -> PureHodgeRing:
    dim = _require(data, "dimension", int, where)
    hodge_raw = _require(data, "hodge", dict, where)
    hodge: dict[int, dict[tuple[int, int], int]] = {}
    for jtext, slices in hodge_raw.items():
        try:
            j = int(jtext)
        except ValueError:
            raise SchemaError(f"{where}: bad degree key {jtext!r}") from None
        if j in hodge:
            raise SchemaError(f"{where}: duplicate degree key {jtext!r}")
        types = hodge[j] = {}
        if not isinstance(slices, list):
            raise SchemaError(f"{where}: hodge[{jtext}] must be a list")
        for entry in slices:
            if not (
                isinstance(entry, list)
                and len(entry) == 3
                and all(type(x) is int for x in entry)
            ):
                raise SchemaError(f"{where}: bad hodge entry {entry!r}")
            a, b, d = entry
            if (a, b) in types:
                raise SchemaError(f"{where}: hodge[{jtext}] repeats type ({a}, {b})")
            types[(a, b)] = d
    hodge = {j: types for j, types in hodge.items() if types}  # [] adds no degree
    mult_raw = data.get("mult", {})
    if not isinstance(mult_raw, dict):
        raise SchemaError(f"{where}: mult must be an object")
    mult = {}
    for key, sheets in mult_raw.items():
        halves = key.split("|")
        if len(halves) != 2:
            raise SchemaError(f"{where}: bad mult key {key!r}")
        left = _slice_key_from_string(halves[0], where, parsed)
        right = _slice_key_from_string(halves[1], where, parsed)
        if (left, right) in mult:
            raise SchemaError(f"{where}: duplicate mult key {key!r}")
        if not isinstance(sheets, list):
            raise SchemaError(f"{where}: mult[{key}] must be a list")
        mult[(left, right)] = [
            _matrix_from_json(sheet, f"{where}.mult[{key}]", parsed)
            for sheet in sheets
        ]
    unit, fundamental = (
        _vector_from_json(_require(data, name, list, where), f"{where}.{name}", parsed)
        for name in ("unit", "fundamental")
    )
    try:
        return PureHodgeRing(
            dim=dim, hodge=hodge, mult=mult, unit=unit, fundamental=fundamental
        )
    except (BidegreeError, DimensionMismatch) as exc:  # a ring axiom, named by stratum
        raise SchemaError(f"{where}: {exc}") from exc


def atlas_to_json(atlas: StrataAtlas) -> dict:
    strata = [_stratum_to_json(atlas.strata[key]) for key in atlas.keys_sorted()]
    classes = [
        {
            "component": atlas.components[a],
            "stratum": key_to_string(skey),
            "class": [str(x) for x in cls],
        }
        for (a, skey), cls in sorted(atlas.divisor_classes.items())
        if len(cls) > 0
    ]
    return {
        "format": FORMAT,
        "components": list(atlas.components),
        "strata": strata,
        "restrictions": _maps_to_json(atlas.restrictions),
        "gysin": _maps_to_json(atlas.gysin),
        "divisor_classes": classes,
    }


def atlas_from_json(data) -> StrataAtlas:
    if not isinstance(data, dict):
        raise SchemaError("top level must be an object")
    fmt = data.get("format")
    if fmt != FORMAT:
        raise SchemaError(f"unsupported format {fmt!r}, expected {FORMAT!r}")
    components = _require(data, "components", list, "top level")
    if not all(isinstance(c, str) for c in components):
        raise SchemaError("component names must be strings")
    if len(set(components)) != len(components):
        raise SchemaError("component names must be distinct")
    strata_raw = _require(data, "strata", list, "top level")
    parsed = _Parsed()
    strata: list[Stratum] = []
    for i, entry in enumerate(strata_raw):
        where = f"strata[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: must be an object")
        indices_raw = _require(entry, "indices", list, where)
        if not all(type(x) is int for x in indices_raw):
            raise SchemaError(f"{where}: indices must be integers")
        label = entry.get("label", "")
        if not isinstance(label, str):
            raise SchemaError(f"{where}: label must be a string")
        ring = _ring_from_json(entry, where, parsed)
        strata.append(Stratum(indices=tuple(indices_raw), label=label, ring=ring))

    def read_maps(field: str):
        raw = _require(data, field, list, "top level")
        out = {}
        for i, entry in enumerate(raw):
            where = f"{field}[{i}]"
            if not isinstance(entry, dict):
                raise SchemaError(f"{where}: must be an object")
            from_key = _stratum_key(_require(entry, "from", str, where), where, parsed)
            to_key = _stratum_key(_require(entry, "to", str, where), where, parsed)
            blocks = _blocks_from_json(entry.get("blocks", {}), where, parsed)
            pair = (from_key, to_key)
            if pair in out:
                raise SchemaError(f"{where}: duplicate map {pair}")
            out[pair] = blocks
        return out

    restrictions = read_maps("restrictions")
    gysin = read_maps("gysin")

    classes_raw = data.get("divisor_classes", [])
    if not isinstance(classes_raw, list):
        raise SchemaError("divisor_classes must be a list")
    divisor_classes = {}
    name_to_index = {name: i for i, name in enumerate(components)}
    for i, entry in enumerate(classes_raw):
        where = f"divisor_classes[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: must be an object")
        name = _require(entry, "component", str, where)
        if name not in name_to_index:
            raise SchemaError(f"{where}: unknown component {name!r}")
        skey = _stratum_key(_require(entry, "stratum", str, where), where, parsed)
        cls = _vector_from_json(_require(entry, "class", list, where), where, parsed)
        key = (name_to_index[name], skey)
        if key in divisor_classes:
            raise SchemaError(f"{where}: duplicate divisor class {key}")
        divisor_classes[key] = cls

    return StrataAtlas(
        components=tuple(components),
        strata=strata,
        restrictions=restrictions,
        gysin=gysin,
        divisor_classes=divisor_classes,
    )


def dumps_atlas(atlas: StrataAtlas) -> str:
    return json.dumps(atlas_to_json(atlas), indent=2, sort_keys=True) + "\n"


def save_atlas(atlas: StrataAtlas, path) -> None:
    Path(path).write_text(dumps_atlas(atlas), encoding="utf-8")


def _distinct_keys(pairs: list) -> dict:
    """`object_pairs_hook` for one JSON object: a key spelled twice is an error."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise SchemaError(f"invalid JSON: duplicate key {key!r}")
        out[key] = value
    return out


def load_atlas(path) -> StrataAtlas:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"atlas document is not UTF-8: {exc}") from None
    try:
        sizes: list[int] = []  # each key takes one colon, a string may add more
        data = json.loads(text, object_hook=lambda obj: sizes.append(len(obj)) or obj)
        if sum(sizes) != text.count(":"):  # a key was dropped, or a string holds a colon
            data = json.loads(text, object_pairs_hook=_distinct_keys)
    except ValueError as exc:  # a JSONDecodeError, or an int of too many digits
        raise SchemaError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    return atlas_from_json(data)


def atlases_equal(left: StrataAtlas, right: StrataAtlas) -> bool:
    return atlas_to_json(left) == atlas_to_json(right)
