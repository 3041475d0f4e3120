"""Serialization of strata atlases to and from JSON ("nc-hodge/1").

The layout mirrors the in-memory atlas: a list of component names, one object
per stratum (indices, label, dimension, Hodge slice dimensions, the
multiplication tensors, unit and fundamental class), restriction and Gysin
blocks per covering pair, and the divisor classes.  All rationals are
strings ("-3/2"), so files round-trip exactly; one load parses each distinct
string once, through a table owned by that load alone.  Stratum references
use the printable key form from atlas.key_to_string: "0,2" or "0,2|East",
with the ambient space as "".
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .atlas import (
    BlockMap,
    StrataAtlas,
    Stratum,
    key_from_string,
    key_to_string,
)
from .errors import BadParams, NCHodgeError, SchemaError
from .linalg import RationalMatrix, Vector, _frac
from .rings import PureHodgeRing

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


Parsed = dict[str, Fraction]  # rational string -> its value, for one load


def _rational(entry, parsed: Parsed) -> Fraction:
    """One matrix or vector entry; a string is parsed once per load."""
    if type(entry) is not str:
        if type(entry) is bool:
            raise TypeError(f"cannot coerce {entry!r} to an exact rational")
        return _frac(entry)
    value = parsed.get(entry)
    if value is None:
        value = parsed[entry] = Fraction(entry)
    return value


def _matrix_from_json(value, where: str, parsed: Parsed) -> RationalMatrix:
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(row, list) and row for row in value)
    ):
        raise SchemaError(f"{where}: matrices must be nonempty lists of rows")
    try:
        return RationalMatrix([[_rational(x, parsed) for x in row] for row in value])
    except (ValueError, ZeroDivisionError, TypeError, NCHodgeError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _vector_from_json(value, where: str, parsed: Parsed) -> Vector:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: vectors must be lists")
    try:
        return tuple(_rational(x, parsed) for x in value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _slice_key_to_string(j: int, ab) -> str:
    return f"{j},{ab[0]},{ab[1]}"


def _slice_key_from_string(text: str, where: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise SchemaError(f"{where}: bad slice key {text!r}")
    try:
        j, a, b = (int(p) for p in parts)
    except ValueError:
        raise SchemaError(f"{where}: bad slice key {text!r}") from None
    return j, (a, b)


def _blocks_to_json(blocks: BlockMap) -> dict:
    return {
        _slice_key_to_string(j, ab): _matrix_to_json(mat)
        for (j, ab), mat in sorted(blocks.items())
        if mat.nrows > 0 and mat.ncols > 0
    }


def _blocks_from_json(value, where: str, parsed: Parsed) -> BlockMap:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: blocks must be an object")
    out: BlockMap = {}
    for key, mat in value.items():
        j, ab = _slice_key_from_string(key, where)
        out[(j, ab)] = _matrix_from_json(mat, f"{where}[{key}]", parsed)
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


def _ring_from_json(data: dict, where: str, parsed: Parsed) -> PureHodgeRing:
    dim = _require(data, "dimension", int, where)
    hodge_raw = _require(data, "hodge", dict, where)
    hodge: dict[int, dict[tuple[int, int], int]] = {}
    for jtext, slices in hodge_raw.items():
        try:
            j = int(jtext)
        except ValueError:
            raise SchemaError(f"{where}: bad degree key {jtext!r}") from None
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
            hodge.setdefault(j, {})[(a, b)] = d
    mult_raw = data.get("mult", {})
    if not isinstance(mult_raw, dict):
        raise SchemaError(f"{where}: mult must be an object")
    mult = {}
    for key, sheets in mult_raw.items():
        halves = key.split("|")
        if len(halves) != 2:
            raise SchemaError(f"{where}: bad mult key {key!r}")
        left = _slice_key_from_string(halves[0], where)
        right = _slice_key_from_string(halves[1], where)
        if not isinstance(sheets, list):
            raise SchemaError(f"{where}: mult[{key}] must be a list")
        mult[
            ((left[0], left[1][0], left[1][1]), (right[0], right[1][0], right[1][1]))
        ] = [
            _matrix_from_json(sheet, f"{where}.mult[{key}]", parsed)
            for sheet in sheets
        ]
    unit = _vector_from_json(
        _require(data, "unit", list, where), f"{where}.unit", parsed
    )
    fundamental = _vector_from_json(
        _require(data, "fundamental", list, where), f"{where}.fundamental", parsed
    )
    return PureHodgeRing(
        dim=dim, hodge=hodge, mult=mult, unit=unit, fundamental=fundamental
    )


def atlas_to_json(atlas: StrataAtlas) -> dict:
    strata = [
        _stratum_to_json(atlas.strata[key]) for key in atlas.keys_sorted()
    ]
    restrictions = [
        {
            "from": key_to_string(skey),
            "to": key_to_string(tkey),
            "blocks": _blocks_to_json(blocks),
        }
        for (skey, tkey), blocks in sorted(
            atlas.restrictions.items(), key=lambda item: item[0]
        )
    ]
    gysin = [
        {
            "from": key_to_string(tkey),
            "to": key_to_string(skey),
            "blocks": _blocks_to_json(blocks),
        }
        for (tkey, skey), blocks in sorted(
            atlas.gysin.items(), key=lambda item: item[0]
        )
    ]
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
        "restrictions": restrictions,
        "gysin": gysin,
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
    parsed: Parsed = {}
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
            try:
                from_key = key_from_string(_require(entry, "from", str, where))
                to_key = key_from_string(_require(entry, "to", str, where))
            except BadParams as exc:
                raise SchemaError(f"{where}: {exc}") from None
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
        try:
            skey = key_from_string(_require(entry, "stratum", str, where))
        except BadParams as exc:
            raise SchemaError(f"{where}: {exc}") from None
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


def load_atlas(path) -> StrataAtlas:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"atlas document is not UTF-8: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    return atlas_from_json(data)


def atlases_equal(left: StrataAtlas, right: StrataAtlas) -> bool:
    return atlas_to_json(left) == atlas_to_json(right)
