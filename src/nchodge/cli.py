"""Command line front end: generate atlases, compute tables, run suites.

Exit codes: 0 success, 1 failed verification check, 2 invalid input,
3 violated internal invariant (a differential that does not square to zero
or a product that is not a chain map).  All JSON output is sorted and
timestamp-free, so identical configurations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .atlas import StrataAtlas, generic_arrangement
from .complexes import build
from .errors import BadParams, CompositionNonzero, NCHodgeError, NotChainMap
from .fixtures import BUILTIN_NAMES, builtin_atlas
from .schema import dumps_atlas, load_atlas
from .tables import MixedHodgeTable, compute_table
from .verify import SUITES, run_suite


@functools.cache  # parse_args keeps no state between calls
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nc-hodge",
        description="Mixed Hodge tables of smooth varieties with a normal "
        "crossing divisor, from a combinatorial strata atlas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an atlas document")
    gen.add_argument("--family", default="generic", help="generator family")
    gen.add_argument("--dim", type=int, help="ambient dimension")
    gen.add_argument("--hyperplanes", type=int, help="number of components")
    gen.add_argument("-o", "--output", help="output path (default stdout)")

    compute = sub.add_parser("compute", help="compute one table")
    _atlas_flags(compute)
    compute.add_argument(
        "--complex", dest="selector", required=True, help="complex selector"
    )
    compute.add_argument("--degree", type=int, help="only print this degree")
    compute.add_argument("--format", choices=("text", "json"), default="text")
    compute.add_argument("-o", "--output", help="output path (default stdout)")

    verify = sub.add_parser("verify", help="run a verification suite")
    _atlas_flags(verify)
    verify.add_argument("--suite", required=True, help=f"one of {', '.join(SUITES)}")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--degree-bound", type=int, default=2, help="coefficient degree bound"
    )
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("-o", "--output", help="output path (default stdout)")
    return parser


def _atlas_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="path to an atlas document")
    sub.add_argument(
        "--family",
        help=f"builtin family: generic, or one of {', '.join(BUILTIN_NAMES)}",
    )
    sub.add_argument("--dim", type=int, help="ambient dimension (generic family)")
    sub.add_argument(
        "--hyperplanes", type=int, help="number of components (generic family)"
    )


def _load(args) -> StrataAtlas:
    if args.config:
        return load_atlas(args.config)
    if args.family:
        name = args.family.strip().lower()
        if name == "generic":
            if args.dim is None or args.hyperplanes is None:
                raise BadParams("generic family needs --dim and --hyperplanes")
            return generic_arrangement(args.dim, args.hyperplanes)
        if name in BUILTIN_NAMES:
            return builtin_atlas(name)
        raise BadParams(f"unknown family {args.family!r}")
    raise BadParams("no atlas: pass --config PATH or --family NAME")


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _table_text(table: MixedHodgeTable, degree: int | None) -> str:
    if degree is None:
        return table.to_text() + "\n"
    lines = [f"table {table.label}, degree {degree}"]
    for q, ab, d in table.entries(degree):
        lines.append(f"  ({degree},({ab[0]},{ab[1]}),{d}) weight {q}")
    if len(lines) == 1:
        lines.append("  (zero)")
    return "\n".join(lines) + "\n"


def _json_dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _run_gen(args) -> int:
    if args.family.strip().lower() != "generic":
        raise BadParams("gen supports the generic family only")
    if args.dim is None or args.hyperplanes is None:
        raise BadParams("gen needs --dim and --hyperplanes")
    atlas = generic_arrangement(args.dim, args.hyperplanes)
    _emit(dumps_atlas(atlas), args.output)
    return 0


def _run_compute(args) -> int:
    atlas = _load(args)
    table = compute_table(build(atlas, args.selector))
    if args.format == "json":
        summary = table.summary()
        if args.degree is not None:
            summary = {
                str(args.degree): summary.get(
                    str(args.degree), {"betti": 0, "blocks": []}
                )
            }
        payload = {
            "format": "nc-hodge-table/1",
            "complex": table.label,
            "table": summary,
        }
        _emit(_json_dumps(payload), args.output)
    else:
        _emit(_table_text(table, args.degree), args.output)
    return 0


def _run_verify(args) -> int:
    atlas = None
    if args.config or args.family:
        atlas = _load(args)
    suite = args.suite.strip().lower()
    if suite in SUITES and suite != "logforms" and atlas is None:
        raise BadParams(f"suite {suite!r} needs --config or --family")
    report = run_suite(
        suite, atlas=atlas, seed=args.seed, degree_bound=args.degree_bound
    )
    if args.format == "json":
        payload = {
            "format": "nc-hodge-report/1",
            "suite": suite,
            "seed": args.seed,
            "ok": report.ok,
            "checks": report.to_json_dict()["checks"],
        }
        _emit(_json_dumps(payload), args.output)
    else:
        _emit(str(report) + f"\nseed {args.seed}\n", args.output)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _run_gen(args)
        if args.command == "compute":
            return _run_compute(args)
        return _run_verify(args)
    except (CompositionNonzero, NotChainMap) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except NCHodgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
