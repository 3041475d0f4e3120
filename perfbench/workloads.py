"""Workloads of the nc-hodge benchmark: input documents, operations, oracles.

An operation is one `nc-hodge` command line run in-process through
`nchodge.cli.main`, on an atlas document written before timing starts.  The
seed only shuffles the order of operations inside a pass and picks the
`logforms` suite seeds; the program sees it as nothing but command-line input.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

# Every table selector of `nc-hodge compute`, fixed here so the benchmark does
# not follow a later change of the library's own list.
SELECTORS = ("X", "D", "log", "XD", "XD-tilde", "locD", "locD-tilde")

FIXTURES = ("p1_1pt", "p1_2pts", "triangle", "elliptic_1pt")

# Input documents: name -> (n, m) for a generic arrangement of m hyperplanes
# in P^n, or None for a fixture that is not such an arrangement.  The three
# arrangement fixtures carry their (n, m) so the Orlik-Solomon oracle applies.
DOCS = {
    "generic_3_5": (3, 5),
    "generic_3_4": (3, 4),
    "generic_4_7": (4, 7),
    "generic_2_4": (2, 4),
    "p1_1pt": (1, 1),
    "p1_2pts": (1, 2),
    "triangle": (2, 3),
    "elliptic_1pt": None,
}

# `verify --suite logforms` seeds come from this pool, so that every seed the
# benchmark can be given has a golden digest.
LOGFORMS_SEED_POOL = tuple(range(24))
LOGFORMS_PER_PASS = 3

WORKLOADS = {
    "tables": "compute --format json for every selector and nbhd:<key> on "
    "generic(3,5) and the four fixtures; dense matmul and reduce dominate, no solve",
    "verify": "cup, les, fujiki and logforms suites; apply under chain_map_check, "
    "reduce under solve and the log-forms engine, which tables never runs",
}


@dataclass(frozen=True)
class Op:
    """One command: `key` names its golden digest, `argv` is what runs."""

    key: str
    argv: tuple[str, ...]
    doc: str | None = None
    selector: str | None = None


def doc_path(inputs: Path, name: str) -> Path:
    return inputs / f"{name}.json"


def write_docs(inputs: Path, names) -> None:
    """Write the atlas documents with the program's own generators."""
    from nchodge import cli
    from nchodge.fixtures import builtin_atlas
    from nchodge.schema import dumps_atlas

    inputs.mkdir(parents=True, exist_ok=True)
    for name in names:
        path = doc_path(inputs, name)
        tmp = path.with_suffix(".tmp")
        if name in FIXTURES:
            tmp.write_text(dumps_atlas(builtin_atlas(name)))
        else:
            n, m = DOCS[name]
            argv = ["gen", "--dim", str(n), "--hyperplanes", str(m), "-o", str(tmp)]
            if cli.main(argv) != 0:
                raise RuntimeError(f"nc-hodge gen failed for {name}")
        tmp.replace(path)


def nbhd_keys(path: Path) -> list[str]:
    """Printable keys of every non-ambient stratum, read from the document."""
    keys = []
    for stratum in json.loads(path.read_text())["strata"]:
        indices = stratum["indices"]
        if not indices:
            continue
        text = ",".join(str(a) for a in indices)
        keys.append(f"{text}|{stratum['label']}" if stratum["label"] else text)
    return keys


def compute_op(inputs: Path, doc: str, selector: str) -> Op:
    argv = ("compute", "--config", str(doc_path(inputs, doc)),
            "--complex", selector, "--format", "json")
    return Op(f"compute {doc} {selector}", argv, doc, selector)


def verify_op(inputs: Path, doc: str, suite: str) -> Op:
    argv = ("verify", "--config", str(doc_path(inputs, doc)), "--suite", suite)
    return Op(f"verify {doc} {suite}", argv, doc)


def logforms_op(seed: int) -> Op:
    argv = ("verify", "--suite", "logforms", "--seed", str(seed))
    return Op(f"verify logforms seed={seed}", argv)


# `verify` documents: the cup suite runs on the first three, the les suite on
# all, and the fujiki suite on all but generic(4,7).
CUP_DOCS = ("generic_3_4", "elliptic_1pt", "triangle")
DUALITY_DOCS = ("triangle", "elliptic_1pt", "p1_2pts", "generic_2_4")


def workload_docs(workload: str) -> tuple[str, ...]:
    if workload == "tables":
        return ("generic_3_5",) + FIXTURES
    return ("generic_3_4", "generic_4_7", "elliptic_1pt", "triangle", "p1_2pts",
            "generic_2_4")


def fixed_ops(workload: str, inputs: Path) -> list[Op]:
    """The operations of one pass, except the seeded `logforms` ones."""
    if workload == "tables":
        return [
            compute_op(inputs, doc, sel)
            for doc in workload_docs("tables")
            for sel in SELECTORS
            + tuple(f"nbhd:{k}" for k in nbhd_keys(doc_path(inputs, doc)))
        ]
    ops = [verify_op(inputs, doc, "cup") for doc in CUP_DOCS]
    ops.append(verify_op(inputs, "generic_4_7", "les"))
    for doc in DUALITY_DOCS:
        ops += [verify_op(inputs, doc, "les"), verify_op(inputs, doc, "fujiki")]
    return ops


def draw_logforms_seeds(rng: random.Random) -> list[int]:
    return rng.sample(LOGFORMS_SEED_POOL, LOGFORMS_PER_PASS)


def pass_ops(workload: str, inputs: Path, rng: random.Random,
             logforms_seeds: list[int] | None = None) -> list[Op]:
    """One pass in a seeded order; `verify` runs the given `logforms` seeds,
    or draws fresh ones."""
    ops = fixed_ops(workload, inputs)
    if workload == "verify":
        seeds = draw_logforms_seeds(rng) if logforms_seeds is None else logforms_seeds
        ops += [logforms_op(s) for s in seeds]
    rng.shuffle(ops)
    return ops


def all_ops(workload: str, inputs: Path) -> list[Op]:
    """Every operation the workload can run, for recording golden digests."""
    ops = fixed_ops(workload, inputs)
    if workload == "verify":
        ops += [logforms_op(s) for s in LOGFORMS_SEED_POOL]
    return ops


# -- oracles independent of the golden digests ---------------------------------


def orlik_solomon_violation(table: dict, n: int, m: int) -> str | None:
    """H^k(U) of m generic hyperplanes in P^n: C(m-1, k) for k <= n, pure of
    weight 2k and type (k, k)."""
    expected = {
        str(k): {"betti": comb(m - 1, k),
                 "blocks": [{"dim": comb(m - 1, k), "type": [k, k], "weight": 2 * k}]}
        for k in range(n + 1)
        if comb(m - 1, k)
    }
    return None if table == expected else "log table breaks the Orlik-Solomon pattern"


def op_violation(op: Op, exit_code: int, stdout: str) -> str | None:
    """Oracle for a single operation."""
    if op.argv[0] == "verify":
        return None if exit_code == 0 else f"verify exited {exit_code}"
    if op.selector == "log" and DOCS.get(op.doc):
        n, m = DOCS[op.doc]
        return orlik_solomon_violation(json.loads(stdout)["table"], n, m)
    return None


MODEL_PAIRS = (("XD", "XD-tilde"), ("locD", "locD-tilde"))


def pair_violations(outputs: dict[Op, str]) -> dict[str, str]:
    """The two relative models, and the two local models, must agree blockwise
    on every document; a disagreement fails the `-tilde` operation."""
    tables = {
        (op.doc, op.selector): json.loads(stdout)["table"]
        for op, stdout in outputs.items()
        if op.argv[0] == "compute"
    }
    failed = {}
    for (doc, selector), table in tables.items():
        for plain, tilde in MODEL_PAIRS:
            other = tables.get((doc, plain))
            if selector == tilde and other is not None and other != table:
                failed[f"compute {doc} {tilde}"] = f"{tilde} differs from {plain} on {doc}"
    return failed
