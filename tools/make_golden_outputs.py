"""Regenerate tests/golden_outputs.json, the frozen corpus of CLI outputs.

Run from the repository root:

    python3 tools/make_golden_outputs.py

Each command runs in-process through `nchodge.cli.main`; the corpus keeps its
exit code and the sha256 of its stdout and stderr.  The commands are `compute`
for every selector, `sslog` and every `nbhd:<key>` in both formats, plus
`verify --suite all --seed 7`, on the four fixtures and two generic
arrangements, plus the `fujiki`, `les` and `cup` suites on the arrangement
with an empty divisor (each exits 2), and one `gen`.  Five commands run the
atlas-free log-forms suite: `verify --suite logforms --seed S` for S in 0, 1
and 23, and `verify --suite logforms --seed 0 --degree-bound B` for B in 1
and 3.  The commands above build their atlas from `--family`; so that the
document reader is covered too, `compute --config fixtures/<name>.json` runs
every selector in json on the four committed fixture documents, and one
larger `compute --family generic --dim 3 --hyperplanes 5 --complex XD-tilde`
follows.  Five more follow: `verify --family generic --dim 3
--hyperplanes 4 --suite les --format json` and the same with `--suite
fujiki`, `--suite cup` and `--suite consistency`, an arrangement whose cone
slots hold many terms, and `verify --family generic --dim 4 --hyperplanes 7
--suite les --format json`, the largest run of the sequence checks.  Two
more pin the semisimplicial log builders on the largest rung:
`compute --family generic --dim 4 --hyperplanes 7 --complex XD-tilde
--format json` and the same for `locD-tilde`.  Every command runs from the
repository root.  tests/test_golden_outputs.py reruns them and compares.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = HERE / "tests" / "golden_outputs.json"

# the checkout's own package, so the script runs from a bare checkout
sys.path.insert(0, str(HERE / "src"))

from nchodge import (  # noqa: E402
    BUILTIN_NAMES,
    SELECTORS,
    builtin_atlas,
    cli,
    generic_arrangement,
    key_to_string,
)

EMPTY_DIVISOR = "--family generic --dim 2 --hyperplanes 0"
ATLAS_FLAGS = tuple(f"--family {name}" for name in BUILTIN_NAMES) + (
    EMPTY_DIVISOR,
    "--family generic --dim 2 --hyperplanes 4",
)


def _atlas(flags: str):
    words = flags.split(" ")
    if words[1] == "generic":
        return generic_arrangement(int(words[3]), int(words[5]))
    return builtin_atlas(words[1])


def commands() -> list[str]:
    """Every command of the corpus, as a space-separated argument list."""
    out = ["gen --family generic --dim 3 --hyperplanes 4"]
    for flags in ATLAS_FLAGS:
        keys = _atlas(flags).keys_sorted()
        selectors = [*SELECTORS, "sslog", *(f"nbhd:{key_to_string(k)}" for k in keys)]
        for selector in selectors:
            for fmt in ("text", "json"):
                out.append(f"compute {flags} --complex {selector} --format {fmt}")
        out.append(f"verify {flags} --suite all --seed 7 --format json")
    for suite in ("fujiki", "les", "cup"):
        out.append(f"verify {EMPTY_DIVISOR} --suite {suite}")
    for seed in (0, 1, 23):
        out.append(f"verify --suite logforms --seed {seed}")
    for bound in (1, 3):
        out.append(f"verify --suite logforms --seed 0 --degree-bound {bound}")
    for name in BUILTIN_NAMES:
        for selector in SELECTORS:
            out.append(
                f"compute --config fixtures/{name}.json --complex {selector} "
                "--format json"
            )
    out.append(
        "compute --family generic --dim 3 --hyperplanes 5 --complex XD-tilde "
        "--format json"
    )
    for suite in ("les", "fujiki", "cup", "consistency"):
        out.append(
            f"verify --family generic --dim 3 --hyperplanes 4 --suite {suite} "
            "--format json"
        )
    out.append(
        "verify --family generic --dim 4 --hyperplanes 7 --suite les --format json"
    )
    for selector in ("XD-tilde", "locD-tilde"):
        out.append(
            f"compute --family generic --dim 4 --hyperplanes 7 --complex {selector} "
            "--format json"
        )
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_command(command: str) -> dict:
    """Exit code and output digests of one in-process `nc-hodge` call."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command.split(" "))
    finally:
        os.chdir(here)
    return {
        "exit": code,
        "stdout_sha256": _sha256(out.getvalue()),
        "stderr_sha256": _sha256(err.getvalue()),
    }


def main() -> None:
    corpus = {
        "format": "nc-hodge-golden-outputs/1",
        "commands": [
            {"command": command, **run_command(command)} for command in commands()
        ],
    }
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(corpus['commands'])} commands)")


if __name__ == "__main__":
    main()
