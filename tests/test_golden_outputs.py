"""Every command of the frozen corpus in tests/golden_outputs.json still
prints the same bytes and exits with the same code.

Regenerate the corpus with `python3 tools/make_golden_outputs.py` only when
an output is meant to change.
"""

import importlib.util
import json
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "make_golden_outputs.py"
_spec = importlib.util.spec_from_file_location("make_golden_outputs", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

CORPUS = json.loads(golden.GOLDEN.read_text())["commands"]


def test_corpus_covers_every_command():
    assert [entry["command"] for entry in CORPUS] == golden.commands()


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: entry["command"])
def test_output_is_unchanged(entry):
    want = {key: value for key, value in entry.items() if key != "command"}
    assert golden.run_command(entry["command"]) == want
