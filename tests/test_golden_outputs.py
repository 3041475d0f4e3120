"""Every command of the frozen corpus in tests/golden_outputs.json still
prints the same bytes and exits with the same code.

Regenerate the corpus with `python3 tools/make_golden_outputs.py` only when
an output is meant to change.
"""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "make_golden_outputs.py"
_spec = importlib.util.spec_from_file_location("make_golden_outputs", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

CORPUS = json.loads(golden.GOLDEN.read_text())["commands"]


def test_corpus_covers_every_command():
    assert [entry["command"] for entry in CORPUS] == golden.commands()


def test_tool_loads_from_a_bare_checkout(tmp_path):
    """The tool finds the checkout's own `src/`: loaded through
    `runpy.run_path` (which does not call `main`) from a copy of `tools/` and
    `src/`, with no PYTHONPATH and no site-packages (`-S`, so an installed
    package cannot stand in), its `commands()` are the corpus's."""
    root = _TOOL.parent.parent
    for part in ("tools", "src"):
        shutil.copytree(root / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    script = (
        "import json, runpy; "
        "tool = runpy.run_path('tools/make_golden_outputs.py'); "
        "print(json.dumps(tool['commands']()))"
    )
    result = subprocess.run([sys.executable, "-S", "-c", script], cwd=tmp_path, env=env,
                            capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert json.loads(result.stdout) == [entry["command"] for entry in CORPUS]


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: entry["command"])
def test_output_is_unchanged(entry):
    want = {key: value for key, value in entry.items() if key != "command"}
    assert golden.run_command(entry["command"]) == want
