"""Every narrative script under `demos/` runs to completion and prints its
pinned bytes.

Each demo runs in a fresh interpreter with the checkout's `src` first on
`PYTHONPATH`, as README's demo block tells a reader without an install to
run them, so a demo that falls behind the library fails here.  Every demo
is deterministic, so its stdout is pinned by sha256: a change that must
leave the demos' output alone is checked here byte for byte.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "duality.py": "e3f6846c16445656ee70f36e94613bef58fe93df6bfdb672541738b3be2c89cf",
    "log_forms.py": "2d97de194efc30a379f39d8da2b109719207f24c1af5347dc53efa9d9f93771d",
    "neighborhoods.py": "a22c46870e526d4c57beaba85c51465b80999304900a6100720d42e6e3c08432",
    "tables.py": "5a3d2eaa2baf6b33abd798085ba6031e60f03857832d1f1a0cdf2ac7d5e409c1",
}


def test_demos_found():
    # an empty glob would leave the parametrized test below with no cases
    assert DEMOS
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]
