"""Every name that perfbench/tracing.py binds in nchodge still exists.

The tracer rebinds each `LAYERS` entry by owner and attribute, and its table
counter reads `family.rows[q].dim(m, ab)`.  Without these checks a rename in
`src/` shows up only as an incorrect traced benchmark run.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from nchodge.complexes import build
from nchodge.tables import compute_table

_TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
# dataclasses resolve the module's annotations through sys.modules
sys.modules[_spec.name] = tracing
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("layer", tracing.LAYERS, ids=lambda layer: layer.name)
def test_layer_owner_has_attr(layer):
    module_name, _, class_name = layer.owner.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    # the tracer looks the attribute up in the owner's own namespace
    assert layer.attr in vars(owner), layer


def test_table_block_sizes_are_readable(triangle):
    table = compute_table(build(triangle, "XD"))
    assert table.spaces
    for m, q, ab in table.spaces:
        assert table.family.rows[q].dim(m, ab) >= table.spaces[(m, q, ab)].dim
