"""Every name that perfbench/tracing.py binds in nchodge still exists.

The tracer rebinds each `LAYERS` entry by owner and attribute, its table
counter reads `family.rows[q].dim(m, ab)`, and its linalg counters read
`RationalMatrix.rows` as dense rows.  Without these checks a rename in
`src/` shows up only as an incorrect traced benchmark run.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

import nchodge.cli  # noqa: F401  (the tracer binds cli.main)
from nchodge.complexes import build
from nchodge.linalg import reduce, unit_vector
from nchodge.tables import compute_table
from nchodge.verify import suite_les

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


class StubTracer:
    """What the counters call on a tracer: `add` and an uncached `profile`."""

    def __init__(self):
        self.counts = {}

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def profile(self, obj, kind, compute):
        return compute()


def _differentials(atlas):
    family = build(atlas, "XD")
    for q, m, ab in family.slots():
        row = family.rows[q]
        yield row.d(m + 1, ab), row.d(m, ab)


def test_linalg_counters_read_library_matrices(triangle):
    pairs = list(_differentials(triangle))
    assert any(a.nrows and a.ncols and b.ncols for a, b in pairs)
    for a, b in pairs:
        tracer = StubTracer()
        tracing._count_matmul(tracer, (a, b), a @ b)
        assert tracer.counts["madds"] == a.nrows * a.ncols * b.ncols
        assert 0 <= tracer.counts["useful"] <= tracer.counts["madds"]
        for mat in (a, b):
            for j in range(mat.ncols):
                vec = unit_vector(mat.ncols, j)
                tracer = StubTracer()
                tracing._count_apply(tracer, (mat, vec), mat.apply(vec))
                assert tracer.counts["madds"] == mat.nrows * mat.ncols
            tracer = StubTracer()
            tracing._count_reduce(tracer, (mat,), reduce(mat))
            assert 0 <= tracer.counts["nnz"] <= tracer.counts["cells"]
            assert tracer.counts["cells"] == mat.nrows * mat.ncols


def test_reduce_under_solve_is_traced(triangle):
    with tracing.Tracer() as tracer:
        report = suite_les(triangle)
    assert tracer.restored() and not tracer.missing
    assert report.ok
    assert tracer.pass_metrics()["linalg.reduce.under_solve_self_s"] > 0
