"""Self-test of the benchmark's own machinery.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that tracing never changes what the program prints, that every
binding the tracer replaces is put back, that `solve` is traced both where
it is defined and where `pairings` imports it, that a layer the library no
longer matches fails the run, that the metric names agree
with BENCHMARK.json, and that every operation has a golden digest.
"""

from __future__ import annotations

import json
import random
import sys
import unittest

import run
import tracing
import workloads
from reference import HostSpeed

SMALL_DOCS = ("p1_2pts", "triangle", "elliptic_1pt")


def small_ops() -> list[workloads.Op]:
    """Cheap operations that still reach every traced layer."""
    ops = [
        op
        for workload in workloads.WORKLOADS
        for op in workloads.fixed_ops(workload, run.INPUTS)
        if op.doc in SMALL_DOCS
    ]
    return ops + [workloads.logforms_op(0)]


def setUpModule():
    sys.path.insert(0, str(run.ROOT / "src"))
    run.import_nchodge()
    for workload in workloads.WORKLOADS:
        workloads.write_docs(run.INPUTS, workloads.workload_docs(workload))


class TracingTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.golden = json.loads(run.GOLDEN.read_text())

    def test_traced_outputs_are_byte_identical(self):
        ops = small_ops()
        random.Random(0).shuffle(ops)
        plain = run.run_pass(ops, self.golden, HostSpeed())
        with tracing.Tracer() as tracer:
            run.load_docs(SMALL_DOCS)
            traced = run.run_pass(ops, self.golden, HostSpeed())
        metrics = tracer.pass_metrics()
        self.assertEqual(plain.failures, {})
        self.assertEqual(traced.failures, {})
        for op in ops:
            self.assertEqual(plain.results[op].stdout, traced.results[op].stdout, op.key)
            self.assertEqual(plain.results[op].exit_code, traced.results[op].exit_code)
        for layer in tracing.LAYERS:
            self.assertGreater(metrics[f"{layer.name}.calls"], 0, layer.name)
        self.assertEqual(run.trace_problems(tracer, plain, traced), [])

    def test_untraceable_layer_fails_the_run(self):
        gone = tracing.Layer("linalg.renamed", "nchodge.linalg", "no_such_function",
                             ("calls",))
        layers = tracing.LAYERS
        tracing.LAYERS = layers + (gone,)
        try:
            with tracing.Tracer() as tracer:
                pass
        finally:
            tracing.LAYERS = layers
        self.assertEqual(run.trace_problems(tracer, run.PassResult(), run.PassResult()),
                         ["linalg.renamed not traced; the library no longer matches it"])

    def test_bindings_are_restored(self):
        linalg = sys.modules["nchodge.linalg"]
        pairings = sys.modules["nchodge.pairings"]
        original = linalg.solve
        with tracing.Tracer() as tracer:
            self.assertIsNot(linalg.solve, original)
            self.assertIs(pairings.solve, linalg.solve)
        self.assertTrue(tracer.restored())
        self.assertIs(linalg.solve, original)
        self.assertIs(pairings.solve, original)
        self.assertIn((pairings, "solve", original), tracer.bindings)

    def test_self_time_excludes_children(self):
        with tracing.Tracer() as tracer:
            run.run_op(workloads.logforms_op(0))
        metrics = tracer.pass_metrics()
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        self.assertLessEqual(self_sum, metrics["cli.main.total_s"])


class SpecTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        per_layer = {(m["name"], m["unit"]) for m in spec["per_layer"]}
        self.assertEqual(per_layer, set(tracing.layer_metric_names()))
        end_to_end = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
        self.assertEqual(end_to_end, set(run.END_TO_END.items()))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))

    def test_every_operation_has_a_golden_digest(self):
        golden = json.loads(run.GOLDEN.read_text())
        for workload in workloads.WORKLOADS:
            for op in workloads.all_ops(workload, run.INPUTS):
                self.assertIn(op.key, golden)


if __name__ == "__main__":
    if not (run.ROOT / "src" / "nchodge" / "__init__.py").is_file():
        sys.exit("error: run from the root of a checkout")
    unittest.main()
