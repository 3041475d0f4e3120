"""Per-layer tracing of nc-hodge from outside the library.

The tracer rebinds public functions and methods of `nchodge` to wrappers
that record one span per call: layer, parent span, and the start and end of
the call.  A function imported by name into another module (`solve` in
`pairings`, for example) is rebound there too, so every call path is seen.
Nothing inside `src/` is changed, and `restore()` puts every binding back.

Counters (multiply-adds, cells, nonzeros, ...) are computed from the
operands after the call returns.  Each span keeps a gross interval that
includes that counting and a net interval that does not; a layer's self
time is its net duration minus the gross durations of its child spans, so
counting cost is charged to no layer.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _nnz_cols(rows, ncols: int) -> list[int]:
    out = [0] * ncols
    for row in rows:
        for j, x in enumerate(row):
            if x != 0:
                out[j] += 1
    return out


def _nnz_rows(rows) -> list[int]:
    return [sum(1 for x in row if x != 0) for row in rows]


def _count_matmul(tracer, args, result):
    a, b = args[0], args[1]
    tracer.add("madds", a.nrows * a.ncols * b.ncols)
    cols_a = tracer.profile(a, "cols", lambda: _nnz_cols(a.rows, a.ncols))
    rows_b = tracer.profile(b, "rows", lambda: _nnz_rows(b.rows))
    tracer.add("useful", sum(x * y for x, y in zip(cols_a, rows_b)))


def _count_apply(tracer, args, result):
    mat, vec = args[0], args[1]
    tracer.add("madds", mat.nrows * mat.ncols)
    cols = tracer.profile(mat, "cols", lambda: _nnz_cols(mat.rows, mat.ncols))
    tracer.add("useful", sum(c for c, x in zip(cols, vec) if x != 0))


def _count_reduce(tracer, args, result):
    mat = args[0]
    tracer.add("cells", mat.nrows * mat.ncols)
    tracer.add("nnz", sum(_nnz_rows(mat.rows)))


def _count_table(tracer, args, result):
    tracer.add("blocks", len(result.spaces))
    sizes = [result.family.rows[q].dim(m, ab) for (m, q, ab) in result.spaces]
    tracer.raise_max("max_block", max(sizes, default=0))


def _count_build(tracer, args, result):
    tracer.add("terms", len(result.terms))


def _count_load(tracer, args, result):
    tracer.add("bytes", os.path.getsize(args[0]))


@dataclass(frozen=True)
class Layer:
    """A traced callable: `owner` is a module name or `module:Class`."""

    name: str
    owner: str
    attr: str
    metrics: tuple[str, ...]
    counter: Callable | None = None
    # The end-to-end metric and workload this layer is expected to move.
    moves: str = ""


LAYERS = (
    Layer("linalg.matmul", "nchodge.linalg:RationalMatrix", "__matmul__",
          ("calls", "self_s", "madds", "useful_ratio"), _count_matmul,
          "wall_s on tables (the d*d check in cohomology_at); little on verify"),
    Layer("linalg.apply", "nchodge.linalg:RationalMatrix", "apply",
          ("calls", "self_s", "madds", "useful_ratio"), _count_apply,
          "wall_s on verify (cup suite); tables flat"),
    Layer("linalg.reduce", "nchodge.linalg", "reduce",
          ("calls", "self_s", "cells", "nnz_ratio", "under_solve_self_s"), _count_reduce,
          "wall_s and slowest_op_s on tables and verify (les suite)"),
    Layer("linalg.echelon_add", "nchodge.linalg:EchelonSpan", "add",
          ("calls", "self_s"), None,
          "wall_s and slowest_op_s on tables and verify (les suite)"),
    Layer("linalg.solve", "nchodge.linalg", "solve",
          ("calls", "total_s"), None, "wall_s on verify (les, fujiki); zero on tables"),
    Layer("pairings.express_in_space", "nchodge.pairings", "express_in_space",
          ("calls", "total_s"), None, "wall_s on verify (les, fujiki); zero on tables"),
    Layer("linalg.cohomology_at", "nchodge.linalg", "cohomology_at",
          ("calls", "total_s"), None, "wall_s on tables"),
    Layer("tables.compute_table", "nchodge.tables", "compute_table",
          ("calls", "total_s", "self_s", "blocks", "max_block"), _count_table,
          "wall_s on tables"),
    Layer("complexes.build", "nchodge.complexes", "build",
          ("calls", "total_s", "self_s", "terms"), _count_build,
          "a small share of wall_s on every workload"),
    Layer("complexes.cone_rows", "nchodge.complexes", "cone_rows",
          ("calls", "total_s"), None, "a small share of wall_s on every workload"),
    Layer("complexes.apply_d", "nchodge.complexes:RowFamily", "apply_d",
          ("calls", "self_s"), None, "a small share of wall_s on every workload"),
    Layer("pairings.evaluate", "nchodge.pairings:GradedPairing", "evaluate",
          ("calls", "self_s"), None, "wall_s on verify (cup suite)"),
    Layer("pairings.chain_map_check", "nchodge.pairings", "chain_map_check",
          ("calls", "total_s"), None, "wall_s on verify (cup suite)"),
    Layer("rings.mult_apply", "nchodge.rings:PureHodgeRing", "mult_apply",
          ("calls", "self_s"), None, "wall_s on verify (cup suite)"),
    Layer("logforms.exterior_d", "nchodge.logforms", "exterior_d",
          ("calls", "self_s"), None, "wall_s on verify (logforms suite) only"),
    Layer("logforms.wedge", "nchodge.logforms", "wedge",
          ("calls", "self_s"), None, "wall_s on verify (logforms suite) only"),
    Layer("logforms.residue", "nchodge.logforms", "residue",
          ("calls", "self_s"), None, "wall_s on verify (logforms suite) only"),
    Layer("logforms.claim_forward_check", "nchodge.logforms", "claim_forward_check",
          ("calls", "total_s"), None, "wall_s on verify (logforms suite) only"),
    Layer("logforms.claim_witness", "nchodge.logforms", "claim_witness",
          ("calls", "total_s"), None, "wall_s on verify (logforms suite) only"),
    Layer("schema.load_atlas", "nchodge.schema", "load_atlas",
          ("calls", "total_s", "bytes"), _count_load,
          "setup_s, and per-command overhead inside wall_s"),
    Layer("atlas.validate_atlas", "nchodge.atlas", "validate_atlas",
          ("calls", "total_s"), None, "setup_s"),
    Layer("cli.main", "nchodge.cli", "main",
          ("calls", "total_s"), None, "per-command overhead inside wall_s"),
)

TRACE_METRICS = ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s")

UNITS = {
    "calls": "count", "self_s": "s", "total_s": "s", "under_solve_self_s": "s",
    "madds": "count", "cells": "count", "blocks": "count", "max_block": "count",
    "terms": "count", "bytes": "bytes", "useful_ratio": "ratio", "nnz_ratio": "ratio",
}


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports."""
    out = [(f"{layer.name}.{m}", UNITS[m]) for layer in LAYERS for m in layer.metrics]
    return out + [(name, "s") for name in TRACE_METRICS]


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = sys.modules[module_name]
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Span recorder plus the bindings it replaced.  Use as a context
    manager: entering wraps every layer, leaving restores the originals."""

    def __init__(self):
        self.bindings: list[tuple[object, str, object]] = []
        # Layers, or their counters, that no longer fit the library; their
        # metrics would read 0, so the run reports itself incorrect.
        self.missing: set[str] = set()
        self.begin_pass()

    def begin_pass(self) -> None:
        """Drop the spans and counts recorded so far."""
        self.layer = array("i")
        self.parent = array("i")
        self.gross_start = array("d")
        self.start = array("d")
        self.end = array("d")
        self.gross_end = array("d")
        self.stack: list[int] = []
        self.counts: dict[tuple[int, str], float] = {}
        self._current = -1
        self._profiles: dict[int, tuple[object, dict]] = {}

    # -- counters ------------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        key = (self._current, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def raise_max(self, name: str, value: float) -> None:
        key = (self._current, name)
        self.counts[key] = max(self.counts.get(key, 0), value)

    def profile(self, obj, kind: str, compute):
        """Nonzero profile of an immutable operand, cached while the
        outermost traced call runs (the cache holds `obj`, so ids stay
        unique)."""
        entry = self._profiles.get(id(obj))
        if entry is None:
            entry = (obj, {})
            self._profiles[id(obj)] = entry
        cache = entry[1]
        if kind not in cache:
            cache[kind] = compute()
        return cache[kind]

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, index: int, layer: Layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gross_start = perf_counter()
            span = len(tracer.layer)
            tracer.layer.append(index)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            for arr in (tracer.gross_start, tracer.start, tracer.end, tracer.gross_end):
                arr.append(0.0)
            tracer.stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.gross_start[span] = gross_start
                tracer.start[span] = start
                tracer.end[span] = end
                tracer.gross_end[span] = end
            if layer.counter is not None:
                tracer._current = index
                try:
                    layer.counter(tracer, args, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    tracer.missing.add(f"{layer.name} counters")
            if not tracer.stack:
                tracer._profiles.clear()
            tracer.gross_end[span] = perf_counter()
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "nchodge" or name.startswith("nchodge.")
        ]
        for index, layer in enumerate(LAYERS):
            try:
                owner = _resolve_owner(layer.owner)
                original = owner.__dict__[layer.attr]
            except (KeyError, AttributeError):
                self.missing.add(layer.name)
                continue
            wrapper = self._wrap(index, layer, original)
            targets = [(owner, layer.attr)] + [
                (mod, name)
                for mod in modules
                for name, value in list(vars(mod).items())
                if value is original and (mod, name) != (owner, layer.attr)
            ]
            for target, name in targets:
                self.bindings.append((target, name, original))
                setattr(target, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        for target, name, original in reversed(self.bindings):
            setattr(target, name, original)

    def restored(self) -> bool:
        return all(
            vars(target)[name] is original for target, name, original in self.bindings
        )

    # -- passes --------------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since `begin_pass`."""
        n = len(self.layer)
        nlayers = len(LAYERS)
        child_gross = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_gross[p] += self.gross_end[i] - self.gross_start[i]
        calls = [0] * nlayers
        self_s = [0.0] * nlayers
        total_s = [0.0] * nlayers
        under_solve = 0.0
        solve = next(i for i, layer in enumerate(LAYERS) if layer.name == "linalg.solve")
        reduce_ = next(i for i, layer in enumerate(LAYERS) if layer.name == "linalg.reduce")
        for i in range(n):
            k = self.layer[i]
            duration = self.end[i] - self.start[i]
            own = duration - child_gross[i]
            calls[k] += 1
            self_s[k] += own
            if not self._has_ancestor(i, k):
                total_s[k] += duration
            if k == reduce_ and self._has_ancestor(i, solve):
                under_solve += own
        out: dict[str, float] = {}
        for k, layer in enumerate(LAYERS):
            counts = {name: v for (kk, name), v in self.counts.items() if kk == k}
            values = {
                "calls": calls[k],
                "self_s": self_s[k],
                "total_s": total_s[k],
                "under_solve_self_s": under_solve,
                "useful_ratio": _ratio(counts.get("useful", 0), counts.get("madds", 0)),
                "nnz_ratio": _ratio(counts.get("nnz", 0), counts.get("cells", 0)),
                **counts,
            }
            for metric in layer.metrics:
                out[f"{layer.name}.{metric}"] = values.get(metric, 0)
        return out

    def _has_ancestor(self, span: int, layer: int) -> bool:
        p = self.parent[span]
        while p >= 0:
            if self.layer[p] == layer:
                return True
            p = self.parent[p]
        return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
