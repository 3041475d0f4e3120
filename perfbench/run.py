"""Run one workload of the nc-hodge benchmark and print its metrics.

Run from the root of a checkout (no install needed, `src/` is put on the
path):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and reports the per-layer metrics
plus the tracing overhead.  End-to-end times are scaled to a reference host
speed (see `reference.py`); `.perfbench/results/<workload>-seed<n>-trace0.json`
in the checkout keeps the result together with the times as measured and
the scale.  Per-layer times are as measured.  Every
operation's stdout and exit code are checked against `golden.json` and
against the oracles in `workloads.py`.  The last line of stdout is one JSON
object: {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from reference import PASS_EXPONENT, HostSpeed

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = BENCH_DIR / "golden.json"
INPUTS = ROOT / ".perfbench" / "inputs"
RESULTS = ROOT / ".perfbench" / "results"
# Set-up is repeated this many times before the first pass, and
# SETUPS_PER_PASS times before each later pass, so its median samples the
# whole run.
SETUP_REPS = 5
SETUPS_PER_PASS = 3

END_TO_END = {
    "wall_s": "s",
    "slowest_op_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}


@dataclass
class OpResult:
    seconds: float
    exit_code: int | None
    stdout: str
    error: str | None = None

    def fingerprint(self) -> tuple[int | None, str]:
        return self.exit_code, hashlib.sha256(self.stdout.encode()).hexdigest()


@dataclass
class PassResult:
    wall: float = 0.0
    results: dict = field(default_factory=dict)  # Op -> OpResult
    failures: dict = field(default_factory=dict)  # Op key -> reason

    @property
    def slowest(self) -> float:
        return max(r.seconds for r in self.results.values())


def run_op(op: workloads.Op) -> OpResult:
    """One in-process `nc-hodge` call with stdout and stderr captured."""
    cli = sys.modules["nchodge.cli"]
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        error = f"exited via SystemExit({exc.code!r})"
    except Exception as exc:  # the benchmark records every failure and goes on
        error = f"raised {exc!r}"
    seconds = perf_counter() - start
    return OpResult(seconds, code, out.getvalue(), error)


def check(op: workloads.Op, res: OpResult, golden: dict) -> str | None:
    if res.error:
        return res.error
    want = golden.get(op.key)
    if want is None:
        return "no golden digest"
    code, digest = res.fingerprint()
    if code != want["exit"]:
        return f"exit code {code}, golden {want['exit']}"
    if digest != want["sha256"]:
        return "stdout differs from the golden digest"
    try:
        return workloads.op_violation(op, code, res.stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"oracle could not read the output: {exc!r}"


def run_pass(ops: list[workloads.Op], golden: dict, speed: HostSpeed) -> PassResult:
    """Run and check every operation.  Reference slices run before each
    operation and after the last; `wall` leaves them out."""
    gc.collect()
    out = PassResult()
    sampling = 0.0
    busy = 0.0
    start = perf_counter()
    for op in ops:
        sampling += speed.sample(busy)
        res = run_op(op)
        busy = res.seconds
        out.results[op] = res
        reason = check(op, res, golden)
        if reason:
            out.failures[op.key] = reason
    sampling += speed.sample(busy)
    outputs = {op: r.stdout for op, r in out.results.items() if op.key not in out.failures}
    for key, reason in workloads.pair_violations(outputs).items():
        out.failures.setdefault(key, reason)
    out.wall = perf_counter() - start - sampling
    return out


def trace_problems(tracer: tracing.Tracer, plain: PassResult, traced: PassResult) -> list[str]:
    """Why a traced pass cannot be trusted: a layer it could not trace (its
    metrics would read 0), a binding left wrapped, or a changed output."""
    problems = [f"{name} not traced; the library no longer matches it"
                for name in sorted(tracer.missing)]
    if not tracer.restored():
        problems.append("a traced binding was not restored")
    seen = {op.key: r.fingerprint() for op, r in traced.results.items()}
    if {op.key: r.fingerprint() for op, r in plain.results.items()} != seen:
        problems.append("traced and untraced outputs differ")
    return problems


def import_nchodge():
    """Import the package and its command line afresh, dropping any earlier
    import of them."""
    for name in [n for n in sys.modules if n == "nchodge" or n.startswith("nchodge.")]:
        del sys.modules[name]
    importlib.import_module("nchodge.cli")
    return sys.modules["nchodge"]


def load_docs(docs: tuple[str, ...]) -> None:
    """Load and validate every document with the current import of `nchodge`."""
    nchodge = sys.modules["nchodge"]
    for doc in docs:
        atlas = nchodge.load_atlas(workloads.doc_path(INPUTS, doc))
        report = nchodge.validate_atlas(atlas)
        if not report.ok:
            raise RuntimeError(f"document {doc} fails validate_atlas:\n{report}")


def setup_once(docs: tuple[str, ...]) -> float:
    """Import `nchodge`, then load and validate every document."""
    start = perf_counter()
    import_nchodge()
    load_docs(docs)
    return perf_counter() - start


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """The result line, and for an untraced run the times as measured with
    the host scale that turned them into reported figures."""
    rng = random.Random(seed)
    golden = json.loads(GOLDEN.read_text())
    import_nchodge()
    docs = workloads.workload_docs(workload)
    workloads.write_docs(INPUTS, docs)
    speed = HostSpeed()
    setups: list[float] = []
    scaled_setups: list[float] = []

    def set_up() -> None:
        # A set-up is too short to be scaled by the run's median host speed:
        # it is scaled by the reference slices just before and after it.
        first = len(speed.samples)
        speed.sample(setups[-1] if setups else 0.0)
        setups.append(setup_once(docs))
        speed.sample(setups[-1])
        scaled_setups.append(setups[-1] * speed.scale(since=first))

    for _ in range(SETUP_REPS):
        set_up()

    # A traced run repeats one set of `logforms` seeds, so that its counts
    # depend on the seed alone and not on how many passes fit.
    logforms_seeds = workloads.draw_logforms_seeds(rng) if trace else None
    passes: list[PassResult] = []
    traced: list[PassResult] = []
    layer_samples: list[dict] = []
    problems: list[str] = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        ops = workloads.pass_ops(workload, INPUTS, rng, logforms_seeds)
        if passes:
            for _ in range(SETUPS_PER_PASS):
                set_up()
        passes.append(run_pass(ops, golden, speed))
        if not trace:
            continue
        with tracing.Tracer() as tracer:
            load_docs(docs)
            traced.append(run_pass(ops, golden, speed))
        layer_samples.append(tracer.pass_metrics())
        problems += trace_problems(tracer, passes[-1], traced[-1])

    runs = passes + traced
    attempted = sum(len(p.results) for p in runs)
    failed = sum(len(p.failures) for p in runs)
    for p in runs:
        for key, reason in sorted(p.failures.items()):
            problems.append(f"{key}: {reason}")
    for line in problems[:20]:
        print(f"FAIL {line}", file=sys.stderr)

    if trace:
        metrics = {
            name: _metric(statistics.median([s[name] for s in layer_samples]), unit)
            for name, unit in tracing.layer_metric_names()
            if not name.startswith("trace.")
        }
        untraced_wall = statistics.median([p.wall for p in passes])
        traced_wall = statistics.median([p.wall for p in traced])
        metrics["trace.untraced_wall_s"] = _metric(untraced_wall, "s")
        metrics["trace.traced_wall_s"] = _metric(traced_wall, "s")
        metrics["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s")
    else:
        measured = {
            "wall_s": statistics.median([p.wall for p in passes]),
            "slowest_op_s": statistics.median([p.slowest for p in passes]),
            "setup_s": statistics.median(setups),
        }
        scale = speed.scale()
        print("measured " + ", ".join(f"{k} {v:.4f}" for k, v in measured.items())
              + f"; host scale {scale:.4f} from {len(speed.samples)} reference slices")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            **{name: value * scale ** PASS_EXPONENT for name, value in measured.items()},
            "setup_s": statistics.median(scaled_setups),
            "peak_rss_mib": rss_kib / 1024,
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, ({} if trace else {"measured": measured, "host_scale": scale})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nchodge" / "__init__.py").is_file():
        print(f"error: no src/nchodge under {ROOT}; run from a checkout root",
              file=sys.stderr)
        return 2
    if not GOLDEN.is_file():
        print(f"error: missing {GOLDEN}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    result, unscaled = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, **unscaled}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
