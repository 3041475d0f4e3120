"""Check that the benchmark is steady, and record its baseline.

Run from the root of a checkout:

    python3 perfbench/prove.py --runs 10 [--write]

Runs `perfbench/run.py` once per seed (seeds 1..runs, one process at a time)
for every workload in BENCHMARK.json, untraced, then once traced per
workload with seed 1.  For each end-to-end metric it prints the median and
the spread, i.e. the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
bound in BENCHMARK.json, and exits 1 if any spread is above a third of its
bound.  With `--write` it stores the medians, the times as measured before
host scaling, the traced per-layer figures, the operation lists, the layer
map and the machine facts in `perfbench/baseline.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's result line, and the record it kept in `run.RESULTS`."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)} reported incorrect output:\n{proc.stderr}")
    record = json.loads((run.RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    baseline = {}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        samples: dict[str, list[float]] = {}
        unscaled: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            result, record = run_once(workload, seed, seconds, 0)
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            for name, value in {**record["measured"], "host_scale": record["host_scale"]}.items():
                unscaled.setdefault(name, []).append(value)
        traced = run_once(workload, 1, seconds, 1)[0]["metrics"]
        rows = {}
        for name, values in samples.items():
            rows[name] = {"median": statistics.median(values), "spread": spread(values),
                          "values": values}
            ok = rows[name]["spread"] <= bounds[name] / 3
            steady &= ok
            print(f"{workload:9} {name:13} median {rows[name]['median']:10.4f} "
                  f"spread {rows[name]['spread']:.4f} bound {bounds[name]}"
                  f"{'' if ok else '  <-- above a third of the bound'}", flush=True)
        selfs = {k: v["value"] for k, v in traced.items() if k.endswith(".self_s")}
        top = max(selfs, key=selfs.get)
        print(f"{workload:9} top self-time layer {top} "
              f"({selfs[top]:.3f} s of {traced['trace.traced_wall_s']['value']:.3f} s traced; "
              f"overhead {traced['trace.overhead_s']['value']:.3f} s)", flush=True)
        baseline[workload] = {
            "why": workloads.WORKLOADS[workload],
            "operations": [" ".join(op.argv) for op in
                           workloads.all_ops(workload, Path(".perfbench/inputs"))],
            "end_to_end": rows,
            "measured_unscaled": {
                name: {"median": statistics.median(values), "values": values}
                for name, values in unscaled.items()
            },
            "traced": {k: v["value"] for k, v in traced.items()},
            "top_self_layer": top,
        }
    if args.write:
        out = {
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform()},
            "runs_per_workload": args.runs,
            "run_seconds": seconds,
            "layer_map": {layer.name: layer.moves for layer in tracing.LAYERS},
            "workloads": baseline,
        }
        (BENCH_DIR / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
