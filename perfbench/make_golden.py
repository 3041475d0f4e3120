"""Record golden digests of every benchmark operation.

Run from the root of a checkout, at the commit whose outputs are to be the
reference:

    python3 perfbench/make_golden.py

Writes `perfbench/golden.json`: for each operation key, the sha256 of its
stdout bytes and its exit code.  An operation whose output breaks one of the
independent oracles in `workloads.py` is not recorded, and the script exits 1.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    if not (run.ROOT / "src" / "nchodge" / "__init__.py").is_file():
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    run.import_nchodge()
    golden, bad = {}, []
    for workload in workloads.WORKLOADS:
        workloads.write_docs(run.INPUTS, workloads.workload_docs(workload))
        ops = workloads.all_ops(workload, run.INPUTS)
        outputs = {}
        for op in ops:
            res = run.run_op(op)
            reason = res.error or workloads.op_violation(op, res.exit_code, res.stdout)
            if reason:
                bad.append(f"{op.key}: {reason}")
                continue
            outputs[op] = res.stdout
            code, digest = res.fingerprint()
            golden[op.key] = {"exit": code, "sha256": digest}
        for key, reason in workloads.pair_violations(outputs).items():
            bad.append(f"{key}: {reason}")
            golden.pop(key, None)
        print(f"{workload}: {len(ops)} operations", file=sys.stderr)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    for line in bad:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
