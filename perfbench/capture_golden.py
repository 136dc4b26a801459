"""Write perfbench/golden.json from the CLI answers of the current sources.

    python3 perfbench/capture_golden.py

Only the fixed inputs (families and slow-mixing) are captured; the rigid
workload changes with the seed and is checked by closed forms alone.  Ops
that do not exit 0 get no golden entry.  Run this only to re-pin answers
that a reviewed change is meant to alter.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.SRC))

from bench_checks import GOLDEN_PATH, golden_view  # noqa: E402
from bench_workloads import build_workload  # noqa: E402


def main() -> int:
    golden = {}
    scratch = run.RESULTS / "golden-capture"
    scratch.mkdir(parents=True, exist_ok=True)
    for workload in ("families", "slow-mixing"):
        for i, op in enumerate(build_workload(workload, 0, scratch / workload)):
            out, err = scratch / f"{workload}{i}.out", scratch / f"{workload}{i}.err"
            r = run.run_cli(op.argv, out, err, timeout=600)
            print(f"{r['exit']}  {r['wall_s']:7.2f} s  {op.name}")
            if r["exit"] == 0:
                golden[op.name] = golden_view(op.kind, json.loads(out.read_text(encoding="utf-8")))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=None, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
