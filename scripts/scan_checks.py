#!/usr/bin/env python3
"""Run a benchmark workload's own check over its first operations, untimed.

Usage:
  python3 scripts/scan_checks.py WORKLOAD SEED N_OPS

Runs `inputs`, `run` and `check` of the workload in `perfbench/workloads.py`
for ops 0..N_OPS-1 on this checkout's `src/`, counting an exception in `run`
or `check` as a failure, as `perfbench/run.py` does. Prints every failing op
with its reason, then `N ops, F failed`; exits 1 when F > 0. It reaches ops
that a timed run of a few seconds does not.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    name, seed, n_ops = argv[0], int(argv[1]), int(argv[2])
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    workload = workloads.WORKLOADS[name](seed, root)
    failed = 0
    for op in range(n_ops):
        inp = workload.inputs(op)
        try:
            error = workload.check(inp, workload.run(inp))
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failed += 1
            print(f"op {op} failed: {error}", flush=True)
    print(f"{n_ops} ops, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
