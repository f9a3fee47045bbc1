"""Fast smoke mode: every workload at minimal size, traced and untraced.

Each workload runs one pass over a few queries with a single set-up,
through every correctness check, and must finish with no failed
operation. Takes well under a minute:

  python3 perfbench/smoke.py
"""

from __future__ import annotations

import sys
from dataclasses import replace

import run


def main() -> int:
    bad = 0
    for workload in run.WORKLOADS.values():
        small = replace(workload, queries=2, rows=min(workload.rows, 80))
        for trace in (False, True):
            result = run.run(small, seed=0, seconds=0, trace=trace, setup_repeats=1)
            ok = result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            bad += not ok
            print(f"{small.name:10s} trace={int(trace)} attempted={result['attempted']:4d} "
                  f"failed={result['failed']} {'ok' if ok else 'FAILED'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
