#!/usr/bin/env python3
"""Check that the benchmark's exact counts repeat.

    python3 perfbench/selfcheck.py [--seed N] [workload ...]

Runs the traced benchmark twice per workload on one seed (default: all
three workloads, seed 1) and fails unless both runs report identical
counts: draws, enumeration terms, tables, bytes read and checks attempted.
Later claims that rest on these counts depend on this.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import workloads

COUNTS = ("oracle.draws", "oracle.enumeration_terms", "oracle.tables",
          "formats.bytes_read", "checks.attempted")


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=run.ROOT,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {name: result["metrics"][name]["value"] for name in COUNTS}
    counts["attempted"] = result["attempted"]
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first, second = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        same = first == second
        ok &= same
        print(json.dumps({"workload": workload, "seed": args.seed, "identical": same,
                          "first": first, "second": second}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
