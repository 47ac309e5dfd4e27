#!/usr/bin/env python3
"""Reproduce the ROADMAP performance baseline with one command.

    python3 perfbench/baseline.py

Run from the root of the source tree. Prints one JSON object: the machine
context, the wall time of `dpselect select` from a fresh interpreter
(median of 5), the import cost of scipy, numpy and dpselect inside it,
enumeration time at k=20, quadrature time at k=64 for each noise family,
and the per-draw cost of every mechanism at k=10. Takes about a minute.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import run
import workloads


def timed(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    machine = run.machine_context()
    if not (run.SRC / "dpselect" / "__init__.py").is_file():
        print(f"error: no dpselect sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    env = run.child_env()
    python = sys.executable

    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        scores = os.path.join(workdir, "scores.json")
        with open(scores, "w") as fh:
            json.dump({"labels": ["a", "b", "c", "d"], "scores": [1.0, 0.0, 0.5, -1.0]}, fh)
        select = [python, "-c", workloads.ENTRYPOINT, "select", "--mechanism", "pf",
                  "--epsilon", "1", "--sensitivity", "1", "--scores", scores]
        subprocess.run(select, env=env, capture_output=True, check=True)  # warm the caches
        select_s = timed(lambda: subprocess.run(select, env=env, capture_output=True,
                                                check=True), 5)
    importtimes = [
        run.parse_importtime(subprocess.run(
            [python, "-X", "importtime", "-c", "import dpselect.cli"], env=env,
            capture_output=True, text=True, check=True).stderr)
        for _ in range(3)
    ]
    imports = {key: statistics.median(t[key] for t in importtimes) for key in importtimes[0]}
    numpy_s = timed(lambda: subprocess.run([python, "-c", "import numpy"], env=env,
                                           check=True), 5)

    from dpselect import audit, oracle

    def instance(k):
        return audit.random_instances(1, 1.0, 1.0, k_min=k, k_max=k, seed=k)[0]

    k20 = instance(20)
    enumeration_ms = {
        name: timed(lambda f=getattr(oracle, name): f(k20), 3) * 1e3
        for name in ("pf_exact_distribution", "rnm_expo_exact_distribution")
    }
    k64 = instance(64)
    quadrature_ms = {
        family: timed(lambda f=family: oracle.rnm_exact_quadrature(k64, f), 1) * 1e3
        for family in ("exponential", "laplace", "gumbel")
    }
    k10 = instance(10)
    draws = 20_000
    us_per_draw = {
        mechanism: timed(lambda m=mechanism: oracle.empirical_counts(m, k10, draws, 1), 1)
        / draws * 1e6
        for mechanism in workloads.MECHANISMS
    }
    print(json.dumps({
        "machine": machine,
        "select_wall_s": select_s,
        "import_ms": imports,
        "scipy_share_of_select": imports["import.scipy_ms"] / 1e3 / select_s,
        "bare_numpy_import_s": numpy_s,
        "enumeration_k20_ms": enumeration_ms,
        "quadrature_k64_ms": quadrature_ms,
        "us_per_draw_k10": us_per_draw,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
