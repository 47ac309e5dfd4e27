#!/usr/bin/env python3
"""dpselect benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree holding src/dpselect and BENCHMARK.json.
The workload's inputs come only from --seed. Set-up (input generation, file
writing and a warm-up import in a fresh interpreter) is repeated three times
and its median reported. The run then makes round(S / pass_s) passes over
the workload's fixed check list, so a run does the same work on any machine.

Every timed step runs between two timings of a fixed pure-Python loop and
is scaled by them to the reference machine's speed, because the speed of a
shared host changes by up to 2x in phases of seconds to an hour.

With --trace 0 the last line of standard output carries every end-to-end
metric named in BENCHMARK.json; wall_s, check_p50_ms and cpu_s use each
check's best scaled figure over the passes, the tail uses every pass. With
--trace 1 the run makes two untraced passes and one traced pass, and the
last line carries every per-layer metric; spans are written to
perfbench/results/. The line before the last holds the run's context: seed,
machine, failure details, tail percentile, unscaled pass times and scale
factors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import tracing
import workloads
from tracing import CALLS, SELF_NS, TOTAL_NS, UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"
SETUPS = 3
STARTUP_SAMPLES = 5
TAIL_BEYOND = 10  # the tail is the highest percentile with this many checks beyond it
# The reference machine's speed changes by up to 2x, in phases of seconds to
# an hour, as other tenants load the host; whole runs can fall in one phase.
# So every timed step runs between two calibrations, and its wall and CPU
# time are scaled by CALIBRATION_REFERENCE_S over their mean: times are
# reported in seconds of the reference machine at its faster level.
CALIBRATION_LOOP = 100_000
CALIBRATION_REFERENCE_S = 0.0055  # the loop's best time on the reference machine
LAYERS = ("import", "cli", "formats", "core", "noise", "mechanisms", "oracle", "audit", "bench")
CLI_COMMANDS = ("select", "dist", "compare", "audit", "utility")


def machine_context() -> dict:
    context = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "machine": platform.machine(),
    }
    try:
        context["loadavg"] = [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        context["loadavg"] = None
    try:
        models = [line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")]
        context["cpu"] = models[0] if models else None
    except OSError:
        context["cpu"] = None
    return context


def parse_importtime(stderr: str) -> dict:
    """Per-package import cost in ms from `python -X importtime` output."""
    selfs = {"scipy": 0, "numpy": 0, "dpselect": 0}
    total = None
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2].strip()
        package = name.split(".", 1)[0]
        if package in selfs:
            selfs[package] += self_us
        if name == "dpselect.cli":
            total = cumulative_us
    if total is None:
        raise RuntimeError("importtime output lacks dpselect.cli")
    return {
        "import.total_ms": total / 1e3,
        "import.scipy_ms": selfs["scipy"] / 1e3,
        "import.numpy_ms": selfs["numpy"] / 1e3,
        "import.dpselect_self_ms": selfs["dpselect"] / 1e3,
    }


def child_env() -> dict:
    """Environment of every interpreter the benchmark starts: dpselect from
    src/, and bytecode caching on, as an installed package has it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_python(ctx, *args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([ctx.python, *args], env=ctx.env, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr[-500:]}")
    return proc


def cpu_seconds() -> float:
    # process_time is exact for this process; children are added when reaped
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def timed(action, before=None):
    """Run action() between two calibrations; `before` reuses one just made.
    Returns its result, its wall and CPU seconds scaled to the reference
    speed, the scale factor and the closing calibration."""
    if before is None:
        before = calibrate()
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    result = action()
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    after = calibrate()
    scale = CALIBRATION_REFERENCE_S / ((before + after) / 2)
    return result, wall * scale, cpu * scale, scale, after


def run_pass(checks, ctx, tracer=None) -> dict:
    latencies, cpus, scales, failures, rejections, draws = [], [], [], [], 0, 0
    calibration = None
    for index, check in enumerate(checks):
        def action():
            try:
                if tracer is None:
                    return check.run(ctx) or {}
                tracer.check_id = index
                with tracer.span(f"bench.check.{check.kind}"):
                    return check.run(ctx) or {}
            except Exception as exc:  # a failed check is counted, the run goes on
                failures.append(f"{check.kind}#{index}: {type(exc).__name__}: {exc}")
                return {}

        outcome, latency, cpu, scale, calibration = timed(action, calibration)
        latencies.append(latency)
        cpus.append(cpu)
        scales.append(scale)
        rejections += outcome.get("rejected", False)
        draws += outcome.get("draws", 0)
    return {
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "cpus_s": cpus,
        "scales": scales,
        "failures": failures,
        "rejections": rejections,
        "draws": draws,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with TAIL_BEYOND checks beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    # the children run one at a time, so the peak is self plus the largest child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def best_latencies(passes) -> list[float]:
    return [min(times) for times in zip(*(r["latencies_s"] for r in passes))]


def end_to_end(setups, passes) -> tuple[dict, dict]:
    latencies = [x for r in passes for x in r["latencies_s"]]
    # Every pass repeats the same checks. A check's best pass is its cost
    # with the least interference from other tenants of the host, which the
    # calibration only partly removes; the tail keeps every pass.
    best = best_latencies(passes)
    best_cpu = [min(times) for times in zip(*(r["cpus_s"] for r in passes))]
    tail_s, percentile = tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(best),
        "check_p50_ms": statistics.median(best) * 1e3,
        "check_tail_ms": tail_s * 1e3,
        "checks_per_s": len(best) / sum(best),
        "cpu_s": sum(best_cpu),
        "peak_rss_mb": peak_rss_mb(),
    }
    draws = sum(r["draws"] for r in passes)
    scales = sorted(x for r in passes for x in r["scales"])
    context = {"tail_percentile": percentile, "tail_checks_beyond": TAIL_BEYOND,
               "checks": len(latencies), "draws_per_s": draws / len(passes) / values["wall_s"] if draws else None,
               "unscaled_wall_s": [sum(x / y for x, y in zip(r["latencies_s"], r["scales"]))
                                   for r in passes],
               "scale_min_median_max": [scales[0], statistics.median(scales), scales[-1]]}
    return values, context


def per_layer(tracer, importtimes, startups, untraced, traced, checks) -> dict:
    calls = tracer.calls

    def mean(name, scale, per_unit=False):
        stats = calls.get(name)
        if not stats or not stats[CALLS]:
            return 0.0
        return stats[TOTAL_NS] / (stats[UNITS] if per_unit else stats[CALLS]) * scale

    values = {key: statistics.median(t[key] for t in importtimes) for key in importtimes[0]}
    values["process.startup_ms"] = statistics.median(startups) * 1e3
    for command in CLI_COMMANDS:
        values[f"cli.main_ms.{command}"] = mean(f"cli.main.{command}", 1e-6)
    for name in ("load_quality_vector", "load_neighbor_pairs"):
        values[f"formats.{name}_ms"] = mean(f"formats.{name}", 1e-6)
    for name in workloads.MECHANISMS:
        values[f"mechanisms.{name}.us_per_draw"] = mean(f"mechanisms.{name}", 1e-3)
    for family in ("exponential", "laplace", "gumbel"):
        values[f"noise.samples.{family}.ns_per_draw"] = mean(
            f"noise.samples.{family}", 1.0, per_unit=True)
        for band in ("k2-20", "k32-64"):
            values[f"oracle.rnm_exact_quadrature.{family}.{band}.ms"] = mean(
                f"oracle.rnm_exact_quadrature.{family}.{band}", 1e-6)
    stats = calls.get("oracle.empirical_counts")
    values["oracle.empirical_counts.self_ms"] = (
        stats[SELF_NS] / stats[CALLS] * 1e-6 if stats else 0.0)
    values["oracle.chi_square_gof.ms"] = mean("oracle.chi_square_gof", 1e-6)
    for oracle_name in ("pf_exact_distribution", "rnm_expo_exact_distribution"):
        for band in ("k2-10", "k11-15", "k16-20"):
            values[f"oracle.{oracle_name}.{band}.ms"] = mean(f"oracle.{oracle_name}.{band}", 1e-6)
    values["oracle.em_exact_distribution.us"] = mean("oracle.em_exact_distribution", 1e-3)
    values["oracle.tv_distance.us"] = mean("oracle.tv_distance", 1e-3)
    values["audit.privacy_ratio_audit.ms_per_pair"] = mean(
        "audit.privacy_ratio_audit", 1e-6, per_unit=True)
    values["audit.dominance_check.ms_per_instance"] = mean(
        "audit.dominance_check", 1e-6, per_unit=True)
    values["core.validate_instance.us"] = mean("core.validate_instance", 1e-3)
    for key in ("oracle.draws", "oracle.enumeration_terms", "oracle.tables",
                "formats.bytes_read", "oracle.chi_square_gof.rejections"):
        values[key] = tracer.counters.get(key, 0)
    values["oracle.chi_square_gof.rejections_expected"] = (
        calls["oracle.chi_square_gof"][CALLS] * workloads.SIGNIFICANCE
        if "oracle.chi_square_gof" in calls else 0.0)
    for layer in LAYERS:
        values[f"layer.{layer}.self_ms"] = tracer.layer_self_ns.get(layer, 0) * 1e-6
    # the untraced figure is the best of two passes, as wall_s is, so the
    # first pass's warm-up is not counted as negative overhead
    untraced_wall = sum(best_latencies(untraced))
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    values["checks.attempted"] = len(checks)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    machine = machine_context()
    if not (SRC / "dpselect" / "__init__.py").is_file():
        print(f"error: no dpselect sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(python=sys.executable, env=child_env())
    warm_import = (["-X", "importtime"] if args.trace else []) + ["-c", "import dpselect.cli"]

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setups, importtimes = [], []
        for i in range(SETUPS):
            def set_up(i=i):
                return workload.build(args.seed, workdir / f"setup{i}"), run_python(ctx, *warm_import)

            (checks, proc), setup_s, *_ = timed(set_up)
            setups.append(setup_s)
            if args.trace:
                importtimes.append(parse_importtime(proc.stderr))

        tracer = tracing.Tracer() if args.trace else None
        if workload.in_process:
            with tracer.span("import.dpselect") if tracer else contextlib.nullcontext():
                import dpselect  # noqa: F401  (the in-process import, traced)

        if args.trace:
            startups = []
            for _ in range(STARTUP_SAMPLES):
                t0 = time.perf_counter()
                run_python(ctx, "-c", "pass")
                startups.append(time.perf_counter() - t0)
            untraced = [run_pass(checks, ctx) for _ in range(2)]
            ctx.tracer = tracer
            uninstall = tracing.install(tracer) if workload.in_process else None
            try:
                traced = run_pass(checks, ctx, tracer)
            finally:
                if uninstall:
                    uninstall()
            passes = [*untraced, traced]
        else:
            count = max(1, round(args.seconds / workload.pass_s))
            passes = [run_pass(checks, ctx) for _ in range(count)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values, run_context = end_to_end(setups, passes)
    if args.trace:
        values = per_layer(tracer, importtimes, startups, untraced, traced, checks)
    attempted = sum(len(r["latencies_s"]) for r in passes)
    failures = [f for r in passes for f in r["failures"]]
    rejections = sum(r["rejections"] for r in passes)
    sampled = len(passes) * sum(c.kind.startswith("chi-square") for c in checks)
    allowance = max(1, sampled // 10)
    correct = not failures and rejections <= allowance
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "machine": machine,
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "chi_square": {"checks": sampled, "rejections": rejections, "allowance": allowance,
                       "expected": sampled * workloads.SIGNIFICANCE},
        "pass_wall_s": [r["wall_s"] for r in passes],
        **run_context,
    }
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    RESULTS.mkdir(exist_ok=True)
    record = {**detail, "metrics": metrics,
              "check_latencies_s": [list(zip((c.kind for c in checks), r["latencies_s"]))
                                    for r in passes]}
    if tracer is not None:
        record["spans"] = tracer.spans
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
