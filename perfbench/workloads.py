"""The three workloads.

Each workload turns a seed into a fixed list of checks; a run repeats that
list a fixed number of times. Every check produces a verdict and checks it:
a check that raises, exits with an unexpected code, prints no or
unparsable JSON, or returns a wrong deterministic verdict is a failure.
dpselect itself only sees the generated score and pair files (cli-cold) or
the generated instances (sample-verify, exact-verify).

Why these three (closed loop, one client, one check at a time):

* cli-cold: users call the command line once per verdict from shell
  pipelines, so interpreter start, imports, JSON loading and dispatch
  dominate and the samplers and oracles do almost nothing (k <= 8).
* sample-verify: chi-square checks of 10^5 draws per instance, as in the
  acceptance suite, so the mechanisms and the noise sampler do nearly all
  the work while the reference tables stay at a few ms (k <= 12).
* exact-verify: no sampling; many small exact checks (k 2-10) whose
  per-call overhead sets the median, and a few large ones (enumeration at
  k 16-20, quadrature at k 32-64) whose algorithmic cost sets the wall
  time and the tail.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

MECHANISMS = ("pf", "rnm-expo", "rnm-laplace", "rnm-gumbel", "em", "alg-a", "alg-b")
EPSILONS = (0.5, 1.0, 2.0)
SENSITIVITY = 1.0
SIGNIFICANCE = 0.001
SAMPLES_PER_CHECK = 100_000
# equivalence tolerances, as in the command line and the acceptance suite
TV_TOLERANCE = 1e-8
ENTRY_TOLERANCE = 1e-6

# The console script `dpselect = dpselect.cli:entrypoint`, spelled out so a
# fresh interpreter runs it from the source tree. `python -m dpselect.cli`
# would exit 0 with no output: the module has no __main__ guard.
ENTRYPOINT = "import sys; sys.argv[0] = 'dpselect'; from dpselect.cli import entrypoint; entrypoint()"
PROBE = Path(__file__).resolve().parent / "cli_probe.py"
TRACE_MARKER = "@@perfbench-trace "


class CheckFailed(Exception):
    """A check produced a wrong verdict."""


@dataclass
class Context:
    python: str
    env: dict
    tracer: object = None  # tracing.Tracer while the traced pass runs


@dataclass
class Check:
    kind: str
    run: Callable[[Context], dict | None]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _labels(k: int) -> list[str]:
    return [f"o{i}" for i in range(k)]


def _scores(rng: np.random.Generator, k: int) -> list[float]:
    return [float(s) for s in rng.uniform(-5.0, 5.0, size=k)]


def _epsilon(rng: np.random.Generator) -> float:
    return EPSILONS[int(rng.integers(len(EPSILONS)))]


def _softmax(scores: list[float], epsilon: float) -> list[float]:
    # exponential-mechanism table computed here, independently of dpselect
    rate = epsilon / (2.0 * SENSITIVITY)
    best = max(scores)
    weights = [math.exp(rate * (s - best)) for s in scores]
    total = math.fsum(weights)
    return [w / total for w in weights]


# ----------------------------------------------------------------- cli-cold


def _run_cli(ctx: Context, argv: list[str]) -> tuple[int, str]:
    if ctx.tracer is None:
        proc = subprocess.run(
            [ctx.python, "-c", ENTRYPOINT, *argv],
            env=ctx.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout
    with ctx.tracer.span("import.process") as frame:
        proc = subprocess.run(
            [ctx.python, str(PROBE), *argv],
            env=ctx.env, capture_output=True, text=True, timeout=120,
        )
        dumps = [l for l in proc.stderr.splitlines() if l.startswith(TRACE_MARKER)]
        _require(len(dumps) == 1, "traced command left no trace")
        ctx.tracer.absorb(json.loads(dumps[0][len(TRACE_MARKER):]), frame)
    return proc.returncode, proc.stdout


def _cli_check(kind: str, argv: list[str], expected_code: int, verify) -> Check:
    def run(ctx: Context) -> None:
        code, out = _run_cli(ctx, argv)
        _require(code == expected_code, f"exit code {code}, expected {expected_code}")
        _require(out.strip() != "", "no output")
        try:
            record = json.loads(out)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"unparsable output: {exc}") from None
        _require(isinstance(record, dict), "output is not a JSON object")
        verify(record)

    return Check(kind, run)


def _verify_table(record, labels, provenance, reference=None, tolerance=0.0):
    _require(record.get("labels") == labels, "labels differ from the score file")
    probs = record.get("probabilities")
    _require(isinstance(probs, list) and len(probs) == len(labels), "bad probabilities")
    _require(all(0.0 <= p <= 1.0 for p in probs), "probability outside [0, 1]")
    # nine significant digits per entry, at most 8 entries
    _require(abs(math.fsum(probs) - 1.0) <= 1e-8, "table does not sum to 1")
    _require(str(record.get("provenance", "")).startswith(provenance),
             f"provenance {record.get('provenance')!r}")
    if reference is not None:
        gap = max(abs(p - r) for p, r in zip(probs, reference))
        _require(gap <= tolerance, f"entry gap {gap:.3e} to the reference")


def cli_cold(seed: int, workdir: Path) -> list[Check]:
    """14 commands, each on its own generated file with k in 2..8."""
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True)
    checks = []

    def score_file(name):
        k = int(rng.integers(2, 9))
        labels, scores, epsilon = _labels(k), _scores(rng, k), _epsilon(rng)
        path = workdir / f"{name}.json"
        path.write_text(json.dumps({"labels": labels, "scores": scores}))
        common = ["--epsilon", repr(epsilon), "--sensitivity", repr(SENSITIVITY)]
        return str(path), labels, scores, epsilon, common

    for mechanism in MECHANISMS:
        path, labels, _, _, common = score_file(f"select-{mechanism}")
        argv = ["select", "--mechanism", mechanism, "--scores", path,
                "--seed", str(int(rng.integers(2**63))), *common]

        def verify(record, labels=labels):
            index = record.get("index")
            _require(isinstance(index, int) and 0 <= index < len(labels), "bad index")
            _require(record.get("label") == labels[index], "label does not match index")

        checks.append(_cli_check("select", argv, 0, verify))

    path, labels, scores, epsilon, common = score_file("dist-exact")
    checks.append(_cli_check(
        "dist", ["dist", "--mechanism", "em", "--mode", "exact", "--scores", path, *common], 0,
        lambda r, l=labels, ref=_softmax(scores, epsilon):
            _verify_table(r, l, "exact-closed-form", ref, TV_TOLERANCE)))

    path, labels, scores, epsilon, common = score_file("dist-quadrature")
    checks.append(_cli_check(
        "dist", ["dist", "--mechanism", "rnm-gumbel", "--mode", "quadrature", "--scores", path,
                 *common], 0,
        lambda r, l=labels, ref=_softmax(scores, epsilon):
            _verify_table(r, l, "quadrature", ref, ENTRY_TOLERANCE)))

    n = 2000
    path, labels, _, _, common = score_file("dist-empirical")

    def verify_empirical(record, labels=labels):
        _verify_table(record, labels, f"empirical(n={n},")
        _require(all(abs(p * n - round(p * n)) < 1e-3 for p in record["probabilities"]),
                 "empirical frequencies are not counts over n")

    checks.append(_cli_check(
        "dist", ["dist", "--mechanism", "pf", "--mode", "empirical", "--n", str(n),
                 "--seed", str(int(rng.integers(2**63))), "--scores", path, *common],
        0, verify_empirical))

    for other, code in (("rnm-expo", 0), ("em", 3)):
        path, _, _, _, common = score_file(f"compare-{other}")

        def verify_compare(record, code=code):
            tv = record.get("tv_distance")
            _require(isinstance(tv, (int, float)), "no tv_distance")
            _require(record.get("pass") is (code == 0), f"pass is {record.get('pass')}")
            _require(tv <= TV_TOLERANCE if code == 0 else tv > TV_TOLERANCE, f"tv {tv!r}")

        checks.append(_cli_check(
            "compare", ["compare", "--mechanism", "pf", "--mechanism", other, "--scores", path,
                        *common], code, verify_compare))

    epsilon = _epsilon(rng)
    pairs = [_neighbor_pair(rng, int(rng.integers(2, 9))) for _ in range(6)]
    pairs_path = workdir / "pairs.json"
    pairs_path.write_text(json.dumps({"pairs": [
        {"q1": {"labels": _labels(len(a)), "scores": a},
         "q2": {"labels": _labels(len(b)), "scores": b}} for a, b in pairs]}))

    def verify_audit(record, epsilon=epsilon):
        _require(record.get("pass") is True, "audit did not pass")
        _require(record.get("pairs") == len(pairs), "pair count differs")
        bound = record.get("bound")
        _require(abs(bound - math.exp(epsilon)) <= 1e-8 * bound, "bound is not e^epsilon")
        _require(1.0 <= record.get("worst_ratio") <= bound * (1 + 1e-8), "ratio above the bound")

    checks.append(_cli_check(
        "audit", ["audit", "--mechanism", "pf", "--pairs", str(pairs_path), "--epsilon",
                  repr(epsilon), "--sensitivity", repr(SENSITIVITY)], 0, verify_audit))

    path, _, scores, epsilon, common = score_file("utility")
    best = max(scores)
    em_error = math.fsum(p * (best - s) for p, s in zip(_softmax(scores, epsilon), scores))

    def verify_utility(record, em_error=em_error):
        _require(record.get("pass") is True and record.get("dominance_violations") == 0,
                 "pf does not dominate em")
        _require(record.get("instances") == 1, "instance count differs")
        _require(record["expected_error_pf"] <= record["expected_error_em"] + 1e-8,
                 "pf error above em error")
        _require(abs(record["expected_error_em"] - em_error) <= 1e-7,
                 "em error differs from the closed form")

    checks.append(_cli_check("utility", ["utility", "--scores", path, *common], 0,
                             verify_utility))
    return checks


def _neighbor_pair(rng: np.random.Generator, k: int) -> tuple[list[float], list[float]]:
    # every coordinate moves by less than the sensitivity
    base = rng.uniform(-5.0, 5.0, size=k)
    reach = SENSITIVITY * (1.0 - 1e-9)
    moved = base + rng.uniform(-reach, reach, size=k)
    return [float(s) for s in base], [float(s) for s in moved]


# ------------------------------------------------------------ sample-verify


def _instance(k: int, scores: list[float], epsilon: float):
    from dpselect import core

    return core.validate_instance(
        core.QualityVector(tuple(_labels(k)), tuple(scores)),
        core.PrivacyParams(epsilon, SENSITIVITY),
    )


def _fixed_cost_scores(rng: np.random.Generator, k: int) -> list[float]:
    # A score profile fixed per k, permuted and shifted by the seed. Tables
    # are permutation-equivariant and shift-invariant, and permute-and-flip
    # visits outcomes in random order anyway, so quadrature and sampling do
    # the same work for every seed while the inputs still come from it.
    profile = np.random.default_rng(k).uniform(-5.0, 5.0, size=k)
    return [float(s) for s in rng.permutation(profile) + rng.uniform(-10.0, 10.0)]


# (k, epsilon) of the 14 sample-verify checks: every k in 2..12 once, then
# 2, 7 and 12 again, with epsilon cycling, so every seed does the same work
SAMPLE_SCHEDULE = [(2 + 5 * i % 11, EPSILONS[i % len(EPSILONS)]) for i in range(14)]


def sample_verify(seed: int, workdir: Path) -> list[Check]:
    """14 chi-square checks: the 7 mechanisms round-robin, twice."""
    rng = np.random.default_rng(seed)
    checks = []
    for i, (k, epsilon) in enumerate(SAMPLE_SCHEDULE):
        mechanism = MECHANISMS[i % len(MECHANISMS)]
        scores = _fixed_cost_scores(rng, k)
        sample_seed = int(rng.integers(2**63))

        def run(ctx, mechanism=mechanism, k=k, scores=scores, epsilon=epsilon,
                sample_seed=sample_seed):
            from dpselect import oracle

            inst = _instance(k, scores, epsilon)
            if mechanism in ("em", "rnm-gumbel"):
                reference = oracle.em_exact_distribution(inst)
            elif mechanism == "rnm-laplace":
                reference = oracle.rnm_exact_quadrature(inst, "laplace")
            else:
                reference = oracle.pf_exact_distribution(inst)
            counts = oracle.empirical_counts(mechanism, inst, SAMPLES_PER_CHECK, sample_seed)
            _require(sum(counts) == SAMPLES_PER_CHECK, "counts do not add up to n")
            gof = oracle.chi_square_gof(counts, reference, SIGNIFICANCE)
            return {"rejected": not gof.passed, "draws": SAMPLES_PER_CHECK}

        checks.append(Check(f"chi-square.{mechanism}", run))
    return checks


# ------------------------------------------------------------- exact-verify


def _tv_check(k, scores, epsilon, other):
    def run(ctx):
        from dpselect import oracle

        inst = _instance(k, scores, epsilon)
        pf = oracle.pf_exact_distribution(inst)
        if other == "rnm-expo":
            tv = oracle.tv_distance(pf, oracle.rnm_expo_exact_distribution(inst))
            _require(tv <= TV_TOLERANCE, f"pf vs rnm-expo tv {tv:.3e}")
        else:
            tv = oracle.tv_distance(pf, oracle.em_exact_distribution(inst))
            _require(tv > TV_TOLERANCE, f"pf vs em tv {tv:.3e}")

    return run


def _audit_check(mechanism, pairs, epsilon):
    def run(ctx):
        from dpselect import audit, core

        neighbor_pairs = [
            core.NeighborPair(core.QualityVector(tuple(_labels(len(a))), tuple(a)),
                              core.QualityVector(tuple(_labels(len(b))), tuple(b)))
            for a, b in pairs
        ]
        report = audit.privacy_ratio_audit(
            mechanism, neighbor_pairs, core.PrivacyParams(epsilon, SENSITIVITY))
        _require(report.passed, f"{mechanism} ratio {report.worst_ratio} above e^eps")
        _require(len(report.per_pair) == len(pairs), "pair count differs")

    return run


def _dominance_check(suite, epsilon):
    def run(ctx):
        from dpselect import audit

        report = audit.dominance_check([_instance(len(s), s, epsilon) for s in suite])
        _require(report.dominance_violations == 0,
                 f"{report.dominance_violations} dominance violations")
        _require(len(report.per_instance) == len(suite), "instance count differs")

    return run


def _three_way_check(k, scores, epsilon):
    def run(ctx):
        from dpselect import oracle

        inst = _instance(k, scores, epsilon)
        tables = [oracle.pf_exact_distribution(inst), oracle.rnm_expo_exact_distribution(inst),
                  oracle.rnm_exact_quadrature(inst, "exponential")]
        gap = max(abs(x - y) for a in range(3) for b in range(a + 1, 3)
                  for x, y in zip(tables[a].probabilities, tables[b].probabilities))
        _require(gap <= ENTRY_TOLERANCE, f"three-way entry gap {gap:.3e}")

    return run


def _quadrature_check(k, scores, epsilon, family):
    def run(ctx):
        from dpselect import oracle

        inst = _instance(k, scores, epsilon)
        table = oracle.rnm_exact_quadrature(inst, family)
        if family == "gumbel":
            # Gumbel noisy-max is the exponential mechanism
            em = oracle.em_exact_distribution(inst)
            gap = max(abs(x - y) for x, y in zip(table.probabilities, em.probabilities))
            _require(gap <= ENTRY_TOLERANCE, f"gumbel vs em entry gap {gap:.3e}")
        else:
            # with i.i.d. noise a higher score never has a lower win probability
            ranked = [p for _, p in sorted(zip(scores, table.probabilities))]
            _require(all(b >= a - 1e-9 for a, b in zip(ranked, ranked[1:])),
                     f"{family} table not monotone in the scores")

    return run


def exact_verify(seed: int, workdir: Path) -> list[Check]:
    """40 small checks with k cycling through 2..10, and 8 large ones
    spread among them."""
    rng = np.random.default_rng(seed)
    sizes = itertools.cycle(range(2, 11))
    small = []
    audit_mechanisms = ("pf", "rnm-expo", "em")
    for i in range(10):
        for other in ("rnm-expo", "em"):
            k = next(sizes)
            small.append(Check(f"tv-{other}", _tv_check(k, _scores(rng, k), _epsilon(rng), other)))
        pairs = [_neighbor_pair(rng, next(sizes)) for _ in range(8)]
        small.append(Check("privacy-audit", _audit_check(
            audit_mechanisms[i % 3], pairs, _epsilon(rng))))
        suite = [_scores(rng, next(sizes)) for _ in range(8)]
        small.append(Check("dominance", _dominance_check(suite, _epsilon(rng))))
    # enumeration cost depends on k only; quadrature cost also on the scores
    large = [Check(f"tv-rnm-expo.k{k}", _tv_check(k, _scores(rng, k), _epsilon(rng), "rnm-expo"))
             for k in (16, 18, 20)]
    large.append(Check("three-way.k20", _three_way_check(20, _scores(rng, 20), _epsilon(rng))))
    for family in ("laplace", "gumbel"):
        for k in (32, 64):
            large.append(Check(f"quadrature-{family}.k{k}", _quadrature_check(
                k, _fixed_cost_scores(rng, k), 1.0, family)))
    checks = []
    for i, check in enumerate(small):
        checks.append(check)
        if i % 5 == 4:
            checks.append(large[i // 5])
    return checks


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, Path], list[Check]]
    in_process: bool
    # seconds of a run's --seconds that one pass over the check list counts
    # for; a run makes max(1, round(seconds / pass_s)) passes, so its work is
    # fixed. In the reference machine's slower phase one pass took about 21 s
    # on cli-cold, 22 s on sample-verify and 10 s on exact-verify,
    # calibrations included. So that a 30-second run of any workload stays
    # under about 50 s, cli-cold, whose checks all cost about the same, makes
    # one pass, sample-verify two and exact-verify four.
    pass_s: float


WORKLOADS = {
    "cli-cold": Workload(cli_cold, in_process=False, pass_s=30.0),
    "sample-verify": Workload(sample_verify, in_process=True, pass_s=15.0),
    "exact-verify": Workload(exact_verify, in_process=True, pass_s=7.5),
}
