"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run with -s to
see them live, pytest shows them on failure regardless) and asserts at its
stated tolerance.
"""

import math
import time

import numpy as np
from scipy import stats

from dpselect import (
    Exponential,
    Gumbel,
    Laplace,
    PrivacyParams,
    RngState,
    dominance_check,
    em_exact_distribution,
    expected_error,
    perturbed_neighbor_pairs,
    pf_exact_distribution,
    privacy_ratio_audit,
    random_instances,
    rnm_exact_quadrature,
    rnm_expo_exact_distribution,
    samples,
    tv_distance,
)

from helpers import make_instance, sampled_verdict


def check(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {status} {criterion}: {detail}", flush=True)
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_pf_equals_rnm_expo_exactly():
    """pf's coin-game DP against rnm-expo's Gauss-Legendre table on 200
    instances at k 2-20, and against both that table and exponential-noise
    quadrature on 3 instances at each of k 32, 64, 128 and 256."""
    start = time.perf_counter()
    worst = worst_large = worst_quadrature = 0.0
    per_eps = (67, 67, 66)  # 200 instances total
    for epsilon, count in zip((0.1, 1.0, 4.0), per_eps):
        for inst in random_instances(
            count, epsilon, 1.0, k_min=2, k_max=20, seed=int(epsilon * 10)
        ):
            tv = tv_distance(
                pf_exact_distribution(inst), rnm_expo_exact_distribution(inst)
            )
            worst = max(worst, tv)
        for k in (32, 64, 128, 256):
            for inst in random_instances(3, epsilon, 1.0, k_min=k, k_max=k, seed=k):
                pf = pf_exact_distribution(inst)
                worst_large = max(worst_large, tv_distance(pf, rnm_expo_exact_distribution(inst)))
                worst_quadrature = max(
                    worst_quadrature, tv_distance(pf, rnm_exact_quadrature(inst, "exponential"))
                )
    elapsed = time.perf_counter() - start
    check(
        "criterion 1 (permute-and-flip = report-noisy-max-expo, 200 instances at k <= 20"
        " by Gauss-Legendre, 36 at k 32-256 by Gauss-Legendre and by quadrature)",
        max(worst, worst_large, worst_quadrature) <= 1e-8,
        f"worst TV {worst:.3e}, {worst_large:.3e} and {worst_quadrature:.3e} <= 1e-8,"
        f" {elapsed:.1f}s",
    )


def test_criterion_2_three_way_oracle_agreement():
    start = time.perf_counter()
    worst = 0.0
    epsilons = [0.1, 1.0, 4.0]
    for i, inst in enumerate(
        random_instances(20, 1.0, 1.0, k_min=2, k_max=10, seed=202)
    ):
        inst = make_instance(
            inst.quality.scores, epsilons[i % 3], 1.0, labels=inst.quality.labels
        )
        tables = [
            pf_exact_distribution(inst),
            rnm_expo_exact_distribution(inst),
            rnm_exact_quadrature(inst, "exponential"),
        ]
        for a in range(3):
            for b in range(a + 1, 3):
                gap = max(
                    abs(x - y)
                    for x, y in zip(tables[a].probabilities, tables[b].probabilities)
                )
                worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    check(
        "criterion 2 (three-way oracle agreement, 20 instances)",
        worst <= 1e-6,
        f"worst per-entry gap {worst:.3e} <= 1e-6, {elapsed:.1f}s",
    )


def test_criterion_3_intermediate_mechanisms_match_pf():
    start = time.perf_counter()
    epsilons = [0.5, 1.0, 2.0]
    failures = 0
    total = 0
    for i, inst in enumerate(
        random_instances(10, 1.0, 1.0, k_min=2, k_max=6, seed=303)
    ):
        inst = make_instance(
            inst.quality.scores, epsilons[i % 3], 1.0, labels=inst.quality.labels
        )
        reference = pf_exact_distribution(inst)
        for mechanism in ("alg-a", "alg-b"):
            _, result = sampled_verdict(mechanism, inst, 1_000_000, 1000 + i, reference)
            total += 1
            if not result.passed:
                failures += 1
    elapsed = time.perf_counter() - start
    check(
        "criterion 3 (coin-game and censored reformulations match pf, 2x10x1e6 samples)",
        failures <= 1,
        f"{failures}/{total} chi-square failures (allowance 1), {elapsed:.1f}s",
    )


def test_criterion_4_gumbel_variant_is_exponential_mechanism():
    start = time.perf_counter()
    epsilons = [0.5, 1.0, 2.0]
    failures = 0
    for i, inst in enumerate(
        random_instances(10, 1.0, 1.0, k_min=2, k_max=6, seed=404)
    ):
        inst = make_instance(
            inst.quality.scores, epsilons[i % 3], 1.0, labels=inst.quality.labels
        )
        _, result = sampled_verdict("rnm-gumbel", inst, 1_000_000, 2000 + i,
                                    em_exact_distribution(inst))
        if not result.passed:
            failures += 1
    elapsed = time.perf_counter() - start
    check(
        "criterion 4 (Gumbel noisy-max matches exponential mechanism, 10x1e6 samples)",
        failures <= 1,
        f"{failures}/10 chi-square failures (allowance 1), {elapsed:.1f}s",
    )


def test_criterion_5_pf_is_not_the_exponential_mechanism():
    inst = make_instance([1.0, 0.0], epsilon=2.0, sensitivity=1.0)
    tv = tv_distance(pf_exact_distribution(inst), em_exact_distribution(inst))
    check(
        "criterion 5 (pf vs em separation on scores [1,0], eps=2)",
        abs(tv - 0.085001) <= 1e-6,
        f"TV {tv:.9f} within 0.085001 +/- 1e-6",
    )


def test_criterion_6_privacy_ratio_audit():
    start = time.perf_counter()
    all_pass = True
    details = []
    pairs = perturbed_neighbor_pairs(100, 1.0, k_min=2, k_max=8, seed=606)
    for oracle in ("pf", "rnm-expo", "em"):
        for epsilon in (0.1, 1.0, 4.0):
            report = privacy_ratio_audit(oracle, pairs, PrivacyParams(epsilon, 1.0))
            if not report.passed:
                all_pass = False
                details.append(
                    f"{oracle}@eps={epsilon}: ratio {report.worst_ratio:.6g} "
                    f"> bound {report.bound:.6g}"
                )
    elapsed = time.perf_counter() - start
    check(
        "criterion 6 (e^eps ratio bound, 100 pairs x 3 oracles x 3 budgets)",
        all_pass,
        "; ".join(details) if details else f"all within e^eps*(1+1e-9), {elapsed:.1f}s",
    )


def test_criterion_7_utility_dominance():
    start = time.perf_counter()
    instances = []
    for epsilon in (0.1, 1.0, 4.0):
        instances.extend(
            random_instances(334, epsilon, 1.0, k_min=2, k_max=10, seed=707)
        )
    report = dominance_check(instances[:1000])
    pinned = make_instance([1.0, 0.0], epsilon=2.0, sensitivity=1.0)
    error_pf = expected_error(pinned, pf_exact_distribution(pinned))
    error_em = expected_error(pinned, em_exact_distribution(pinned))
    pinned_ok = abs(error_pf - 0.183940) <= 1e-6 and abs(error_em - 0.268941) <= 1e-6
    elapsed = time.perf_counter() - start
    check(
        "criterion 7 (pf never worse than em, 1000 instances)",
        report.dominance_violations == 0 and pinned_ok,
        f"{report.dominance_violations} violations; pinned pair "
        f"({error_pf:.6f}, {error_em:.6f}), {elapsed:.1f}s",
    )


def test_criterion_8_sampler_correctness():
    start = time.perf_counter()
    ok = True
    details = []
    for kind, seed in ((Exponential(), 801), (Laplace(), 804), (Gumbel(), 807)):
        draws = samples(kind, RngState(seed), 100_000)
        result = stats.kstest(draws, kind.cdf)
        if result.pvalue < 0.001:
            ok = False
            details.append(f"KS failed for {kind!r} (p={result.pvalue:.2e})")

    memoryless = Exponential()
    draws = samples(memoryless, RngState(888), 400_000)
    for s, t in ((0.5, 0.5), (1.0, 2.0)):
        beyond = draws[draws > s]
        estimate = float(np.mean(beyond > s + t))
        target = math.exp(-t)
        stderr = math.sqrt(target * (1 - target) / beyond.size)
        if abs(estimate - target) > 3 * stderr:
            ok = False
            details.append(f"memorylessness failed at (s={s}, t={t})")
    elapsed = time.perf_counter() - start
    check(
        "criterion 8 (KS tests and exponential memorylessness)",
        ok,
        "; ".join(details) if details else f"3 KS tests + 2 memorylessness checks, {elapsed:.1f}s",
    )


def test_criterion_9_invariance_suite():
    start = time.perf_counter()
    ok = True
    details = []
    oracles = {
        "pf": pf_exact_distribution,
        "rnm-expo": rnm_expo_exact_distribution,
        "em": em_exact_distribution,
    }

    # shift invariance within 1e-10 for c = -1000, +1000
    scores = [1.3, -0.7, 0.2, 0.9, 0.0]
    for name, fn in oracles.items():
        base = fn(make_instance(scores, epsilon=1.7))
        for shift in (-1000.0, 1000.0):
            moved = fn(make_instance([s + shift for s in scores], epsilon=1.7))
            gap = max(
                abs(a - b) for a, b in zip(base.probabilities, moved.probabilities)
            )
            if gap > 1e-10:
                ok = False
                details.append(f"shift invariance broke for {name} at c={shift}")

    # permutation equivariance of the exact oracles
    perm = [3, 1, 0, 2]
    scores4 = [0.8, -0.3, 0.1, 1.9]
    for name, fn in oracles.items():
        base = fn(make_instance(scores4, epsilon=1.5))
        permuted = fn(
            make_instance(
                [scores4[j] for j in perm],
                epsilon=1.5,
                labels=[base.labels[j] for j in perm],
            )
        )
        for position, j in enumerate(perm):
            if abs(permuted.probabilities[position] - base.probabilities[j]) > 1e-12:
                ok = False
                details.append(f"permutation equivariance broke for {name}")
                break

    # monotonicity: bumping one score strictly raises its win probability
    for fn_name, fn in (("em", em_exact_distribution), ("pf", pf_exact_distribution)):
        for inst in random_instances(50, 1.0, 1.0, k_min=2, k_max=8, seed=909):
            i = len(inst.quality) // 2
            bumped_scores = list(inst.quality.scores)
            bumped_scores[i] += 0.1
            bumped = make_instance(bumped_scores, 1.0, 1.0)
            if not fn(bumped).probabilities[i] > fn(inst).probabilities[i]:
                ok = False
                details.append(f"monotonicity broke for {fn_name}")
                break
    elapsed = time.perf_counter() - start
    check(
        "criterion 9 (shift invariance, permutation equivariance, monotonicity)",
        ok,
        "; ".join(details) if details else f"all invariances hold, {elapsed:.1f}s",
    )
