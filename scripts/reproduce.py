#!/usr/bin/env python3
"""Reproduce the paper's two claims from seed 0 as one JSON record.

Prints {"seed": 0, "equivalence": [...], "utility": [...]}.

equivalence: permute-and-flip is report-noisy-max with exponential noise.
One row per (epsilon, k) cell of random instances: the worst TV distance
across the cell's instances between permute-and-flip's coin-game DP and
each of report-noisy-max's two routes, its exact Gauss-Legendre table and
exponential-noise quadrature, plus the chi-square p-value of sampled runs
of the two reformulation mechanisms against the exact permute-and-flip
table and the test's power: the smallest divergence sum (p - q)^2 / q it
rejects with probability 0.9.

utility: permute-and-flip's expected error never exceeds the exponential
mechanism's. One row per epsilon over a random instance suite: the mean
expected error of each mechanism, pf's largest advantage on one instance
(`largest_em_minus_pf`, em's error minus pf's, positive when pf does
better), and `dominance_violations`, the number of instances where pf's
error exceeds em's by more than 1e-9 (which should stay at zero).

Takes no options; the grid is the constants below. Run from any directory:

    python3 scripts/reproduce.py
"""

from __future__ import annotations

import argparse
import json

from dpselect import (
    chi_square_gof,
    dominance_check,
    empirical_counts,
    pf_exact_distribution,
    random_instances,
    rnm_exact_quadrature,
    rnm_expo_exact_distribution,
    tv_distance,
)

SEED = 0
EQUIVALENCE_EPSILONS = (0.1, 1.0, 4.0)
EQUIVALENCE_K = (2, 4, 8, 12, 16, 20, 32, 64, 128, 256)
EQUIVALENCE_INSTANCES = 20  # per (epsilon, k) cell
EQUIVALENCE_SAMPLES = 100_000  # simulation runs per mechanism cell
UTILITY_EPSILONS = (0.05, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0)
UTILITY_INSTANCES = 200
UTILITY_K_MAX = 10


def equivalence_row(epsilon: float, k: int) -> dict:
    suite = random_instances(EQUIVALENCE_INSTANCES, epsilon, 1.0, k_min=k, k_max=k, seed=SEED)
    pf = [pf_exact_distribution(inst) for inst in suite]
    worst_tv = max(tv_distance(table, rnm_expo_exact_distribution(inst))
                   for table, inst in zip(pf, suite))
    worst_quadrature_tv = max(tv_distance(table, rnm_exact_quadrature(inst, "exponential"))
                              for table, inst in zip(pf, suite))
    gof = {}
    for mechanism in ("alg-a", "alg-b"):
        counts = empirical_counts(mechanism, suite[0], EQUIVALENCE_SAMPLES, seed=SEED)
        gof[mechanism] = chi_square_gof(counts, pf[0], 0.001)
    return {
        "epsilon": epsilon,
        "k": k,
        "instances": EQUIVALENCE_INSTANCES,
        "worst_exact_tv": worst_tv,
        "worst_quadrature_tv": worst_quadrature_tv,
        "chi_square_p_alg_a": gof["alg-a"].p_value,
        "chi_square_p_alg_b": gof["alg-b"].p_value,
        "detectable_divergence_alg_a": gof["alg-a"].detectable_divergence,
        "detectable_divergence_alg_b": gof["alg-b"].detectable_divergence,
    }


def utility_row(epsilon: float) -> dict:
    suite = random_instances(UTILITY_INSTANCES, epsilon, 1.0, k_min=2, k_max=UTILITY_K_MAX,
                             seed=SEED)
    report = dominance_check(suite)
    return {
        "epsilon": epsilon,
        "instances": UTILITY_INSTANCES,
        "mean_expected_error_pf":
            sum(r.expected_error_pf for r in report.per_instance) / len(suite),
        "mean_expected_error_em":
            sum(r.expected_error_em for r in report.per_instance) / len(suite),
        "largest_em_minus_pf":
            max(r.expected_error_em - r.expected_error_pf for r in report.per_instance),
        "dominance_violations": report.dominance_violations,
    }


def main() -> None:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    print(json.dumps({
        "seed": SEED,
        "equivalence": [equivalence_row(epsilon, k)
                        for epsilon in EQUIVALENCE_EPSILONS for k in EQUIVALENCE_K],
        "utility": [utility_row(epsilon) for epsilon in UTILITY_EPSILONS],
    }, indent=1))


if __name__ == "__main__":
    main()
