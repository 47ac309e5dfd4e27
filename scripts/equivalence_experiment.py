#!/usr/bin/env python3
"""Sweep random instances and measure how close the permute-and-flip and
exponential-noise noisy-max output distributions are, exactly and by
simulation.

Prints one JSON row per (epsilon, k) cell: the worst TV distance across
the cell's instances between permute-and-flip's coin-game DP and each of
report-noisy-max's two routes, its exact Gauss-Legendre table and
exponential-noise quadrature, plus the chi-square p-value of sampled runs
of the two reformulation mechanisms against the exact permute-and-flip
table and the test's power: the smallest divergence sum (p - q)^2 / q it
rejects with probability 0.9.
"""

from __future__ import annotations

import argparse
import json

from dpselect import (
    PrivacyParams,
    chi_square_gof,
    empirical_counts,
    pf_exact_distribution,
    random_instances,
    rnm_exact_quadrature,
    rnm_expo_exact_distribution,
    tv_distance,
)
from dpselect.errors import ValidationError
from dpselect.oracle import QUADRATURE_LIMIT


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=20,
                        help="instances per (epsilon, k) cell (default: 20)")
    parser.add_argument("--epsilons", type=float, nargs="+",
                        default=[0.1, 1.0, 4.0])
    parser.add_argument("--k-values", type=int, nargs="+", dest="k_values",
                        default=[2, 4, 8, 12, 16, 20, 32, 64, 128, 256])
    parser.add_argument("--samples", type=int, default=100_000,
                        help="simulation runs per mechanism cell (default: 1e5)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.instances < 1:
        parser.error(f"--instances must be at least 1, got {args.instances}")
    if args.samples < 1:
        parser.error(f"--samples must be at least 1, got {args.samples}")
    for k in args.k_values:
        if not 1 <= k <= QUADRATURE_LIMIT:
            parser.error(f"--k-values must be between 1 and {QUADRATURE_LIMIT}, got {k}")
    for epsilon in args.epsilons:
        try:
            PrivacyParams(epsilon, 1.0)
        except ValidationError as exc:
            parser.error(f"--epsilons: {exc}")

    for epsilon in args.epsilons:
        for k in args.k_values:
            suite = random_instances(
                args.instances, epsilon, 1.0, k_min=k, k_max=k, seed=args.seed
            )
            pf = [pf_exact_distribution(inst) for inst in suite]
            worst_tv = max(tv_distance(table, rnm_expo_exact_distribution(inst))
                           for table, inst in zip(pf, suite))
            worst_quadrature_tv = max(tv_distance(table, rnm_exact_quadrature(inst, "exponential"))
                                      for table, inst in zip(pf, suite))
            gof = {}
            for mechanism in ("alg-a", "alg-b"):
                counts = empirical_counts(mechanism, suite[0], args.samples, seed=args.seed)
                gof[mechanism] = chi_square_gof(counts, pf[0], 0.001)
            print(json.dumps({
                "epsilon": epsilon,
                "k": k,
                "instances": args.instances,
                "worst_exact_tv": worst_tv,
                "worst_quadrature_tv": worst_quadrature_tv,
                "chi_square_p_alg_a": gof["alg-a"].p_value,
                "chi_square_p_alg_b": gof["alg-b"].p_value,
                "detectable_divergence_alg_a": gof["alg-a"].detectable_divergence,
                "detectable_divergence_alg_b": gof["alg-b"].detectable_divergence,
            }))


if __name__ == "__main__":
    main()
