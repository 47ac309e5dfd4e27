#!/usr/bin/env python3
"""Compare the expected selection error of permute-and-flip against the
exponential mechanism across a privacy-budget grid.

Emits one plot-ready JSON row per epsilon over a fixed random instance
suite: the mean expected error of each mechanism, pf's largest advantage
on one instance (`largest_em_minus_pf`, em's error minus pf's, positive
when pf does better), and `dominance_violations`, the number of instances
where pf's error exceeds em's by more than 1e-9 (which should stay at zero).
"""

from __future__ import annotations

import argparse
import json

from dpselect import (
    PrivacyParams,
    dominance_check,
    random_instances,
)
from dpselect.errors import ValidationError
from dpselect.oracle import QUADRATURE_LIMIT


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--k-max", type=int, default=10, dest="k_max")
    parser.add_argument("--epsilons", type=float, nargs="+",
                        default=[0.05, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.instances < 1:
        parser.error(f"--instances must be at least 1, got {args.instances}")
    if not 2 <= args.k_max <= QUADRATURE_LIMIT:
        parser.error(f"--k-max must be between 2 and {QUADRATURE_LIMIT}, got {args.k_max}")
    for epsilon in args.epsilons:
        try:
            PrivacyParams(epsilon, 1.0)
        except ValidationError as exc:
            parser.error(f"--epsilons: {exc}")

    for epsilon in args.epsilons:
        suite = random_instances(
            args.instances, epsilon, 1.0, k_min=2, k_max=args.k_max, seed=args.seed
        )
        report = dominance_check(suite)
        mean_pf = sum(r.expected_error_pf for r in report.per_instance) / len(suite)
        mean_em = sum(r.expected_error_em for r in report.per_instance) / len(suite)
        largest_gap = max(
            r.expected_error_em - r.expected_error_pf for r in report.per_instance
        )
        print(json.dumps({
            "epsilon": epsilon,
            "instances": args.instances,
            "mean_expected_error_pf": mean_pf,
            "mean_expected_error_em": mean_em,
            "largest_em_minus_pf": largest_gap,
            "dominance_violations": report.dominance_violations,
        }))


if __name__ == "__main__":
    main()
