"""Batch command-line front end.

Every command reads JSON files, prints exactly one JSON record on standard
output (numbers at 9 significant digits; files keep full double
precision), and reports diagnostics on standard error.

Exit codes: 0 success or check passed, 2 invalid input, 3 check failed.

Each cmd_* handler returns (record, saved) and neither prints nor writes:
record is the dict printed on standard output, saved the dict --out
writes (None for select and compare, which have no --out). main() writes
saved first, then prints record, and exits 3 when record["pass"] is False
and 0 otherwise; a DpSelectError, ValueError or OSError raised on the way
prints one "error: <type>: <message>" line on standard error, nothing on
standard output, and exits 2.

Importing this module sets OPENBLAS_NUM_THREADS to 1 unless the caller has
set it, before numpy loads, so a command starts no BLAS thread pool. Set
the variable yourself (e.g. OPENBLAS_NUM_THREADS=4 dpselect ...) to
override it; once numpy is loaded the variable has no effect.

entrypoint(), which the `dpselect` console script, `python -m dpselect`
and `python -m dpselect.cli` run, freezes the heap the imports built
(gc.freeze()) before the command runs: the command's own objects are
collected as usual, but no collection, shutdown's included, walks the
import-time objects again. Importing this module and calling main() leave
garbage collection as it was, so programs that embed the command line
call main(), not entrypoint().
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import Any

# one verdict per process and no BLAS call big enough to share: no BLAS pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .audit import dominance_check, privacy_ratio_audit, random_instances
from .core import PrivacyParams, validate_instance
from .errors import DpSelectError
from .formats import load_neighbor_pairs, load_quality_vector, write_json
from .mechanisms import MECHANISMS
from .noise import RngState
from .oracle import (
    FACTORS,
    QUADRATURE_LIMIT,
    ROUTES,
    _check_significance,
    chi_square_gof,
    empirical_counts,
    frequency_table,
    table_for,
    tv_distance,
)

MECHANISM_NAMES = sorted(MECHANISMS)
# compare's TV-distance bound in exact and quadrature modes
TV_TOLERANCE = 1e-8


def _nine_significant(obj: Any) -> Any:
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, (list, tuple)):
        return [_nine_significant(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _nine_significant(v) for k, v in obj.items()}
    return obj


def _instance(args: argparse.Namespace):
    quality = load_quality_vector(args.scores)
    return validate_instance(quality, PrivacyParams(args.epsilon, args.sensitivity))


def cmd_select(args: argparse.Namespace) -> tuple[dict, dict | None]:
    inst = _instance(args)
    result = MECHANISMS[args.mechanism](inst, RngState(args.seed))
    return {"label": result.label, "index": result.index}, None


def cmd_dist(args: argparse.Namespace) -> tuple[dict, dict | None]:
    table = table_for(args.mechanism, _instance(args), args.mode, args.n, args.seed).as_dict()
    return table, table


def cmd_compare(args: argparse.Namespace) -> tuple[dict, dict | None]:
    mechanisms = args.mechanism or []
    if len(mechanisms) != 2:
        raise ValueError("compare needs exactly two --mechanism flags")
    inst = _instance(args)
    first, second = mechanisms

    # the first mechanism's table by --mode, the second's always its exact table
    if args.mode != "empirical":
        table = table_for(first, inst, args.mode)
        reference = table_for(second, inst, "exact")
        tv = tv_distance(table, reference)
        return {
            "mechanisms": mechanisms,
            "mode": args.mode,
            "tv_distance": tv,
            "tolerance": TV_TOLERANCE,
            "pass": tv <= TV_TOLERANCE,
            "provenances": [table.provenance, reference.provenance],
        }, None

    # empirical: the reference and the significance are checked before any draw
    _check_significance(args.significance)
    reference = table_for(second, inst, "exact")
    counts = empirical_counts(first, inst, args.n, args.seed)
    empirical = frequency_table(inst, counts, args.seed)
    gof = chi_square_gof(counts, reference, args.significance)
    return {
        "mechanisms": mechanisms,
        "mode": "empirical",
        "n": args.n,
        "tv_distance": tv_distance(empirical, reference),
        "chi_square": {
            "statistic": gof.statistic,
            "degrees_of_freedom": gof.degrees_of_freedom,
            "p_value": gof.p_value,
            "detectable_divergence": gof.detectable_divergence,
            "pass": gof.passed,
        },
        "significance": args.significance,
        "pass": gof.passed,
        "provenances": [empirical.provenance, reference.provenance],
    }, None


def cmd_audit(args: argparse.Namespace) -> tuple[dict, dict | None]:
    pairs = load_neighbor_pairs(args.pairs)
    params = PrivacyParams(args.epsilon, args.sensitivity)
    report = privacy_ratio_audit(args.mechanism, pairs, params)
    verdict = {"bound": report.bound, "worst_ratio": report.worst_ratio, "pass": report.passed}
    return ({"mechanism": args.mechanism, "pairs": len(pairs), **verdict},
            {**verdict, "per_pair": [r.as_dict() for r in report.per_pair]})


def cmd_utility(args: argparse.Namespace) -> tuple[dict, dict | None]:
    params = PrivacyParams(args.epsilon, args.sensitivity)
    if args.scores is not None:
        instances = [validate_instance(load_quality_vector(args.scores), params)]
    else:
        if not 2 <= args.k_max <= QUADRATURE_LIMIT:
            raise ValueError(f"--k-max must be between 2 and {QUADRATURE_LIMIT}, got {args.k_max}")
        instances = random_instances(args.random, args.epsilon, args.sensitivity,
                                     k_max=args.k_max, seed=args.seed)
    report = dominance_check(instances)
    record = {
        "instances": len(instances),
        "dominance_violations": report.dominance_violations,
        "pass": report.dominance_violations == 0,
    }
    if len(instances) == 1:
        record["expected_error_pf"] = report.per_instance[0].expected_error_pf
        record["expected_error_em"] = report.per_instance[0].expected_error_em
    return record, report.as_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpselect",
        description=(
            "Differentially private selection: run mechanisms, compute their "
            "output distributions, compare them, and audit the privacy bound."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    privacy = argparse.ArgumentParser(add_help=False)
    privacy.add_argument("--epsilon", type=float, required=True,
                         help="privacy loss budget, must be > 0")
    privacy.add_argument("--sensitivity", type=float, required=True,
                         help="quality-score sensitivity, must be > 0")
    seeded = argparse.ArgumentParser(add_help=False, parents=[privacy])
    seeded.add_argument("--seed", type=int, default=0,
                        help="unsigned 64-bit stream seed (default: 0)")

    p = sub.add_parser("select", parents=[seeded],
                       help="run one selection and print the chosen outcome")
    p.add_argument("--mechanism", required=True, choices=MECHANISM_NAMES)
    p.add_argument("--scores", required=True, help="quality-vector JSON file")
    p.set_defaults(handler=cmd_select)

    tables = argparse.ArgumentParser(add_help=False)
    tables.add_argument("--scores", required=True, help="quality-vector JSON file")
    tables.add_argument("--mode", choices=list(ROUTES), default="exact",
                        help="how to compute the (first mechanism's) table (default: exact)")
    tables.add_argument("--n", type=int, default=100000,
                        help="samples for empirical mode (default: 100000)")

    p = sub.add_parser("dist", parents=[seeded, tables],
                       help="compute a mechanism's output distribution")
    p.add_argument("--mechanism", required=True, choices=MECHANISM_NAMES)
    p.add_argument("--out", help="write the distribution table to this file")
    p.set_defaults(handler=cmd_dist)

    p = sub.add_parser("compare", parents=[seeded, tables],
                       help="compare two mechanisms' output distributions")
    p.add_argument("--mechanism", action="append", choices=MECHANISM_NAMES,
                   help="give exactly twice: the first's table comes from --mode "
                        "(sampled in empirical mode), the second's is always exact")
    p.add_argument("--significance", type=float, default=0.001,
                   help="chi-square significance for empirical mode "
                        "(default: 0.001)")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("audit", parents=[privacy],
                       help="check per-outcome probability ratios against e^epsilon")
    p.add_argument("--mechanism", required=True, choices=sorted(FACTORS),
                   help="mechanism with an exact oracle")
    p.add_argument("--pairs", required=True, help="neighbor-pairs JSON file")
    p.add_argument("--out", help="write the full audit report to this file")
    p.set_defaults(handler=cmd_audit)

    p = sub.add_parser("utility", parents=[seeded],
                       help="compare expected error of pf vs em")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--scores", help="quality-vector JSON file (single instance)")
    source.add_argument("--random", type=int,
                        help="audit this many (at least 1) random instances instead")
    p.add_argument("--k-max", type=int, default=10, dest="k_max",
                   help=f"largest outcome count for --random, 2 to {QUADRATURE_LIMIT} "
                        "(default: 10)")
    p.add_argument("--out", help="write the full utility report to this file")
    p.set_defaults(handler=cmd_utility)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        record, saved = args.handler(args)
        if saved is not None and args.out:
            write_json(saved, args.out)
        print(json.dumps(_nine_significant(record)))
    except (DpSelectError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 3 if record.get("pass") is False else 0


def entrypoint() -> None:
    # the imports live until the process exits: no collection need walk them
    gc.freeze()
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
