"""Executable verification of the privacy guarantee and the utility
dominance claim, built on the exact log-space oracles (oracle.LOG_ORACLES).

Privacy auditing works only through exact output distributions: Monte
Carlo estimates of per-outcome probability ratios produce false alarms at
any realistic sample size, so mechanisms without an exact oracle are
rejected rather than audited approximately. The audit compares
log-probabilities, |log p1 - log p2| for every outcome of each supplied
neighbor pair, so a probability far below the double range is still
compared exactly: nothing underflows, and no 0/0 rule is needed. An
outcome impossible under both datasets is -inf on both sides and counts
as gap 0. The audit checks the supplied evidence; it does not quantify
over all neighboring datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    NeighborPair,
    PrivacyParams,
    ProbabilityTable,
    QualityVector,
    ValidatedInstance,
    sensitivity_from_pairs,
    validate_instance,
)
from .errors import (
    EmptyPairList,
    LabelMismatch,
    PairExceedsSensitivity,
    UnsupportedOracle,
)
from .oracle import LOG_ORACLES, em_log_tables, pf_log_tables

# multiplicative slack on the e^eps bound, absorbing oracle round-off
RATIO_SLACK = 1e-9
# slack for pf <= em comparisons of expected error
DOMINANCE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PairAudit:
    """Worst per-outcome probability ratio observed for one neighbor pair."""

    pair_index: int
    worst_outcome_label: str
    ratio: float


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a privacy-ratio audit over a batch of neighbor pairs."""

    per_pair: tuple[PairAudit, ...]
    worst_ratio: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class UtilityRecord:
    instance_id: int
    expected_error_pf: float
    expected_error_em: float


@dataclass(frozen=True)
class UtilityReport:
    """Expected selection error of permute-and-flip vs the exponential
    mechanism across a suite of instances."""

    per_instance: tuple[UtilityRecord, ...]
    dominance_violations: int


def privacy_ratio_audit(
    oracle: str,
    pairs: Sequence[NeighborPair],
    params: PrivacyParams,
) -> AuditReport:
    """Check the per-outcome probability ratios of a mechanism's exact
    output distributions against the e^eps bound, over the given pairs.

    oracle names a mechanism with an exact oracle: one of "pf", "rnm-expo",
    "em". Every pair must stay within the declared sensitivity per
    outcome; a violating pair is rejected, not silently skipped. Both
    tables of every pair come from one batched LOG_ORACLES call, and a
    pair's ratio is exp of its largest |log p1 - log p2|, so the check is
    direction-symmetric. The verdict compares the largest gap with
    eps + log1p(RATIO_SLACK), so it holds where e^eps overflows a double
    (the bound then reads inf). The report lists pairs in input order.
    """
    try:
        log_tables = LOG_ORACLES[oracle]
    except (KeyError, TypeError):
        raise UnsupportedOracle(
            f"{oracle!r} has no exact output-distribution oracle; "
            f"expected one of {sorted(LOG_ORACLES)}"
        ) from None
    pairs = list(pairs)
    if not pairs:
        raise EmptyPairList("need at least one neighbor pair to audit")

    for pair_index, pair in enumerate(pairs):
        deviation = sensitivity_from_pairs([pair])
        # tiny relative slack so a pair constructed as q + u with |u| <= delta
        # is not rejected over the last-ulp rounding of q + u
        if deviation > params.sensitivity * (1.0 + 1e-12):
            raise PairExceedsSensitivity(
                f"pair {pair_index} deviates by {deviation!r}, "
                f"declared sensitivity is {params.sensitivity!r}"
            )
    tables = log_tables(
        [validate_instance(q, params) for pair in pairs for q in (pair.q1, pair.q2)]
    )
    per_pair = []
    worst_gap = 0.0
    with np.errstate(over="ignore"):  # a gap above 709.78 is ratio inf
        for pair_index, (pair, log_p1, log_p2) in enumerate(zip(pairs, tables[::2], tables[1::2])):
            # an outcome neither dataset can produce is -inf on both sides: gap 0
            gap = np.abs(np.subtract(log_p1, log_p2, out=np.zeros(len(log_p1)),
                                     where=log_p1 != log_p2))
            worst = int(np.argmax(gap))
            worst_gap = max(worst_gap, float(gap[worst]))
            per_pair.append(PairAudit(pair_index, pair.q1.labels[worst], float(np.exp(gap[worst]))))

    try:
        bound = math.exp(params.epsilon)
    except OverflowError:  # eps above 709.78; the verdict below stays in log space
        bound = math.inf
    return AuditReport(
        per_pair=tuple(per_pair),
        worst_ratio=max(record.ratio for record in per_pair),
        bound=bound,
        passed=worst_gap <= params.epsilon + math.log1p(RATIO_SLACK),
    )


def expected_error(inst: ValidatedInstance, dist: ProbabilityTable) -> float:
    """Expected suboptimality of a selection distribution on an instance:
    sum_i P(i) * (max q - q_i). Nonnegative, and invariant under shifting
    every score by the same constant."""
    if dist.labels != inst.quality.labels:
        raise LabelMismatch(
            f"distribution covers {dist.labels!r}, instance has "
            f"{inst.quality.labels!r}"
        )
    return _expected_loss(dist.probabilities, inst.quality)


def dominance_check(instances: Sequence[ValidatedInstance]) -> UtilityReport:
    """Compare exact expected errors of permute-and-flip and the
    exponential mechanism per instance; count instances where
    permute-and-flip comes out worse beyond the 1e-9 slack. Both errors of
    every instance come from one batched pf_log_tables call and one
    em_log_tables call, at every k. An error above DBL_MAX raises
    ValueError. An empty suite is rejected: it would pass without checking
    anything."""
    if len(instances) == 0:
        raise ValueError("need at least one instance")
    records = []
    violations = 0
    tables = zip(instances, pf_log_tables(instances), em_log_tables(instances))
    for instance_id, (inst, log_pf, log_em) in enumerate(tables):
        error_pf = _expected_loss(np.exp(log_pf).tolist(), inst.quality)
        error_em = _expected_loss(np.exp(log_em).tolist(), inst.quality)
        if not (math.isfinite(error_pf) and math.isfinite(error_em)):
            raise ValueError(f"instance {instance_id}: expected error pf {error_pf!r}, "
                             f"em {error_em!r} is not finite")
        if error_pf > error_em + DOMINANCE_TOLERANCE:
            violations += 1
        records.append(UtilityRecord(instance_id, error_pf, error_em))
    return UtilityReport(per_instance=tuple(records), dominance_violations=violations)


def _expected_loss(probabilities: Sequence[float], quality: QualityVector) -> float:
    """sum_i p_i * (max q - q_i), exactly rounded. Where a loss or the sum
    overflows (a nan from 0 * inf, or fsum's OverflowError), the sum of the
    halved losses, which cannot overflow, doubled last: inf only for an
    error above DBL_MAX."""
    best, pairs = quality.best_score, list(zip(probabilities, quality.scores))
    try:
        plain = math.fsum(p * (best - s) for p, s in pairs)
    except OverflowError:
        plain = math.inf
    if math.isfinite(plain):
        return plain
    return 2.0 * math.fsum(p * (0.5 * best - 0.5 * s) for p, s in pairs)


def random_instances(
    count: int,
    epsilon: float,
    sensitivity: float,
    k_min: int = 2,
    k_max: int = 10,
    seed: int = 0,
) -> list[ValidatedInstance]:
    """Deterministic suite of random instances: outcome count uniform in
    [k_min, k_max], scores i.i.d. uniform in [-5, 5]."""
    gen = np.random.default_rng(seed)
    params = PrivacyParams(epsilon, sensitivity)
    out = []
    for _ in range(count):
        k = int(gen.integers(k_min, k_max + 1))
        scores = gen.uniform(-5.0, 5.0, size=k)
        labels = tuple(f"o{i}" for i in range(k))
        out.append(validate_instance(QualityVector(labels, tuple(scores)), params))
    return out


def perturbed_neighbor_pairs(
    count: int,
    sensitivity: float,
    k_min: int = 2,
    k_max: int = 10,
    seed: int = 0,
) -> list[NeighborPair]:
    """Deterministic suite of neighbor pairs: a base vector with scores
    i.i.d. uniform in [-5, 5] and a copy with every coordinate perturbed by
    a uniform draw within the sensitivity (with a one-part-in-1e9 margin
    against rounding)."""
    gen = np.random.default_rng(seed)
    reach = float(sensitivity) * (1.0 - 1e-9)
    out = []
    for _ in range(count):
        k = int(gen.integers(k_min, k_max + 1))
        labels = tuple(f"o{i}" for i in range(k))
        base = gen.uniform(-5.0, 5.0, size=k)
        shifted = base + gen.uniform(-reach, reach, size=k)
        out.append(
            NeighborPair(
                QualityVector(labels, tuple(base)),
                QualityVector(labels, tuple(shifted)),
            )
        )
    return out
