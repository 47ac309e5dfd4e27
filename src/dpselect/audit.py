"""Executable verification of the privacy guarantee and the utility
dominance claim, built on the exact tables of oracle.FACTORS' routes,
each batch's in one padded pass (oracle._padded_tables): the audit reads
their log tables, the dominance check their linear ones.

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
from typing import Sequence

import numpy as np

from .core import (
    NeighborPair,
    PrivacyParams,
    ProbabilityTable,
    QualityVector,
    Record,
    ValidatedInstance,
    sensitivity_from_pairs,
    validate_instance,
)
from .errors import (
    EmptyPairList,
    LabelMismatch,
    PairExceedsSensitivity,
)
from .oracle import _padded_tables

# multiplicative slack on the e^eps bound, absorbing oracle round-off
RATIO_SLACK = 1e-9
# slack for pf <= em comparisons of expected error
DOMINANCE_TOLERANCE = 1e-9


class PairAudit(Record):
    """Worst per-outcome probability ratio observed for one neighbor pair."""

    def __init__(self, pair_index: int, worst_outcome_label: str, ratio: float) -> None:
        self.__dict__.update(pair_index=pair_index, worst_outcome_label=worst_outcome_label,
                             ratio=ratio)


class AuditReport(Record):
    """Outcome of a privacy-ratio audit over a batch of neighbor pairs."""

    def __init__(self, per_pair: tuple[PairAudit, ...], worst_ratio: float, bound: float,
                 passed: bool) -> None:
        self.__dict__.update(per_pair=per_pair, worst_ratio=worst_ratio, bound=bound,
                             passed=passed)


class UtilityRecord(Record):
    def __init__(self, instance_id: int, expected_error_pf: float,
                 expected_error_em: float) -> None:
        self.__dict__.update(instance_id=instance_id, expected_error_pf=expected_error_pf,
                             expected_error_em=expected_error_em)


class UtilityReport(Record):
    """Expected selection error of permute-and-flip vs the exponential
    mechanism across a suite of instances."""

    def __init__(self, per_instance: tuple[UtilityRecord, ...],
                 dominance_violations: int) -> None:
        self.__dict__.update(per_instance=per_instance,
                             dominance_violations=dominance_violations)


def privacy_ratio_audit(oracle: str, pairs: Sequence[NeighborPair],
                        params: PrivacyParams) -> AuditReport:
    """Check the per-outcome probability ratios of a mechanism's exact
    output distributions against the e^eps bound, over the given pairs.

    oracle names a mechanism with an exact oracle: one of "pf", "rnm-expo",
    "em"; _padded_tables raises UnsupportedOracle on any other name, after the
    pairs are checked. Every pair must stay within the declared sensitivity
    per outcome; a violating pair is rejected, not silently skipped. Both
    tables of every pair are rows of one padded matrix of log tables, from
    the mechanism's own route in one _padded_tables pass. A few whole-matrix
    passes take each pair's gaps |log p1 - log p2| where the two differ and
    0 elsewhere, so pads and outcomes impossible under both datasets read
    0, then its first largest gap, and its ratio is exp of that gap, so
    the check is direction-symmetric. The verdict compares the largest gap
    with eps + log1p(RATIO_SLACK), so it holds where e^eps overflows a
    double (the bound then reads inf). The report lists pairs in input
    order.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyPairList("need at least one neighbor pair to audit")

    for pair_index, pair in enumerate(pairs):
        deviation = sensitivity_from_pairs([pair])
        # tiny relative slack so a pair constructed as q + u with |u| <= delta
        # is not rejected over the last-ulp rounding of q + u
        if deviation > params.sensitivity * (1.0 + 1e-12):
            raise PairExceedsSensitivity(f"pair {pair_index} deviates by {deviation!r}, "
                                         f"declared sensitivity is {params.sensitivity!r}")
    instances = [validate_instance(q, params) for pair in pairs for q in (pair.q1, pair.q2)]
    (tables,) = _padded_tables((oracle,), instances, log=True)
    log_p1, log_p2 = tables[::2], tables[1::2]
    # an outcome neither dataset can produce, and a pad, is -inf on both sides: gap 0
    gap = np.abs(np.subtract(log_p1, log_p2, out=np.zeros(log_p1.shape), where=log_p1 != log_p2))
    worst, gaps = np.argmax(gap, axis=1), gap.max(axis=1)
    with np.errstate(over="ignore"):  # a gap above 709.78 is ratio inf
        ratios = np.exp(gaps)
    per_pair = [PairAudit(pair_index, pair.q1.labels[index], ratio)
                for pair_index, (pair, index, ratio)
                in enumerate(zip(pairs, worst.tolist(), ratios.tolist()))]

    try:
        bound = math.exp(params.epsilon)
    except OverflowError:  # eps above 709.78; the verdict below stays in log space
        bound = math.inf
    return AuditReport(
        per_pair=tuple(per_pair),
        worst_ratio=float(ratios.max()),
        bound=bound,
        passed=float(gaps.max()) <= params.epsilon + math.log1p(RATIO_SLACK),
    )


def expected_error(inst: ValidatedInstance, dist: ProbabilityTable) -> float:
    """Expected suboptimality of a selection distribution on an instance:
    sum_i P(i) * (max q - q_i). Nonnegative, and invariant under shifting
    every score by the same constant."""
    if dist.labels != inst.quality.labels:
        raise LabelMismatch(f"distribution covers {dist.labels!r}, "
                            f"instance has {inst.quality.labels!r}")
    return _expected_loss(dist.probabilities, inst.quality)


def dominance_check(instances: Sequence[ValidatedInstance]) -> UtilityReport:
    """Compare exact expected errors of permute-and-flip and the
    exponential mechanism per instance; count instances where
    permute-and-flip comes out worse beyond the 1e-9 slack. Both errors of
    every instance come from one _padded_tables pass for pf and em
    together, which shares the log weights, at every k: the linear tables
    that pf_exact_distribution and em_exact_distribution read bit for bit,
    padded with zeros that no loss reads. An error above DBL_MAX raises
    ValueError. An empty suite is rejected: it would pass without checking
    anything."""
    if len(instances) == 0:
        raise ValueError("need at least one instance")
    records = []
    violations = 0
    pf_tables, em_tables = _padded_tables(("pf", "em"), instances, log=False)
    for instance_id, (inst, pf, em) in enumerate(zip(instances, pf_tables, em_tables)):
        error_pf = _expected_loss(pf.tolist(), inst.quality)
        error_em = _expected_loss(em.tolist(), inst.quality)
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


def _random_vectors(gen: np.random.Generator, count: int, k_min: int, k_max: int):
    """Lazily, count (labels, scores) draws as random_instances describes."""
    for _ in range(count):
        k = int(gen.integers(k_min, k_max + 1))
        yield tuple(f"o{i}" for i in range(k)), gen.uniform(-5.0, 5.0, size=k)


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
    params = PrivacyParams(epsilon, sensitivity)
    vectors = _random_vectors(np.random.default_rng(seed), count, k_min, k_max)
    return [validate_instance(QualityVector(labels, tuple(scores)), params)
            for labels, scores in vectors]


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
    against rounding), drawn right after its base."""
    gen = np.random.default_rng(seed)
    reach = float(sensitivity) * (1.0 - 1e-9)
    out = []
    for labels, base in _random_vectors(gen, count, k_min, k_max):
        shifted = base + gen.uniform(-reach, reach, size=len(base))
        out.append(NeighborPair(QualityVector(labels, tuple(base)),
                                QualityVector(labels, tuple(shifted))))
    return out
