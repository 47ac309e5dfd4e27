"""Domain types, input validation, and sensitivity estimation.

The private dataset itself is never materialized anywhere in this package.
Every operation starts from a precomputed vector of quality scores, one per
candidate outcome, together with the privacy parameters that calibrate the
noise. All types here are immutable after construction and all functions
are pure, so everything is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DerivedScaleOverflow,
    DuplicateLabel,
    EmptyOutcomeSet,
    EmptyPairList,
    InvalidProbabilityTable,
    LabelMismatch,
    NonFiniteScore,
    NonPositiveEpsilon,
    NonPositiveSensitivity,
)

PROBABILITY_SUM_TOLERANCE = 1e-9
PROBABILITY_CLAMP_TOLERANCE = 1e-12


@dataclass(frozen=True)
class QualityVector:
    """Per-outcome quality scores with opaque string labels.

    Invariants, enforced at construction: at least one outcome, unique
    labels, every score finite.
    """

    labels: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        object.__setattr__(self, "scores", tuple(self.scores))
        if len(self.scores) == 0:
            raise EmptyOutcomeSet("a quality vector needs at least one outcome")
        if len(self.labels) != len(self.scores):
            raise LabelMismatch(f"{len(self.labels)} labels for {len(self.scores)} scores")
        seen: set[str] = set()
        for label in self.labels:
            if label in seen:
                raise DuplicateLabel(f"label {label!r} appears more than once")
            seen.add(label)
        scores = []
        for label, score in zip(self.labels, self.scores):
            try:
                scores.append(float(score))
            except OverflowError:  # an integer beyond the double range
                raise NonFiniteScore(f"score for {label!r} overflows a double") from None
            if not math.isfinite(scores[-1]):
                raise NonFiniteScore(f"score for {label!r} is {scores[-1]!r}")
        object.__setattr__(self, "scores", tuple(scores))

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def best_score(self) -> float:
        """Largest score in the vector; permutation-invariant."""
        return max(self.scores)


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget and quality-score sensitivity.

    The mechanisms add unit-scale noise to the scores times the rate,
    epsilon / (2 * sensitivity), so the rate must be positive and finite;
    DerivedScaleOverflow is raised otherwise (epsilon 5e-324 at sensitivity
    1 gives rate 0). A sensitivity of zero is rejected rather than treated
    as "no noise needed", since the rate divides by it.
    """

    epsilon: float
    sensitivity: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "sensitivity", float(self.sensitivity))
        epsilon, sensitivity = self.epsilon, self.sensitivity
        if not (math.isfinite(epsilon) and epsilon > 0.0):
            raise NonPositiveEpsilon(
                f"epsilon must be a positive finite real, got {epsilon!r}"
            )
        if not (math.isfinite(sensitivity) and sensitivity > 0.0):
            raise NonPositiveSensitivity(
                f"sensitivity must be a positive finite real, got {sensitivity!r}"
            )
        if not 0.0 < self.rate < math.inf:
            raise DerivedScaleOverflow(
                f"epsilon={epsilon!r} with sensitivity={sensitivity!r} gives "
                f"noise rate {self.rate!r}"
            )

    @property
    def rate(self) -> float:
        return self.epsilon / (2.0 * self.sensitivity)


@dataclass(frozen=True)
class ValidatedInstance:
    """A quality vector paired with privacy parameters. Both enforce their
    own invariants when built, so only their types are checked here.
    Obtain one through :func:`validate_instance`."""

    quality: QualityVector
    params: PrivacyParams

    def __post_init__(self) -> None:
        if not isinstance(self.quality, QualityVector):
            raise TypeError("quality must be a QualityVector")
        if not isinstance(self.params, PrivacyParams):
            raise TypeError("params must be a PrivacyParams")


@dataclass(frozen=True)
class NeighborPair:
    """Score vectors induced by two datasets that differ in one person."""

    q1: QualityVector
    q2: QualityVector

    def __post_init__(self) -> None:
        if not isinstance(self.q1, QualityVector) or not isinstance(
            self.q2, QualityVector
        ):
            raise TypeError("q1 and q2 must be QualityVectors")
        if self.q1.labels != self.q2.labels:
            raise LabelMismatch(
                "neighbor pair must share one label sequence, got "
                f"{self.q1.labels!r} vs {self.q2.labels!r}"
            )


@dataclass(frozen=True)
class ProbabilityTable:
    """Output distribution over outcome labels. provenance records how the
    table was produced: "exact-closed-form", "exact-poisson-binomial",
    "exact-gauss-legendre", "quadrature" or "empirical(n=...,seed=...)".
    Entries within 1e-12 outside [0, 1] are clamped; anything worse, or a
    sum off by more than 1e-9, is rejected.
    """

    labels: tuple[str, ...]
    probabilities: tuple[float, ...]
    provenance: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        probs = tuple(float(p) for p in self.probabilities)
        if len(self.labels) != len(probs):
            raise LabelMismatch(
                f"{len(self.labels)} labels for {len(probs)} probabilities"
            )
        if len(probs) == 0:
            raise EmptyOutcomeSet("a probability table needs at least one entry")
        clamped = []
        for p in probs:
            if not (-PROBABILITY_CLAMP_TOLERANCE <= p <= 1.0 + PROBABILITY_CLAMP_TOLERANCE):
                raise InvalidProbabilityTable(f"entry {p!r} outside [0, 1]")
            clamped.append(min(1.0, max(0.0, p)))
        total = math.fsum(clamped)
        if abs(total - 1.0) > PROBABILITY_SUM_TOLERANCE:
            raise InvalidProbabilityTable(f"entries sum to {total!r}, not 1")
        object.__setattr__(self, "probabilities", tuple(clamped))

    def __len__(self) -> int:
        return len(self.probabilities)


def validate_instance(quality: QualityVector, params: PrivacyParams) -> ValidatedInstance:
    """Pair a quality vector with privacy parameters.

    Their invariants (EmptyOutcomeSet, NonFiniteScore, DuplicateLabel,
    NonPositiveEpsilon, NonPositiveSensitivity) are raised when they are
    built; this raises TypeError if either argument has the wrong type.
    """
    return ValidatedInstance(quality=quality, params=params)


def sensitivity_from_pairs(pairs: Sequence[NeighborPair] | Iterable[NeighborPair]) -> float:
    """Largest per-outcome score change observed across the given pairs.

    This is an evidence-based estimate: it maximizes only over the supplied
    pairs, so it lower-bounds the true worst-case sensitivity over all
    neighboring datasets. It never certifies an upper bound.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyPairList("need at least one neighbor pair")
    worst = 0.0
    for pair in pairs:
        for a, b in zip(pair.q1.scores, pair.q2.scores):
            worst = max(worst, abs(a - b))
    return worst

