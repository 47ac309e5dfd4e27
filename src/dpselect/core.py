"""Domain types, input validation, and sensitivity estimation.

The private dataset itself is never materialized anywhere in this package.
Every operation starts from a precomputed vector of quality scores, one per
candidate outcome, together with the privacy parameters that calibrate the
noise. All types here are immutable after construction and all functions
are pure, so everything is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
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


class Record:
    """Immutable value type, built without generated code. Its fields are
    the parameters of its __init__, in order, which __init_subclass__
    reads off the signature into _fields. __init__ stores each field once,
    through self.__dict__, so vars(record) maps the fields to their values.
    Setting or deleting an attribute raises AttributeError. Records of one
    type with equal fields are equal and hash alike; records of different
    types are unequal. repr is Name(field=value, ...); pickle and copy
    restore the __dict__ without calling __init__. as_dict() converts
    recursively, records inside records and tuples included."""

    _fields: tuple[str, ...] = ()

    def __init__(self) -> None:
        """A record without fields, such as a noise family."""

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def as_dict(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in self._fields}


def _plain(value: object) -> object:
    if isinstance(value, Record):
        return value.as_dict()
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value


class QualityVector(Record):
    """Per-outcome quality scores with opaque string labels.

    Invariants, enforced at construction: at least one outcome, unique
    labels, every score finite. Stored as tuples of str and of float.
    """

    def __init__(self, labels: Iterable[str], scores: Iterable[float]) -> None:
        labels, scores = tuple(map(str, labels)), tuple(scores)
        if len(scores) == 0:
            raise EmptyOutcomeSet("a quality vector needs at least one outcome")
        if len(labels) != len(scores):
            raise LabelMismatch(f"{len(labels)} labels for {len(scores)} scores")
        seen: set[str] = set()
        for label in labels:
            if label in seen:
                raise DuplicateLabel(f"label {label!r} appears more than once")
            seen.add(label)
        floats = []
        for label, score in zip(labels, scores):
            try:
                floats.append(float(score))
            except OverflowError:  # an integer beyond the double range
                raise NonFiniteScore(f"score for {label!r} overflows a double") from None
            if not math.isfinite(floats[-1]):
                raise NonFiniteScore(f"score for {label!r} is {floats[-1]!r}")
        self.__dict__.update(labels=labels, scores=tuple(floats))

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def best_score(self) -> float:
        """Largest score in the vector; permutation-invariant."""
        return max(self.scores)


class PrivacyParams(Record):
    """Privacy budget and quality-score sensitivity, stored as floats.

    The mechanisms add unit-scale noise to the scores times the rate,
    epsilon / (2 * sensitivity), so the rate must be positive and finite;
    DerivedScaleOverflow is raised otherwise (epsilon 5e-324 at sensitivity
    1 gives rate 0). A sensitivity of zero is rejected rather than treated
    as "no noise needed", since the rate divides by it.
    """

    def __init__(self, epsilon: float, sensitivity: float) -> None:
        epsilon, sensitivity = float(epsilon), float(sensitivity)
        if not (math.isfinite(epsilon) and epsilon > 0.0):
            raise NonPositiveEpsilon(
                f"epsilon must be a positive finite real, got {epsilon!r}"
            )
        if not (math.isfinite(sensitivity) and sensitivity > 0.0):
            raise NonPositiveSensitivity(
                f"sensitivity must be a positive finite real, got {sensitivity!r}"
            )
        self.__dict__.update(epsilon=epsilon, sensitivity=sensitivity)
        if not 0.0 < self.rate < math.inf:
            raise DerivedScaleOverflow(
                f"epsilon={epsilon!r} with sensitivity={sensitivity!r} gives "
                f"noise rate {self.rate!r}"
            )

    @property
    def rate(self) -> float:
        return self.epsilon / (2.0 * self.sensitivity)


class ValidatedInstance(Record):
    """A quality vector paired with privacy parameters. Both enforce their
    own invariants when built, so only their types are checked here.
    Obtain one through :func:`validate_instance`."""

    def __init__(self, quality: QualityVector, params: PrivacyParams) -> None:
        if not isinstance(quality, QualityVector):
            raise TypeError("quality must be a QualityVector")
        if not isinstance(params, PrivacyParams):
            raise TypeError("params must be a PrivacyParams")
        self.__dict__.update(quality=quality, params=params)


class NeighborPair(Record):
    """Score vectors induced by two datasets that differ in one person."""

    def __init__(self, q1: QualityVector, q2: QualityVector) -> None:
        if not isinstance(q1, QualityVector) or not isinstance(q2, QualityVector):
            raise TypeError("q1 and q2 must be QualityVectors")
        if q1.labels != q2.labels:
            raise LabelMismatch(
                "neighbor pair must share one label sequence, got "
                f"{q1.labels!r} vs {q2.labels!r}"
            )
        self.__dict__.update(q1=q1, q2=q2)


def _clamped(p: float) -> float:
    if not -PROBABILITY_CLAMP_TOLERANCE <= p <= 1.0 + PROBABILITY_CLAMP_TOLERANCE:
        raise InvalidProbabilityTable(f"entry {p!r} outside [0, 1]")
    return min(1.0, max(0.0, p))


class ProbabilityTable(Record):
    """Output distribution over outcome labels. provenance records how the
    table was produced: "exact-closed-form", "exact-poisson-binomial",
    "exact-gauss-legendre", "quadrature" or "empirical(n=...,seed=...)".
    Entries within 1e-12 outside [0, 1] are clamped; anything worse, or a
    sum off by more than 1e-9, is rejected.
    """

    def __init__(self, labels: Iterable[str], probabilities: Iterable[float],
                 provenance: str) -> None:
        labels, probs = tuple(map(str, labels)), tuple(map(float, probabilities))
        if len(labels) != len(probs):
            raise LabelMismatch(f"{len(labels)} labels for {len(probs)} probabilities")
        if len(probs) == 0:
            raise EmptyOutcomeSet("a probability table needs at least one entry")
        probs = tuple(map(_clamped, probs))
        total = math.fsum(probs)
        if abs(total - 1.0) > PROBABILITY_SUM_TOLERANCE:
            raise InvalidProbabilityTable(f"entries sum to {total!r}, not 1")
        self.__dict__.update(labels=labels, probabilities=probs, provenance=provenance)

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

