"""Exception types shared across the toolkit.

Everything deriving from ValidationError means "the input was unusable";
the command line maps those to exit code 2. Statistical check outcomes
(equivalence rejected, audit failed) are ordinary return values, never
exceptions.
"""


class DpSelectError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(DpSelectError):
    """An input violated a documented invariant."""


class EmptyOutcomeSet(ValidationError):
    """A quality vector must contain at least one outcome."""


class NonFiniteScore(ValidationError):
    """Quality scores must be finite floats."""


class NonPositiveEpsilon(ValidationError):
    """The privacy budget epsilon must be a positive finite real."""


class NonPositiveSensitivity(ValidationError):
    """The score sensitivity must be a positive finite real."""


class DerivedScaleOverflow(ValidationError):
    """epsilon / sensitivity combination pushes the derived noise
    rate, epsilon / (2 * sensitivity), to 0 or to inf."""


class DuplicateLabel(ValidationError):
    """Outcome labels must be unique within a quality vector."""


class LabelMismatch(ValidationError):
    """Two label sequences that must agree do not."""


class EmptyPairList(ValidationError):
    """At least one neighbor pair is required."""


class TooManyOutcomesForEnumeration(ValidationError):
    """The requested outcome count exceeds 256, the largest at which every
    exact route's and quadrature's error bound is tested."""


class PairExceedsSensitivity(ValidationError):
    """A neighbor pair's score deviation exceeds the declared sensitivity."""


class UnsupportedOracle(ValidationError):
    """The named mechanism has no route for the requested table: no exact
    oracle, no quadrature family, or no sampler."""


class MalformedInputFile(ValidationError):
    """An input file does not match the documented JSON schema."""


class InvalidProbabilityTable(ValidationError):
    """Probability entries outside [0, 1] or not summing to 1."""


class AllCategoriesMerged(DpSelectError):
    """Every category fell below the minimum expected count, leaving
    nothing to test."""


class QuadratureNonConvergence(DpSelectError):
    """Quadrature missed its error target, or lost more mass than it allows."""

    def __init__(self, message: str, achieved_error: float):
        super().__init__(message)
        self.achieved_error = achieved_error
