"""Differentially private selection toolkit.

Selection mechanisms (permute-and-flip, report-noisy-max with exponential,
Laplace, or Gumbel noise, the exponential mechanism), exact
output-distribution oracles for them, and audit tooling that checks the
privacy bound and the utility-dominance claim computationally.
"""

from .core import (
    NeighborPair,
    PrivacyParams,
    ProbabilityTable,
    QualityVector,
    ValidatedInstance,
    dong_sensitivity_from_pairs,
    sensitivity_from_pairs,
    validate_instance,
)
from .noise import (
    Exponential,
    Gumbel,
    Laplace,
    NoiseKind,
    RngState,
    cdf,
    pdf,
    quantile,
    sample,
    samples,
)
from .mechanisms import (
    MECHANISMS,
    GapResult,
    SelectionResult,
    argmax_with_gap,
    exponential_mechanism,
    intermediate_a,
    intermediate_b,
    permute_and_flip,
    report_noisy_max,
    report_noisy_max_with_gap,
)
from .oracle import (
    EXACT_ORACLES,
    GofResult,
    chi_square_gof,
    em_exact_distribution,
    empirical_counts,
    empirical_distribution,
    pf_exact_distribution,
    rnm_exact_quadrature,
    rnm_expo_exact_distribution,
    table_for,
    tv_distance,
)
from .audit import (
    AuditReport,
    UtilityReport,
    dominance_check,
    expected_error,
    perturbed_neighbor_pairs,
    privacy_ratio_audit,
    random_instances,
)
from . import errors, formats

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "EXACT_ORACLES",
    "Exponential",
    "GapResult",
    "GofResult",
    "Gumbel",
    "Laplace",
    "MECHANISMS",
    "NeighborPair",
    "NoiseKind",
    "PrivacyParams",
    "ProbabilityTable",
    "QualityVector",
    "RngState",
    "SelectionResult",
    "UtilityReport",
    "ValidatedInstance",
    "argmax_with_gap",
    "cdf",
    "chi_square_gof",
    "dominance_check",
    "dong_sensitivity_from_pairs",
    "em_exact_distribution",
    "empirical_counts",
    "empirical_distribution",
    "errors",
    "expected_error",
    "exponential_mechanism",
    "formats",
    "intermediate_a",
    "intermediate_b",
    "pdf",
    "permute_and_flip",
    "perturbed_neighbor_pairs",
    "pf_exact_distribution",
    "privacy_ratio_audit",
    "quantile",
    "random_instances",
    "report_noisy_max",
    "report_noisy_max_with_gap",
    "rnm_exact_quadrature",
    "rnm_expo_exact_distribution",
    "sample",
    "samples",
    "sensitivity_from_pairs",
    "table_for",
    "tv_distance",
    "validate_instance",
]
