"""Differentially private selection toolkit.

Selection mechanisms (permute-and-flip, report-noisy-max with exponential,
Laplace, or Gumbel noise, the exponential mechanism), exact
output-distribution oracles for them, and audit tooling that checks the
privacy bound and the utility-dominance claim computationally.

`import dpselect` loads no numpy: each public name below is imported from
its defining submodule on first access (PEP 562), and so is each submodule.
Where numpy is already loaded, everything is imported at once instead.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "core": ("NeighborPair", "PrivacyParams", "ProbabilityTable", "QualityVector",
             "ValidatedInstance", "sensitivity_from_pairs", "validate_instance"),
    "noise": ("Exponential", "Gumbel", "Laplace", "NoiseKind", "RngState", "quantile",
              "samples"),
    "mechanisms": ("MECHANISMS", "SelectionResult", "intermediate_a", "permute_and_flip"),
    "oracle": ("EXACT_ORACLES", "GofResult", "chi_square_gof", "em_exact_distribution",
               "empirical_counts", "empirical_distribution", "pf_exact_distribution",
               "rnm_exact_quadrature", "rnm_expo_exact_distribution", "table_for",
               "tv_distance"),
    "audit": ("AuditReport", "UtilityReport", "dominance_check", "expected_error",
              "perturbed_neighbor_pairs", "privacy_ratio_audit", "random_instances"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "errors", "formats"}

__all__ = sorted([*_HOME, "errors", "formats"])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return list(__all__)


if "numpy" in sys.modules:
    # No BLAS pool is left to keep from starting (see cli.py), so import
    # everything now, as an eager package would: no first call pays for it.
    for _name in __all__:
        __getattr__(_name)
    del _name
