"""Exact and empirical output-distribution computation, plus the
statistical machinery that turns the equivalence claims into executable
checks.

Three independent routes produce the same numbers for the same mechanism
and must keep agreeing:

* closed forms (softmax for the exponential mechanism, an
  inclusion-exclusion sum for report-noisy-max with exponential noise),
* brute-force enumeration over coin-outcome subsets for permute-and-flip,
* adaptive quadrature of the generic win-probability integral, one
  vectorized call over all k entries with a max-norm error bound that
  covers every entry.

The two enumeration-style oracles are deliberately written as separate
loops with no shared subset walk, so a bug in one cannot hide in the
other. Summation order per index is fixed, making results reproducible
bit for bit. table_for is the one place that maps a mechanism and a mode
to its route.

Only rnm_exact_quadrature (scipy.integrate) and chi_square_gof
(scipy.special) use scipy, and they import it when called: every other
route, and every CLI command that needs neither, starts without it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ProbabilityTable, ValidatedInstance
from .errors import (
    AllCategoriesMerged,
    LabelMismatch,
    QuadratureNonConvergence,
    TooManyOutcomesForEnumeration,
    UnsupportedOracle,
)
from .mechanisms import BATCH_DRAWS_PER_OUTCOME, BATCH_SAMPLERS, RNM_FAMILIES
from .noise import Exponential, RngState, from_params, quantile

# 2^20 enumeration terms with magnitudes <= 1 keep the floating-point error
# of the alternating sum near 1e-10, comfortably inside the 1e-8 tolerance
# the equivalence checks use.
ENUMERATION_LIMIT = 20
QUADRATURE_LIMIT = 256
QUADRATURE_TARGET = 1e-9
# truncate the integration domain where every factor's tail mass is below this
_TAIL_MASS = 1e-12
# and split each tail where its mass is these: left whole, each tail takes
# the integrator three bisections, most of its work at small k
_TAIL_SPLITS = (1e-3, 1e-6)

MIN_EXPECTED_COUNT = 5.0

# Batch sampling draws at most this many noise values per chunk, so memory
# stays flat in the number of draws. At 2^14 doubles (128 KiB) a chunk's
# matrices stay cache-sized: 2^15 and 2^16 measured both slower and larger
# in peak memory. Larger arrays also pass glibc's default 128 KiB mmap
# threshold, so a fresh process maps and faults them in on every chunk.
BATCH_ELEMENTS = 2**14


@dataclass(frozen=True)
class GofResult:
    """Pearson goodness-of-fit outcome at a caller-supplied significance."""

    statistic: float
    degrees_of_freedom: int
    p_value: float
    passed: bool


def _check_outcome_count(k: int, limit: int, route: str) -> None:
    if k > limit:
        raise TooManyOutcomesForEnumeration(f"{route} supports at most {limit} outcomes, got {k}")


def em_exact_distribution(inst: ValidatedInstance) -> ProbabilityTable:
    """Closed-form output distribution of the exponential mechanism:
    P(i) proportional to exp(rate * q_i), evaluated in shifted form."""
    scores = np.asarray(inst.quality.scores)
    weights = np.exp(inst.params.rate * (scores - inst.quality.best_score))
    return ProbabilityTable(
        inst.quality.labels, (weights / weights.sum()).tolist(), "exact-closed-form"
    )


def pf_exact_distribution(inst: ValidatedInstance) -> ProbabilityTable:
    """Exact permute-and-flip output distribution by subset enumeration.

    Permute-and-flip is distributed like the coin game that independently
    keeps each outcome j with probability p_j = exp(rate * (q_j - max q))
    and returns a uniform pick among the kept ones. Enumerating, for each
    outcome i, every keep-pattern T of the other outcomes:

        P(i) = sum over T of  p_i * prod_{j in T} p_j
                                  * prod_{j not in T} (1 - p_j) / (|T| + 1)

    Cost is k * 2^(k-1) terms, hence the outcome limit. Memory is two
    buffers of 2^(k-1) doubles, the patterns' |T| + 1 built once and the
    pattern weights refilled in place for every outcome.
    """
    k = len(inst.quality)
    _check_outcome_count(k, ENUMERATION_LIMIT, "enumeration")
    scores = np.asarray(inst.quality.scores)
    keep_probs = np.exp(inst.params.rate * (scores - inst.quality.best_score))
    patterns = 1 << (k - 1)
    # pattern m keeps the others whose bit is set in m, so |T| + 1 doubles
    # the same way the weights do: exact small integers in float
    kept_plus_one = np.empty(patterns)
    kept_plus_one[0] = 1.0
    n = 1
    while n < patterns:
        np.add(kept_plus_one[:n], 1.0, out=kept_plus_one[n : 2 * n])
        n *= 2
    pattern_weight = np.empty(patterns)
    out = np.empty(k)
    for i in range(k):
        pattern_weight[0] = 1.0
        n = 1
        for p_j in np.delete(keep_probs, i):
            np.multiply(pattern_weight[:n], p_j, out=pattern_weight[n : 2 * n])
            pattern_weight[:n] *= 1.0 - p_j
            n *= 2
        pattern_weight /= kept_plus_one
        out[i] = keep_probs[i] * float(np.sum(pattern_weight))
    return ProbabilityTable(inst.quality.labels, out.tolist(), "exact-enumeration")


def rnm_expo_exact_distribution(inst: ValidatedInstance) -> ProbabilityTable:
    """Exact output distribution of report-noisy-max with exponential noise.

    Expanding the win-probability integral of index i by
    inclusion-exclusion over the other outcomes gives, with
    e_j = exp(rate * (q_j - max q)):

        P(i) = sum over subsets T of the others of
               (-1)^|T| * e_i * prod_{j in T} e_j / (|T| + 1)

    Every exponent is <= 0, so each term lies in [-1, 1] and the
    alternating sum stays well-conditioned. Cost is k * 2^(k-1) terms.
    Memory is two buffers of 2^(k-1) doubles, the subsets' |T| + 1 built
    once and the signed products refilled in place for every outcome.
    """
    k = len(inst.quality)
    _check_outcome_count(k, ENUMERATION_LIMIT, "enumeration")
    scores = np.asarray(inst.quality.scores)
    shifted = np.exp(inst.params.rate * (scores - inst.quality.best_score))
    subsets = 1 << (k - 1)
    size_plus_one = np.empty(subsets)
    size_plus_one[0] = 1.0
    n = 1
    while n < subsets:
        np.add(size_plus_one[:n], 1.0, out=size_plus_one[n : 2 * n])
        n *= 2
    signed_product = np.empty(subsets)
    out = np.empty(k)
    for i in range(k):
        signed_product[0] = 1.0
        n = 1
        for e_j in np.delete(shifted, i):
            np.multiply(signed_product[:n], -e_j, out=signed_product[n : 2 * n])
            n *= 2
        signed_product /= size_plus_one
        out[i] = shifted[i] * float(np.sum(signed_product))
    return ProbabilityTable(inst.quality.labels, out.tolist(), "exact-closed-form")


def rnm_exact_quadrature(inst: ValidatedInstance, kind: str) -> ProbabilityTable:
    """Win probabilities of report-noisy-max under any noise family, by
    adaptive quadrature of P(i) = integral of f_i(v) * prod_{j != i} F_j(v).

    One vector-valued quad_vec call integrates all k entries at once. The
    domain is truncated where every factor's tail mass drops below 1e-12
    (analytic bounds per family), the score locations are passed to the
    integrator as known kink points together with the points where each
    tail's mass is 1e-3 and 1e-6, and the result is renormalized. The
    error estimate is taken in the max norm, so it bounds every entry;
    QuadratureNonConvergence is raised if it misses the 1e-9 absolute
    target.
    """
    from scipy import integrate

    k = len(inst.quality)
    _check_outcome_count(k, QUADRATURE_LIMIT, "quadrature")
    noise = from_params(kind, inst.params)
    scores = np.asarray(inst.quality.scores)
    best = inst.quality.best_score
    breaks = [best + quantile(noise, 1.0 - m) for m in _TAIL_SPLITS]
    if isinstance(noise, Exponential):
        lo = best  # some CDF factor is exactly 0 below the best score
    else:
        lowest = float(scores.min())
        lo = lowest + quantile(noise, _TAIL_MASS)
        breaks += [lowest + quantile(noise, m) for m in _TAIL_SPLITS]
    hi = best + quantile(noise, 1.0 - _TAIL_MASS)
    points = sorted({p for p in (*inst.quality.scores, *breaks) if lo < p < hi})
    pdf, cdf = noise.pdf, noise.cdf
    running_product, one = np.multiply.accumulate, np.ones(1)

    def win_integrand(v: float) -> np.ndarray:
        # entry i's product of the other factors is the prefix product before
        # it times the suffix product after it: no division, since a factor
        # can be exactly 0
        x = v - scores
        factors = np.concatenate((one, cdf(x), one))
        before = running_product(factors)[:-2]
        after = running_product(factors[::-1])[-3::-1]
        return pdf(x) * before * after

    raw, abs_error = integrate.quad_vec(
        win_integrand,
        lo,
        hi,
        epsabs=QUADRATURE_TARGET / 10.0,
        epsrel=0.0,
        norm="max",
        limit=400,
        points=points,
    )
    if abs_error > QUADRATURE_TARGET:
        raise QuadratureNonConvergence(
            f"reached absolute error {abs_error:.3e} per entry "
            f"(target {QUADRATURE_TARGET:.0e})",
            achieved_error=float(abs_error),
        )
    return ProbabilityTable(
        inst.quality.labels, (raw / raw.sum()).tolist(), "quadrature"
    )


def empirical_counts(
    mechanism, inst: ValidatedInstance, n: int, seed: int
) -> list[int]:
    """Outcome counts of n independent runs of a mechanism under one seeded
    stream.

    A name from MECHANISMS draws through its vectorized BATCH_SAMPLERS
    entry, in chunks of at most BATCH_ELEMENTS draws: BATCH_ELEMENTS // k
    rows, fewer for a sampler with BATCH_DRAWS_PER_OUTCOME. A callable of
    (instance, rng) runs once per draw. Either way a fixed seed gives the
    same counts bit for bit. The single draws of the rnm-*, em and alg-b
    entries of MECHANISMS are their batch samplers run for one row, so both
    paths give them the same counts. Those of pf and alg-a are separate
    algorithms that consume the stream differently: their loop is the
    single-draw reference the batch samplers are checked against, and one
    seed need not give the same counts on both paths.
    """
    if n < 1:
        raise ValueError(f"need at least one run, got n={n}")
    rng = RngState(seed)
    k = len(inst.quality)
    if callable(mechanism):
        counts = [0] * k
        for _ in range(n):
            counts[mechanism(inst, rng).index] += 1
        return counts
    try:
        sampler = BATCH_SAMPLERS[mechanism]
    except KeyError:
        raise ValueError(
            f"unknown mechanism {mechanism!r}; expected one of {sorted(BATCH_SAMPLERS)}"
        ) from None
    chunk = max(1, BATCH_ELEMENTS // (k * BATCH_DRAWS_PER_OUTCOME.get(mechanism, 1)))
    counts = np.zeros(k, dtype=np.int64)
    for start in range(0, n, chunk):
        counts += np.bincount(sampler(inst, rng, min(chunk, n - start)), minlength=k)
    return counts.tolist()


def empirical_distribution(
    mechanism, inst: ValidatedInstance, n: int, seed: int
) -> ProbabilityTable:
    """Frequency table of n independent mechanism runs; reproducible for a
    fixed seed."""
    counts = empirical_counts(mechanism, inst, n, seed)
    return ProbabilityTable(
        inst.quality.labels,
        [c / n for c in counts],
        f"empirical(n={n},seed={seed})",
    )


def tv_distance(p: ProbabilityTable, q: ProbabilityTable) -> float:
    """Total variation distance, half the L1 distance between the tables."""
    if p.labels != q.labels:
        raise LabelMismatch(
            f"tables cover different outcomes: {p.labels!r} vs {q.labels!r}"
        )
    return 0.5 * math.fsum(abs(a - b) for a, b in zip(p.probabilities, q.probabilities))


def chi_square_gof(
    observed_counts: Sequence[int],
    expected: ProbabilityTable,
    significance: float,
) -> GofResult:
    """Pearson goodness-of-fit of observed counts against an expected table.

    Categories whose expected count falls below 5 are pooled into one tail
    category before computing the statistic. A single category after
    pooling that covers the whole table is a vacuous pass (dof 0); if every
    category needed pooling the test is impossible and AllCategoriesMerged
    is raised. Observed mass on a zero-probability outcome fails outright.
    A significance outside (0, 1) would pass every sample (at 0 or below)
    or none (at 1 or above), so it raises ValueError. So does a count that
    is not a Python or numpy integer, even a whole float: truncating 5000.9
    to 5000 would test other counts than the ones observed.
    """
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must be strictly between 0 and 1, got {significance}")
    try:
        counts = [operator.index(c) for c in observed_counts]
    except TypeError:
        raise ValueError("counts must be integers") from None
    if len(counts) != len(expected):
        raise LabelMismatch(
            f"{len(counts)} counts for {len(expected)} expected categories"
        )
    if any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative")
    total = sum(counts)
    if total < 1:
        raise ValueError("need at least one observation")

    impossible = any(
        c > 0 and p == 0.0 for c, p in zip(counts, expected.probabilities)
    )
    cells = [
        (c, p * total)
        for c, p in zip(counts, expected.probabilities)
        if p > 0.0
    ]
    if impossible:
        return GofResult(math.inf, max(len(cells) - 1, 0), 0.0, False)

    kept = [(c, e) for c, e in cells if e >= MIN_EXPECTED_COUNT]
    pooled = [(c, e) for c, e in cells if e < MIN_EXPECTED_COUNT]
    if not kept:
        raise AllCategoriesMerged(
            f"every expected count is below {MIN_EXPECTED_COUNT} at "
            f"{total} observations"
        )
    if pooled:
        kept.append((sum(c for c, _ in pooled), sum(e for _, e in pooled)))
    if len(kept) == 1:
        return GofResult(0.0, 0, 1.0, True)

    # chdtrc is what scipy.stats.chi2.sf evaluates, bit for bit; importing
    # scipy.special alone costs well under half of scipy.stats
    from scipy.special import chdtrc

    statistic = math.fsum((c - e) ** 2 / e for c, e in kept)
    dof = len(kept) - 1
    p_value = float(chdtrc(dof, statistic))
    return GofResult(statistic, dof, p_value, p_value >= significance)


EXACT_ORACLES: dict[str, Callable[[ValidatedInstance], ProbabilityTable]] = {
    "pf": pf_exact_distribution,
    "rnm-expo": rnm_expo_exact_distribution,
    "em": em_exact_distribution,
}

# mode -> the table whose keys are the mechanisms that mode can compute
_ROUTES = {"exact": EXACT_ORACLES, "quadrature": RNM_FAMILIES, "empirical": BATCH_SAMPLERS}


def table_for(
    mechanism: str, inst: ValidatedInstance, mode: str, n: int = 0, seed: int = 0
) -> ProbabilityTable:
    """A mechanism's output table by one of three routes: "exact" (its
    EXACT_ORACLES entry), "quadrature" (rnm_exact_quadrature with its
    RNM_FAMILIES noise family) or "empirical" (empirical_distribution of n
    seeded draws). Any other pair raises UnsupportedOracle naming the
    mechanisms the mode supports."""
    if mode not in _ROUTES:
        raise UnsupportedOracle(f"unknown mode {mode!r}; expected one of {sorted(_ROUTES)}")
    if mechanism not in _ROUTES[mode]:
        raise UnsupportedOracle(
            f"{mode} mode has no route for {mechanism!r}; "
            f"it supports {sorted(_ROUTES[mode])}"
        )
    if mode == "exact":
        return EXACT_ORACLES[mechanism](inst)
    if mode == "quadrature":
        return rnm_exact_quadrature(inst, RNM_FAMILIES[mechanism])
    return empirical_distribution(mechanism, inst, n, seed)
