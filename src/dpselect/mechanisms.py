"""The selection mechanisms.

Five samplers over a common instance type: report-noisy-max with
exponential, Laplace, or Gumbel noise; the exponential mechanism sampled
directly from its closed-form output distribution; permute-and-flip; and
two reformulations of permute-and-flip (`intermediate_a`, `intermediate_b`)
that bridge it to report-noisy-max with exponential noise and exist so the
equivalence can be checked empirically. Gap release is layered on top of
report-noisy-max.

All mechanisms are pure functions of (instance, rng). Noisy-score ties have
probability zero with continuous noise and can only arise here through
floating-point coincidence; they break toward the smallest index. Each
mechanism accepts an optional ``trace`` dict that it fills with its
internal variables (noisy scores, permutation, coin probabilities, ...)
for debugging and tests; tracing never changes the draw sequence.

Beside each scalar mechanism sits a batch sampler of (instance, rng, rows)
that runs the same algorithm for many independent draws at once with numpy
and returns one chosen index per row; ``BATCH_SAMPLERS`` holds them under
the ``MECHANISMS`` keys. Each batch sampler follows its own mechanism's
algorithm rather than any equivalence between mechanisms, so sampling one
mechanism never borrows the distribution of another. The scalar versions
stay the single-draw reference the batch samplers are tested against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, MutableMapping, Sequence

import numpy as np

from .core import ValidatedInstance
from .errors import EmptySequence, NeedAtLeastTwoOutcomes
from .noise import Exponential, RngState, from_params, samples

Trace = MutableMapping[str, object]


@dataclass(frozen=True)
class SelectionResult:
    """Chosen outcome: position in the score vector plus its label."""

    index: int
    label: str


@dataclass(frozen=True)
class GapResult:
    """Chosen outcome plus the top-two gap of the underlying noisy scores.

    The gap can be released alongside the winner at no extra privacy cost;
    the winning noisy value itself is never exposed because releasing it
    would cost additional budget.
    """

    index: int
    label: str
    gap: float


def _argmax_first(values: np.ndarray) -> int:
    # np.argmax returns the first maximal position, i.e. smallest index
    return int(np.argmax(values))


def _uniform_pick(mask: np.ndarray, rng: RngState) -> np.ndarray:
    """Per row, a uniformly random True column of a boolean matrix whose
    rows each hold at least one True: the smallest of one uniform key per
    entry, with the False entries masked out."""
    keys = rng.uniforms(mask.size).reshape(mask.shape)
    return np.argmin(np.where(mask, keys, np.inf), axis=1)


def report_noisy_max(
    inst: ValidatedInstance,
    kind: str,
    rng: RngState,
    trace: Trace | None = None,
) -> SelectionResult:
    """Add one independent noise draw per score, return the argmax.

    kind selects the noise family: "exponential" (rate eps/(2*sensitivity),
    nonnegative noise), "laplace", or "gumbel" (both at scale
    2*sensitivity/eps). The Gumbel variant draws from the same output
    distribution as the exponential mechanism.
    """
    noise = from_params(kind, inst.params)
    noisy = np.asarray(inst.quality.scores) + samples(noise, rng, len(inst.quality))
    index = _argmax_first(noisy)
    if trace is not None:
        trace["noisy_scores"] = noisy.tolist()
    return SelectionResult(index, inst.quality.labels[index])


def _report_noisy_max_batch(
    inst: ValidatedInstance, kind: str, rng: RngState, rows: int
) -> np.ndarray:
    """Batch report_noisy_max: row-wise first argmax of the scores plus a
    rows x k matrix of independent noise draws."""
    noise = from_params(kind, inst.params)
    k = len(inst.quality)
    noisy = np.asarray(inst.quality.scores) + samples(noise, rng, rows * k).reshape(rows, k)
    return np.argmax(noisy, axis=1)


def exponential_mechanism(
    inst: ValidatedInstance,
    rng: RngState,
    trace: Trace | None = None,
) -> SelectionResult:
    """Sample index i with probability proportional to
    exp(eps * q_i / (2 * sensitivity)).

    Weights are computed in shifted form exp(rate * (q_i - max q)) so huge
    scores cannot overflow, and the index is drawn by inverting the
    cumulative weight sum with a single uniform. Deliberately not the
    Gumbel-max trick: that lives in report_noisy_max("gumbel"), and keeping
    the two code paths distinct lets tests cross-check them.
    """
    quality = inst.quality
    scores = np.asarray(quality.scores)
    weights = np.exp(inst.params.rate * (scores - quality.best_score))
    cumulative = np.cumsum(weights)
    u = rng.uniform() * cumulative[-1]
    index = int(np.searchsorted(cumulative, u, side="right"))
    if index >= len(quality):  # u landed on the rounded-down total
        index = len(quality) - 1
    if trace is not None:
        trace["selection_probabilities"] = (weights / cumulative[-1]).tolist()
    return SelectionResult(index, quality.labels[index])


def _exponential_mechanism_batch(
    inst: ValidatedInstance, rng: RngState, rows: int
) -> np.ndarray:
    """Batch exponential_mechanism: one searchsorted of rows uniforms over
    the cumulative shifted weights."""
    quality = inst.quality
    weights = np.exp(inst.params.rate * (np.asarray(quality.scores) - quality.best_score))
    cumulative = np.cumsum(weights)
    u = rng.uniforms(rows) * cumulative[-1]
    index = np.searchsorted(cumulative, u, side="right")
    # u can land on the rounded-down total, one past the last index
    return np.minimum(index, len(quality) - 1)


def permute_and_flip(
    inst: ValidatedInstance,
    rng: RngState,
    trace: Trace | None = None,
) -> SelectionResult:
    """Visit outcomes in uniformly random order; for each, flip a coin with
    heads probability exp(rate * (q_i - max q)) and return the first heads.

    At least one outcome attains the maximum score and carries a
    probability-1 coin, so the walk always terminates.
    """
    quality = inst.quality
    rate = inst.params.rate
    best = quality.best_score
    order = rng.permutation(len(quality))
    if trace is not None:
        trace["permutation"] = order
        trace["coin_probabilities"] = [
            math.exp(rate * (s - best)) for s in quality.scores
        ]
    for position, index in enumerate(order):
        heads_probability = math.exp(rate * (quality.scores[index] - best))
        if rng.uniform() < heads_probability:
            if trace is not None:
                trace["flips_used"] = position + 1
            return SelectionResult(index, quality.labels[index])
    raise AssertionError("unreachable: the best outcome's coin has probability 1")


def _permute_and_flip_batch(
    inst: ValidatedInstance, rng: RngState, rows: int
) -> np.ndarray:
    """Batch permute_and_flip: every row flips all k coins up front and
    returns the heads that comes first in a uniformly random visiting
    order, i.e. the heads with the smallest of k uniform order keys.

    The best outcome's coin has probability exactly 1 and a uniform draw is
    below 1, so every row holds at least one heads.
    """
    quality = inst.quality
    k = len(quality)
    heads_probability = np.exp(
        inst.params.rate * (np.asarray(quality.scores) - quality.best_score)
    )
    heads = rng.uniforms(rows * k).reshape(rows, k) < heads_probability
    return _uniform_pick(heads, rng)


def intermediate_a(
    inst: ValidatedInstance,
    rng: RngState,
    trace: Trace | None = None,
) -> SelectionResult:
    """Coin-game reformulation of permute-and-flip.

    Adds exponential noise to every score, keeps the outcomes whose noisy
    score reaches the best true score, and returns a uniform pick among
    them. The keep-set cannot be empty: exponential noise is nonnegative,
    so a maximizing outcome always survives.
    """
    quality = inst.quality
    best = quality.best_score
    noisy = np.asarray(quality.scores) + samples(
        Exponential(inst.params.rate), rng, len(quality)
    )
    kept = np.flatnonzero(noisy >= best)
    assert kept.size > 0, "a maximizing outcome always survives"
    index = int(kept[rng.integers(kept.size)])
    if trace is not None:
        trace["noisy_scores"] = noisy.tolist()
        trace["candidate_set"] = kept.tolist()
    return SelectionResult(index, quality.labels[index])


def _intermediate_a_batch(
    inst: ValidatedInstance, rng: RngState, rows: int
) -> np.ndarray:
    """Batch intermediate_a: per row, a uniform pick among the outcomes
    whose exponentially-noised score reaches the best true score."""
    quality = inst.quality
    k = len(quality)
    noise = samples(Exponential(inst.params.rate), rng, rows * k).reshape(rows, k)
    kept = np.asarray(quality.scores) + noise >= quality.best_score
    return _uniform_pick(kept, rng)


def intermediate_b(
    inst: ValidatedInstance,
    rng: RngState,
    trace: Trace | None = None,
) -> SelectionResult:
    """Censored-noise reformulation bridging permute-and-flip to
    report-noisy-max with exponential noise.

    Caps each exponentially-noised score at the best true score, draws a
    second independent exponential tie-break draw for every outcome (even
    those the cap later excludes, so seeded traces always consume two draws
    per outcome in index order), and returns the argmax of capped score
    plus tie-break over the outcomes whose capped score hit the cap.
    """
    quality = inst.quality
    k = len(quality)
    best = quality.best_score
    draws = samples(Exponential(inst.params.rate), rng, 2 * k)
    capped = np.minimum(best, np.asarray(quality.scores) + draws[0::2])
    tiebreak = draws[1::2]
    survivors = np.flatnonzero(capped == best)
    assert survivors.size > 0, "a maximizing outcome always hits the cap"
    winner = survivors[_argmax_first(capped[survivors] + tiebreak[survivors])]
    index = int(winner)
    if trace is not None:
        trace["capped_scores"] = capped.tolist()
        trace["tiebreak_noise"] = tiebreak.tolist()
        trace["candidate_set"] = survivors.tolist()
    return SelectionResult(index, quality.labels[index])


def _intermediate_b_batch(
    inst: ValidatedInstance, rng: RngState, rows: int
) -> np.ndarray:
    """Batch intermediate_b: per row, the first argmax of capped score plus
    tie-break over the outcomes whose capped score hit the cap. Draws are
    laid out as in the scalar version, score noise and tie-break
    interleaved per outcome."""
    quality = inst.quality
    k = len(quality)
    best = quality.best_score
    draws = samples(Exponential(inst.params.rate), rng, rows * 2 * k).reshape(rows, 2 * k)
    capped = np.minimum(best, np.asarray(quality.scores) + draws[:, 0::2])
    candidates = np.where(capped == best, capped + draws[:, 1::2], -np.inf)
    return np.argmax(candidates, axis=1)


def argmax_with_gap(noisy_values: Sequence[float]) -> tuple[int, float]:
    """First maximal index and the top-minus-second gap of a value sequence.

    For a single value the gap is reported as 0.0 (flagged with a warning)
    rather than an infinite sentinel. The maximal value itself is never
    part of the result.
    """
    values = [float(v) for v in noisy_values]
    if len(values) == 0:
        raise EmptySequence("argmax_with_gap needs at least one value")
    if len(values) == 1:
        warnings.warn(
            "gap is degenerate for a single outcome; reporting 0.0",
            stacklevel=2,
        )
        return 0, 0.0
    best_index = 0
    best = values[0]
    second = -math.inf
    for i in range(1, len(values)):
        v = values[i]
        if v > best:
            second = best
            best = v
            best_index = i
        elif v > second:
            second = v
    return best_index, best - second


def report_noisy_max_with_gap(
    inst: ValidatedInstance,
    kind: str,
    rng: RngState,
    trace: Trace | None = None,
) -> GapResult:
    """Report-noisy-max that additionally releases the top-two gap.

    Runs report_noisy_max itself and takes the gap from the noisy scores
    it traces, so the draws and the index match it seed for seed.
    """
    if len(inst.quality) < 2:
        raise NeedAtLeastTwoOutcomes("gap release needs at least two outcomes")
    if trace is None:
        trace = {}
    result = report_noisy_max(inst, kind, rng, trace)
    _, gap = argmax_with_gap(trace["noisy_scores"])
    return GapResult(result.index, result.label, gap)


# noisy-max mechanism name -> noise family; the single source for both
# mechanism tables below and for the oracle's quadrature route
RNM_FAMILIES: dict[str, str] = {
    "rnm-expo": "exponential",
    "rnm-laplace": "laplace",
    "rnm-gumbel": "gumbel",
}


def _with_family(fn: Callable, kind: str) -> Callable:
    """fn(inst, kind, rng, ...) as a table entry of (inst, rng, ...)."""

    def entry(inst, rng, *args, **kwargs):
        return fn(inst, kind, rng, *args, **kwargs)

    return entry


MECHANISMS: dict[str, Callable[..., SelectionResult]] = {
    "pf": permute_and_flip,
    **{name: _with_family(report_noisy_max, kind) for name, kind in RNM_FAMILIES.items()},
    "em": exponential_mechanism,
    "alg-a": intermediate_a,
    "alg-b": intermediate_b,
}


BATCH_SAMPLERS: dict[str, Callable[[ValidatedInstance, RngState, int], np.ndarray]] = {
    "pf": _permute_and_flip_batch,
    **{name: _with_family(_report_noisy_max_batch, kind) for name, kind in RNM_FAMILIES.items()},
    "em": _exponential_mechanism_batch,
    "alg-a": _intermediate_a_batch,
    "alg-b": _intermediate_b_batch,
}

# noise draws per outcome in one batch row, for the samplers that take more
# than one; empirical_counts sizes its chunks by it
BATCH_DRAWS_PER_OUTCOME: dict[str, int] = {"alg-b": 2}
