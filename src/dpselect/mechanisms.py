"""The selection mechanisms.

Five samplers over a common instance type: report-noisy-max with
exponential, Laplace, or Gumbel noise; the exponential mechanism sampled
directly from its closed-form output distribution; permute-and-flip; and
two reformulations of permute-and-flip (`intermediate_a`, `intermediate_b`)
that bridge it to report-noisy-max with exponential noise and exist so the
equivalence can be checked empirically.

Every mechanism sees the scores only through log_weights, in units of the
noise scale relative to the best: permute-and-flip's coins are its exp,
and every sampler that adds noise adds a unit-scale draw to it and
compares with 0, so no score's ulp can round the noise away.

All mechanisms are pure functions of (instance, rng). Noisy-score ties have
probability zero with continuous noise and can only arise here through
floating-point coincidence; they break toward the smallest index.

Each mechanism has a batch sampler of (instance, rng, rows) that runs its
algorithm for many independent draws at once with numpy and returns one
chosen index per row; ``BATCH_SAMPLERS`` holds them under the
``MECHANISMS`` keys. Each batch sampler follows its own mechanism's
algorithm rather than any equivalence between mechanisms, so sampling one
mechanism never borrows the distribution of another. A single draw of
report-noisy-max, the exponential mechanism or `intermediate_b` is its
batch sampler run for one row. Permute-and-flip's sequential walk and
`intermediate_a`'s integer pick are different algorithms from their batch
samplers and stay the single-draw references those are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ValidatedInstance
from .noise import NOISE_FAMILIES, RngState, samples


@dataclass(frozen=True)
class SelectionResult:
    """Chosen outcome: position in the score vector plus its label."""

    index: int
    label: str


def _one_row(inst: ValidatedInstance, indices: np.ndarray) -> SelectionResult:
    """The draw of a batch sampler run for one row."""
    index = int(indices[0])
    return SelectionResult(index, inst.quality.labels[index])


def _uniform_pick(mask: np.ndarray, rng: RngState) -> np.ndarray:
    """Per row, a uniformly random True column of a boolean matrix whose
    rows each hold at least one True: the smallest of one uniform key per
    entry, with the False entries masked out."""
    keys = rng.uniforms(mask.size).reshape(mask.shape)
    return np.argmin(keys + ~mask, axis=1)  # a masked key + 1 >= 1 never wins


def log_weights(inst: ValidatedInstance) -> np.ndarray:
    """Each outcome's gamma_i = rate * (q_i - max q) <= 0, the log of its
    shifted weight and its score in units of the noise scale, relative to
    the best. The halved difference cannot overflow, and doubling it last
    gives rate * (q_i - max q) bit for bit wherever that difference is
    finite and gamma_i is normal or 0. It is -inf (weight 0) only where
    gamma_i is below -DBL_MAX: a Python float overflows without a warning,
    and at the usual k a list beats numpy's per-call overhead."""
    rate, best = inst.params.rate, inst.quality.best_score
    return np.array([rate * (0.5 * q - 0.5 * best) * 2.0 for q in inst.quality.scores])


def report_noisy_max(inst: ValidatedInstance, kind: str, rng: RngState) -> SelectionResult:
    """Add one independent noise draw per score, return the argmax.

    kind selects the noise family, "exponential", "laplace" or "gumbel",
    whose unit law is added to log_weights: the scores in units of the
    noise scale 2*sensitivity/eps. The Gumbel variant draws from the same
    output distribution as the exponential mechanism.
    """
    return _one_row(inst, _report_noisy_max_batch(inst, kind, rng, 1))


def _report_noisy_max_batch(
    inst: ValidatedInstance, kind: str, rng: RngState, rows: int
) -> np.ndarray:
    """Batch report_noisy_max: the row-wise first argmax of log_weights plus
    a rows x k matrix of independent unit-scale draws of the given family."""
    k = len(inst.quality)
    draws = samples(NOISE_FAMILIES[kind], rng, rows * k).reshape(rows, k)
    return np.argmax(log_weights(inst) + draws, axis=1)


def exponential_mechanism(inst: ValidatedInstance, rng: RngState) -> SelectionResult:
    """Sample index i with probability proportional to
    exp(eps * q_i / (2 * sensitivity)).

    Weights are computed in shifted form exp(rate * (q_i - max q)) so huge
    scores cannot overflow, and the index is drawn by inverting the
    cumulative weight sum with a single uniform. Deliberately not the
    Gumbel-max trick: that lives in report_noisy_max("gumbel"), and keeping
    the two code paths distinct lets tests cross-check them.
    """
    return _one_row(inst, _exponential_mechanism_batch(inst, rng, 1))


def _exponential_mechanism_batch(
    inst: ValidatedInstance, rng: RngState, rows: int
) -> np.ndarray:
    """Batch exponential_mechanism: one searchsorted of rows uniforms over
    the cumulative shifted weights."""
    cumulative = np.cumsum(np.exp(log_weights(inst)))
    u = rng.uniforms(rows) * cumulative[-1]
    index = np.searchsorted(cumulative, u, side="right")
    # u can land on the rounded-down total, one past the last index
    return np.minimum(index, len(inst.quality) - 1)


def permute_and_flip(inst: ValidatedInstance, rng: RngState) -> SelectionResult:
    """Visit outcomes in uniformly random order; for each, flip a coin with
    heads probability exp(rate * (q_i - max q)) and return the first heads.

    At least one outcome attains the maximum score and carries a
    probability-1 coin, so the walk always terminates.
    """
    gamma = log_weights(inst).tolist()
    for index in rng.permutation(len(gamma)):
        if rng.uniform() < math.exp(gamma[index]):
            return SelectionResult(index, inst.quality.labels[index])
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
    k = len(inst.quality)
    heads = rng.uniforms(rows * k).reshape(rows, k) < np.exp(log_weights(inst))
    return _uniform_pick(heads, rng)


def intermediate_a(inst: ValidatedInstance, rng: RngState) -> SelectionResult:
    """Coin-game reformulation of permute-and-flip.

    Adds unit-scale exponential noise to every log weight, keeps the
    outcomes whose noisy value reaches the best true score's 0, and returns
    a uniform pick among them. The keep-set cannot be empty: exponential
    noise is nonnegative, so a maximizing outcome always survives.
    """
    gamma = log_weights(inst)
    kept = np.flatnonzero(gamma + samples(NOISE_FAMILIES["exponential"], rng, len(gamma)) >= 0.0)
    assert kept.size > 0, "a maximizing outcome always survives"
    index = int(kept[rng.integers(kept.size)])
    return SelectionResult(index, inst.quality.labels[index])


def _intermediate_a_batch(
    inst: ValidatedInstance, rng: RngState, rows: int
) -> np.ndarray:
    """Batch intermediate_a: per row, a uniform pick among the outcomes
    whose exponentially-noised log weight reaches 0, the best score's."""
    k = len(inst.quality)
    noise = samples(NOISE_FAMILIES["exponential"], rng, rows * k).reshape(rows, k)
    return _uniform_pick(log_weights(inst) + noise >= 0.0, rng)


def intermediate_b(inst: ValidatedInstance, rng: RngState) -> SelectionResult:
    """Censored-noise reformulation bridging permute-and-flip to
    report-noisy-max with exponential noise.

    Caps each log weight plus unit-scale exponential noise at 0, the best
    true score's, draws a second independent tie-break draw for every
    outcome (even those the cap later excludes, so a seeded draw always
    consumes two draws per outcome, score noise and tie-break interleaved
    in index order), and returns the first argmax of capped value plus
    tie-break over the outcomes whose capped value hit the cap. A
    maximizing outcome always hits the cap, so that set is never empty.
    """
    return _one_row(inst, _intermediate_b_batch(inst, rng, 1))


def _intermediate_b_batch(
    inst: ValidatedInstance, rng: RngState, rows: int
) -> np.ndarray:
    """Batch intermediate_b: per row, the first argmax of capped log weight
    plus tie-break, with the outcomes below the cap masked out."""
    k = len(inst.quality)
    draws = samples(NOISE_FAMILIES["exponential"], rng, rows * 2 * k).reshape(rows, 2 * k)
    capped = np.minimum(0.0, log_weights(inst) + draws[:, 0::2])
    # below the cap an outcome keeps capped < 0 <= every candidate's value
    return np.argmax(capped + draws[:, 1::2] * (capped == 0.0), axis=1)


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
