"""The selection mechanisms.

Seven samplers over a common instance type: report-noisy-max with
exponential, Laplace, or Gumbel noise; the exponential mechanism sampled
directly from its closed-form output distribution; permute-and-flip; and
two reformulations of permute-and-flip, alg-a (`intermediate_a`) and
alg-b, that bridge it to report-noisy-max with exponential noise and exist
so the equivalence can be checked empirically.

Every mechanism sees the scores only through log_weights, in units of the
noise scale relative to the best: permute-and-flip's coins are its exp,
and every sampler that adds noise adds a unit-scale draw to it and
compares with 0, so no score's ulp can round the noise away.

All mechanisms are pure functions of (instance, rng). Noisy-score ties have
probability zero with continuous noise and can only arise here through
floating-point coincidence; they break toward the smallest index.

``BATCH_SAMPLERS`` is the one hand-written table: per mechanism, a batch
sampler of (instance, rng, rows) that runs its algorithm for many
independent draws at once with numpy and returns one chosen index per row.
Each follows its own mechanism's algorithm rather than any equivalence
between mechanisms, so sampling one mechanism never borrows the
distribution of another. ``MECHANISMS`` is derived from it under the same
keys: a single draw is the batch sampler run for one row, except for
permute-and-flip's sequential walk and `intermediate_a`'s integer pick,
which are different algorithms from their batch samplers and stay the
single-draw references those are tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ValidatedInstance
from .noise import NOISE_FAMILIES, RngState, samples

# glibc maps each fresh block of 128 KiB or more, page faults and all, until
# it frees a larger one: freeing 1 MiB lets the chunk arrays reuse the heap
np.empty(2**17)


@dataclass(frozen=True)
class SelectionResult:
    """Chosen outcome: position in the score vector plus its label."""

    index: int
    label: str


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


def _report_noisy_max_batch(
    inst: ValidatedInstance, rng: RngState, rows: int, kind: str
) -> np.ndarray:
    """Report-noisy-max: per row, add one independent noise draw per score
    and return the first argmax, over a rows x k matrix of unit-scale draws
    of the family kind, "exponential", "laplace" or "gumbel", added to
    log_weights: the scores in units of the noise scale 2*sensitivity/eps.
    The Gumbel variant draws from the same output distribution as the
    exponential mechanism."""
    k = len(inst.quality)
    draws = samples(NOISE_FAMILIES[kind], rng, rows * k).reshape(rows, k)
    return np.argmax(log_weights(inst) + draws, axis=1)


def _exponential_mechanism_batch(
    inst: ValidatedInstance, rng: RngState, rows: int
) -> np.ndarray:
    """The exponential mechanism: index i with probability proportional to
    exp(eps * q_i / (2 * sensitivity)), from shifted weights
    exp(rate * (q_i - max q)) so huge scores cannot overflow, by one
    searchsorted of rows uniforms over the cumulative weights. Deliberately
    not the Gumbel-max trick: that is report-noisy-max with Gumbel noise,
    and keeping the two code paths distinct lets tests cross-check them."""
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


def _intermediate_b_batch(
    inst: ValidatedInstance, rng: RngState, rows: int
) -> np.ndarray:
    """Censored-noise reformulation (alg-b) bridging permute-and-flip to
    report-noisy-max with exponential noise.

    Caps each log weight plus unit-scale exponential noise at 0, the best
    true score's, and returns per row the first argmax of capped value plus
    a second independent tie-break draw, with the outcomes below the cap
    masked out. Every outcome gets its tie-break, even those the cap
    excludes, so a row consumes two draws per outcome, score noise and
    tie-break interleaved in index order. A maximizing outcome always hits
    the cap, so the masked set is never empty.
    """
    k = len(inst.quality)
    draws = samples(NOISE_FAMILIES["exponential"], rng, rows * 2 * k).reshape(rows, 2 * k)
    capped = np.minimum(0.0, log_weights(inst) + draws[:, 0::2])
    # below the cap an outcome keeps capped < 0 <= every candidate's value
    return np.argmax(capped + draws[:, 1::2] * (capped == 0.0), axis=1)


# noisy-max mechanism name -> noise family; the single source for the
# sampler table below and for the oracle's quadrature route
RNM_FAMILIES: dict[str, str] = {
    "rnm-expo": "exponential",
    "rnm-laplace": "laplace",
    "rnm-gumbel": "gumbel",
}


BATCH_SAMPLERS: dict[str, Callable[[ValidatedInstance, RngState, int], np.ndarray]] = {
    "pf": _permute_and_flip_batch,
    **{name: functools.partial(_report_noisy_max_batch, kind=kind)
       for name, kind in RNM_FAMILIES.items()},
    "em": _exponential_mechanism_batch,
    "alg-a": _intermediate_a_batch,
    "alg-b": _intermediate_b_batch,
}


def _single_draw(sampler: Callable, inst: ValidatedInstance, rng: RngState) -> SelectionResult:
    """A batch sampler's draw for one row."""
    index = int(sampler(inst, rng, 1)[0])
    return SelectionResult(index, inst.quality.labels[index])


# the single draws that are separate algorithms from their batch samplers
_REFERENCE_DRAWS = {"pf": permute_and_flip, "alg-a": intermediate_a}

MECHANISMS: dict[str, Callable[[ValidatedInstance, RngState], SelectionResult]] = {
    name: _REFERENCE_DRAWS.get(name, functools.partial(_single_draw, sampler))
    for name, sampler in BATCH_SAMPLERS.items()
}
