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

``BATCH_SAMPLERS`` is the one hand-written table: per mechanism, a builder
of (instance, rows) that computes its operands once (log weights or pf's
coins tiled to rows x k, em's cumulative weights) and returns draw(rng,
rows), which runs its own algorithm, never another's, for up to rows
draws at once on the stream's flat arrays, one index per row; beside it,
the values a row's widest array holds, which set a chunk's rows.
A draw picks each row's index by column passes over the chunk up to a
cut-over in k, by numpy's argmax or searchsorted above it, the same bits.
``MECHANISMS`` is derived from it under the same keys: a single draw is
the batch sampler built and run for one row, except for
permute-and-flip's walk and `intermediate_a`'s integer pick, separate
algorithms that stay the single-draw references their batch samplers are
tested against.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .core import Record, ValidatedInstance
from .noise import NOISE_FAMILIES, RngState, floored_uniforms, samples

# No array of a batch-sampling chunk holds more than this many values (see
# BATCH_SAMPLERS), so memory stays flat in the number of draws. At 2^14
# doubles (128 KiB) a chunk's matrices stay cache-sized: 2^15 and 2^16
# measured both slower and larger in peak memory. glibc maps each fresh
# block of 128 KiB or more, page faults and all, until it frees a larger
# one: freeing 1 MiB here lets the chunk arrays reuse the heap.
BATCH_ELEMENTS = 2**14
np.empty(2**17)
# The largest k at which a pick is contiguous column passes over a chunk,
# not numpy's per-row argmax or searchsorted (timings in each helper); at
# most 256, as the passes count to k - 1 in uint8
FIRST_MAX_COLUMNS = 11
SEARCH_COUNT_MAX_K = 128


class SelectionResult(Record):
    """Chosen outcome: position in the score vector plus its label."""

    def __init__(self, index: int, label: str) -> None:
        self.__dict__.update(index=index, label=label)


def _first_max(values: np.ndarray, k: int) -> np.ndarray:
    """Per row of k entries of a flat array without NaNs, the index of its
    first maximum, np.argmax's bits. Up to k = FIRST_MAX_COLUMNS, k column
    passes replace a reduction per row: prefix maxima P[j] = max(P[j - 1],
    column j) in one (k, rows) buffer, then the count of P[j] < P[k - 1],
    the first index of the maximum as P is nondecreasing; at k = 2, one
    comparison. README gives the per-k timings behind the cut-over."""
    if k > FIRST_MAX_COLUMNS:
        return np.argmax(values.reshape(-1, k), axis=1)
    if k == 2:
        return (values[1::2] > values[0::2]).view(np.int8)
    prefix = np.empty((k, values.size // k))
    prefix[0] = values[0::k]
    for j in range(1, k):
        np.maximum(prefix[j - 1], values[j::k], out=prefix[j])
    return (prefix[:-1] < prefix[-1]).view(np.uint8).sum(axis=0, dtype=np.uint8)


def _search_right(cumulative: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.searchsorted(cumulative, x, side="right") over a nondecreasing
    cumulative for x below its last value. Up to k = SEARCH_COUNT_MAX_K
    entries, k - 1 passes of index += x >= c in uint8 replace a binary
    search per needle; the count grows with k and the search with log k,
    and the cut-over keeps a margin (README gives the per-k timings)."""
    if cumulative.size > SEARCH_COUNT_MAX_K:
        return np.searchsorted(cumulative, x, side="right")
    index, reached = np.zeros(x.size, dtype=np.uint8), np.empty(x.size, dtype=bool)
    for c in cumulative[:-1].tolist():
        index += np.greater_equal(x, c, out=reached).view(np.uint8)
    return index


def _uniform_pick(mask: np.ndarray, rng: RngState, k: int) -> np.ndarray:
    """Per row of k entries of a flat mask, each row holding a True, a
    uniform pick of a True column: the first maximum of mask less a
    uniform key, the first least key among the True columns. The
    difference is exact, keys being multiples of 2^-53 in [0, 1), so the
    ties are those of the argmin of key - mask."""
    keys = rng.uniforms(mask.size)
    return _first_max(np.subtract(mask, keys, out=keys), k)


def log_weights(inst: ValidatedInstance) -> np.ndarray:
    """Each outcome's gamma_i = rate * (q_i - max q) <= 0, the log of its
    shifted weight and its score in units of the noise scale, relative to
    the best. Where q_i - max q overflows, the difference of the halved
    scores, which cannot, doubled last gives gamma_i bit for bit where it
    is normal or 0. It is -inf (weight 0) only where gamma_i is below
    -DBL_MAX: a Python float overflows without a warning, and at the usual
    k a list beats numpy's per-call overhead."""
    rate, best = inst.params.rate, inst.quality.best_score
    return np.array([rate * (q - best) if q - best > -math.inf
                     else rate * (0.5 * q - 0.5 * best) * 2.0 for q in inst.quality.scores])


def _report_noisy_max_batch(inst: ValidatedInstance, rows: int, kind: str) -> Callable:
    """Report-noisy-max: per row, add one independent noise draw per score
    and return the first argmax, over a rows x k matrix of unit-scale draws
    of the family kind, "exponential", "laplace" or "gumbel", added to
    log_weights: the scores in units of the noise scale 2*sensitivity/eps.
    Each sum gamma + x is taken as gamma - (-x), the same bits, from the
    family's negated quantile, which saves a negation pass. The Gumbel
    variant draws from the same output distribution as the exponential
    mechanism."""
    k, gamma, noise = len(inst.quality), np.tile(log_weights(inst), rows), NOISE_FAMILIES[kind]

    def draw(rng: RngState, rows: int) -> np.ndarray:
        u = floored_uniforms(rng, rows * k)
        values = np.subtract(gamma[: u.size], noise.negated_quantile(u, out=u), out=u)
        return _first_max(values, k)

    return draw


def _exponential_mechanism_batch(inst: ValidatedInstance, rows: int) -> Callable:
    """The exponential mechanism: index i with probability proportional to
    exp(eps * q_i / (2 * sensitivity)), from shifted weights
    exp(rate * (q_i - max q)) so huge scores cannot overflow, by one
    _search_right of rows uniforms over the cumulative weights. Deliberately
    not the Gumbel-max trick: that is report-noisy-max with Gumbel noise,
    and keeping the two code paths distinct lets tests cross-check them.
    A uniform u <= 1 - 2^-53 puts u T at least T 2^-53 below the total T =
    m 2^e >= 1 (2^52 <= m < 2^53), over half an ulp or half at m = 2^52, where
    T's lower neighbour is that close: no draw reaches T or passes the last
    positive weight."""
    cumulative = np.cumsum(np.exp(log_weights(inst)))

    def draw(rng: RngState, rows: int) -> np.ndarray:
        u = rng.uniforms(rows)
        return _search_right(cumulative, np.multiply(u, cumulative[-1], out=u))

    return draw


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


def _permute_and_flip_batch(inst: ValidatedInstance, rows: int) -> Callable:
    """Batch permute_and_flip: every row flips all k coins up front and
    returns the heads that comes first in a uniformly random visiting
    order, i.e. the heads with the smallest of k uniform order keys.

    The best outcome's coin has probability exactly 1 and a uniform draw is
    below 1, so every row holds at least one heads.
    """
    k, coins = len(inst.quality), np.tile(np.exp(log_weights(inst)), rows)
    return lambda rng, rows: _uniform_pick(rng.uniforms(rows * k) < coins[: rows * k], rng, k)


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


def _intermediate_a_batch(inst: ValidatedInstance, rows: int) -> Callable:
    """Batch intermediate_a: per row, a uniform pick among the outcomes
    whose exponentially-noised log weight reaches 0, the best score's. The
    rounded gamma + x is >= 0 exactly where the negated noise -x <= gamma:
    rounding keeps the sign of a sum of two doubles, which is 0 only where
    they cancel."""
    k, gamma = len(inst.quality), np.tile(log_weights(inst), rows)
    negated = NOISE_FAMILIES["exponential"].negated_quantile

    def draw(rng: RngState, rows: int) -> np.ndarray:
        u = floored_uniforms(rng, rows * k)
        return _uniform_pick(negated(u, out=u) <= gamma[: u.size], rng, k)

    return draw


def _intermediate_b_batch(inst: ValidatedInstance, rows: int) -> Callable:
    """Censored-noise reformulation (alg-b) bridging permute-and-flip to
    report-noisy-max with exponential noise.

    Caps each log weight plus unit-scale exponential noise at 0, the best
    true score's, and returns per row the first argmax of capped value plus
    a second independent tie-break draw, with the outcomes below the cap
    masked out to 0, below every tie-break. Every outcome gets its
    tie-break, even those the cap excludes, so a row consumes two uniforms
    per outcome, score noise and tie-break interleaved in index order. A
    maximizing outcome always hits the cap, so the masked set is never empty.

    A draw floors a row's 2k uniforms once and transforms only the score
    half, into a contiguous array; the cap is 0 where -x <= gamma, as in
    intermediate_a. A tie-break is its floored uniform u itself, not its
    exponential draw -log1p(-u), which is strictly increasing on the grid
    of multiples of 2^-53: the argmax is the same, and the floor keeps every
    tie-break above the masked-out 0.
    """
    k, gamma = len(inst.quality), np.tile(log_weights(inst), rows)
    negated = NOISE_FAMILIES["exponential"].negated_quantile

    def draw(rng: RngState, rows: int) -> np.ndarray:
        u = floored_uniforms(rng, rows * 2 * k)
        capped = negated(u[0::2], out=np.empty(rows * k)) <= gamma[: rows * k]
        return _first_max(u[1::2] * capped, k)

    return draw


# noisy-max mechanism name -> noise family; the single source for the
# sampler table below and for the oracle's quadrature route
RNM_FAMILIES: dict[str, str] = {
    "rnm-expo": "exponential",
    "rnm-laplace": "laplace",
    "rnm-gumbel": "gumbel",
}


# mechanism -> (its builder, the values a row's widest array holds at k
# outcomes): a chunk of BATCH_ELEMENTS values holds that many fewer rows
BATCH_SAMPLERS: dict[str, tuple[Callable[[ValidatedInstance, int], Callable],
                                Callable[[int], int]]] = {
    "pf": (_permute_and_flip_batch, lambda k: k),
    **{name: (functools.partial(_report_noisy_max_batch, kind=kind), lambda k: k)
       for name, kind in RNM_FAMILIES.items()},
    "em": (_exponential_mechanism_batch, lambda k: 1),
    "alg-a": (_intermediate_a_batch, lambda k: k),
    "alg-b": (_intermediate_b_batch, lambda k: 2 * k),
}


def _single_draw(build: Callable, inst: ValidatedInstance, rng: RngState) -> SelectionResult:
    """A batch sampler's draw for one row."""
    index = int(build(inst, 1)(rng, 1)[0])
    return SelectionResult(index, inst.quality.labels[index])


# the single draws that are separate algorithms from their batch samplers
_REFERENCE_DRAWS = {"pf": permute_and_flip, "alg-a": intermediate_a}

MECHANISMS: dict[str, Callable[[ValidatedInstance, RngState], SelectionResult]] = {
    name: _REFERENCE_DRAWS.get(name, functools.partial(_single_draw, build))
    for name, (build, _) in BATCH_SAMPLERS.items()
}
