"""Exact and empirical output-distribution computation, plus the
statistical machinery that turns the equivalence claims into executable
checks.

Three independent routes produce the same numbers for the same mechanism
and must keep agreeing:

* closed forms: softmax for the exponential mechanism, and for
  report-noisy-max with exponential noise Gauss-Legendre on its win
  integral, exact for its polynomial integrand,
* for permute-and-flip, its coin game as a Poisson-binomial DP over the
  count of kept coins,
* adaptive Gauss-Kronrod quadrature of the generic win-probability
  integral over all k entries at once, in numpy, in units of the noise
  scale, with a max-norm error bound that covers every entry and a check
  that the entries miss no more mass than it and the truncation allow.

Each exact route is P(i) = e^(gamma_i) C_i, gamma = log_weights(inst),
with a FACTORS factor C_i in [1/k, 1] that states its rounding bound: pf's
E_i, rnm-expo's I_i (equal, by the paper's identity), em's 1 / sum_j
e^(gamma_j). _padded_tables builds the linear or log tables, which
cannot underflow, of a whole batch in one padded pass that serves several
mechanisms at once; the audits reduce its matrices, and exact_tables
gives the oracles one row per instance. The paper's equivalence is checked
by comparing the DP with Gauss-Legendre, in linear and log space, and
with exponential-noise quadrature, which share no code, so a bug in one
cannot hide in another. Summation order per index is fixed, making
results reproducible bit for bit. table_for is the one place that maps a
mechanism and a mode to its route.

chi_square_gof computes its p-value and its power from finite sums of
positive terms (Abramowitz and Stegun 26.4) with math and numpy, so
numpy is the package's one runtime dependency.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from typing import Callable, Sequence

import numpy as np

from .core import ProbabilityTable, Record, ValidatedInstance
from .errors import (
    AllCategoriesMerged,
    LabelMismatch,
    QuadratureNonConvergence,
    TooManyOutcomesForEnumeration,
    UnsupportedOracle,
)
from .mechanisms import BATCH_ELEMENTS, BATCH_SAMPLERS, RNM_FAMILIES, log_weights
from .noise import NOISE_FAMILIES, Exponential, Laplace, RngState

QUADRATURE_LIMIT = 256
QUADRATURE_TARGET = 1e-9
# truncate the integration domain where every factor's tail mass is below this
_TAIL_MASS = 1e-12
# and split each tail where its mass is these: left whole, each tail takes
# the integrator three bisections, most of its work at small k
_TAIL_SPLITS = (1e-3, 1e-6)

MIN_EXPECTED_COUNT = 5.0


class GofResult(Record):
    """Pearson goodness-of-fit outcome at a caller-supplied significance,
    with its power: the smallest divergence sum (p - q)^2 / q over the
    tested cells that it rejects with probability 0.9, 0.0 at a
    significance of 0.9 or more, None at dof 0."""

    def __init__(self, statistic: float, degrees_of_freedom: int, p_value: float,
                 passed: bool, detectable_divergence: float | None) -> None:
        self.__dict__.update(statistic=statistic, degrees_of_freedom=degrees_of_freedom,
                             p_value=p_value, passed=passed,
                             detectable_divergence=detectable_divergence)


def _check_outcome_count(k: int, route: str) -> None:
    if k > QUADRATURE_LIMIT:
        raise TooManyOutcomesForEnumeration(
            f"{route} supports at most {QUADRATURE_LIMIT} outcomes, got {k}")


def pf_exact_distribution(inst: ValidatedInstance) -> ProbabilityTable:
    """Exact permute-and-flip table by the coin-game DP (_coin_game)."""
    return _exact_table("pf", inst)


def rnm_expo_exact_distribution(inst: ValidatedInstance) -> ProbabilityTable:
    """Exact table of report-noisy-max with exponential noise, by
    Gauss-Legendre on its win integral (_win_integrals)."""
    return _exact_table("rnm-expo", inst)


def em_exact_distribution(inst: ValidatedInstance) -> ProbabilityTable:
    """Exact table of the exponential mechanism, a softmax (_softmax_factor)."""
    return _exact_table("em", inst)


def _exact_table(mechanism: str, inst: ValidatedInstance) -> ProbabilityTable:
    """One instance's linear table, exact_tables of that one instance."""
    (table,) = exact_tables(mechanism, [inst])
    return ProbabilityTable(inst.quality.labels, table.tolist(), FACTORS[mechanism][1])


def exact_tables(mechanism: str, instances: Sequence[ValidatedInstance],
                 log: bool = False) -> list[np.ndarray]:
    """A FACTORS mechanism's table per instance, its row of _padded_tables:
    e^gamma * C or, with log, min(gamma + log C, 0), where no entry
    underflows and a true zero is -inf. An instance above QUADRATURE_LIMIT
    outcomes raises TooManyOutcomesForEnumeration; a name outside FACTORS
    raises UnsupportedOracle.

    Log step bound (u = 2^-53), absolute, on log P = gamma + log C: if C
    is within delta relative of its exact value (its factor's stated
    bound), log C is within delta / (1 - delta); libm's log adds its own
    error, assumed to be one ulp of log C (glibc's log is within one ulp;
    an assumption about the platform); and the add rounds once more, by
    u |log P|. tests/test_oracle.py checks the last two terms where it
    runs, at delta = 0: a search for the largest error, against a 50-digit
    log, as a share of ulp(log C) + u |log P| over C in [1/k, 1], k 1-256,
    and gamma down to -745 found 0.998 in 30,000 examples, so the bound is
    tight."""
    (tables,) = _padded_tables((mechanism,), instances, log)
    return [tables[r, : len(inst.quality)] for r, inst in enumerate(instances)]


def _padded_tables(mechanisms: Sequence[str], instances: Sequence[ValidatedInstance],
                   log: bool) -> list[np.ndarray]:
    """Per mechanism, one (rows, k_max) matrix of every instance's table in
    input order, padded with 0, or with log -inf. Rows run in order of k,
    as many per chunk as keep the DP's laws, 2 width (width + 1) values a
    row and the most of any factor, within BATCH_ELEMENTS, and at least
    one; each chunk's gamma, padded with -inf to its widest row, and
    w = e^gamma feed every factor. A table is the same bit for bit alone
    or in any batch. A batch of one chunk keeps its input order, so its
    chunk's tables are the matrices. Every exact route has one outcome
    limit: an instance above QUADRATURE_LIMIT raises
    TooManyOutcomesForEnumeration, once the names are checked."""
    factors = []
    for mechanism in mechanisms:
        try:
            factors.append(FACTORS[mechanism][0])
        except (KeyError, TypeError):
            raise UnsupportedOracle(f"{mechanism!r} has no exact output-distribution oracle; "
                                    f"expected one of {sorted(FACTORS)}") from None
    counts = [len(inst.quality) for inst in instances]
    _check_outcome_count(max(counts, default=0), "every exact route")
    gammas = [log_weights(inst) for inst in instances]
    order, chunks = sorted(range(len(gammas)), key=counts.__getitem__), []
    while order:  # the widest rows first, so a chunk is as wide as its last row
        width = counts[order[-1]]
        chunks.append(order[-max(1, BATCH_ELEMENTS // (2 * width * (width + 1))):])
        del order[-len(chunks[-1]):]
    if len(chunks) == 1:
        return _chunk_tables(factors, gammas, counts, log)
    tables = [np.full((len(gammas), max(counts, default=0)), -np.inf if log else 0.0)
              for _ in factors]
    for chunk in chunks:
        parts = _chunk_tables(factors, [gammas[r] for r in chunk], [counts[r] for r in chunk], log)
        for table, part in zip(tables, parts):
            table[chunk, : part.shape[1]] = part
    return tables


def _chunk_tables(factors: list[Callable], rows: list[np.ndarray], counts: list[int],
                  log: bool) -> list[np.ndarray]:
    """Each factor's tables of one chunk of rows of log weights, with
    counts outcomes each. A pad's w is 0 and its gamma -inf, so its entry
    is 0, or with log -inf. A lone row is its own gamma, with no copy."""
    if len(rows) == 1:
        gamma = rows[0][None]
    else:
        gamma = np.full((len(rows), max(counts)), -np.inf)
        for i, row in enumerate(rows):
            gamma[i, : len(row)] = row
    w = np.exp(gamma)
    if log:
        return [np.minimum(gamma + np.log(factor(gamma, w, counts)), 0.0) for factor in factors]
    return [w * factor(gamma, w, counts) for factor in factors]


def _coin_game(p: np.ndarray) -> np.ndarray:
    """pf's factor: E_i (rows, width) for rows p (rows, width) of keep
    probabilities p_j = exp(gamma_j), padded with p = 0 coins, never kept.
    Permute-and-flip is distributed like the coin game that independently
    keeps each outcome j with probability p_j and returns a uniform pick
    among the kept ones. Outcome i wins when its coin is kept and the pick
    then lands on it among 1 + S_-i kept coins, where S_-i counts the other
    kept outcomes, so P(i) = p_i * E_i, E_i = E[1 / (1 + S_-i)] =
    pre_i^T H suf_(i+1), with pre_i the count law of coins 0..i-1,
    suf_(i+1) that of coins i+1..k-1, and H[s, t] = 1 / (1 + s + t). A
    count law takes one coin at a time, law[s] <- law[s] * (1 - p_j) +
    law[s - 1] * p_j. So does g_i = H suf_(i+1), with the shift the other
    way, from g_(k-1) = H[:, 0]: g_(i-1)[s] = g_i[s] * (1 - p_i) +
    g_i[s + 1] * p_i, exact for s < i, the only counts pre_(i-1) can take.
    Every term is nonnegative, so nothing cancels, and ties, p = 1, p = 0
    and subnormal p need no special case.

    All count laws live in one (width + 1, 2, rows, width) array, g's
    counts reversed so both shift alike: a step's multiply writes
    law * (1 - p) to its slot and law * p to the next, which its add
    shifts in. E_i sums pre_i[s] * g_i[s], written over pre_i, strictly
    left to right from count width - 1 down to 0, adding pads' exact
    zeros, so a row's E is the same bit for bit alone or in any batch.
    Memory is the laws' 2 rows width (width + 1) doubles, 1 MiB for one
    row at k = 256, plus numpy's ufunc buffers.

    Rounding bound (u = 2^-53): values are sums over paths of nonnegative
    products, with one rounding per operation on a path. Keeping a count
    rounds 1 - p (exact for p >= 1/2, by Sterbenz), the product and the
    sum; shifting it, two. So pre_i[s] takes at most 3i - s, g_i[s]
    1 + 3(k - 1 - i), their product 1, a pad coin 0, and the sum from count
    i down to 0 s + 1 (i at s = i): at most 3k per path. So E_i is within
    3ku / (1 - 3ku) relative, plus under 10k^2 * 2^-1075 from underflow
    (5k^2 products, none amplified twofold), negligible as E_i >= 1/k:
    within (3k + 1) u up to QUADRATURE_LIMIT. P(i) = p_i * E_i rounds once
    more: within (3k + 2) u relative of p_i E_i with the same float p_i,
    plus 2^-1075 absolute where it is subnormal.
    """
    rows, width = p.shape
    laws = np.zeros((width + 1, 2, rows, width))
    # pre_0: no coin yet, a count of 0; g_(width-1) = H[:, 0], reversed
    laws[0, 0, :, 0], laws[0, 1] = 1.0, 1.0 / np.arange(width, 0, -1)
    # step n: pre takes coin n - 1 and g coin width - n, factor [1 - p, p]
    factors = np.empty((width - 1, 2, 2, rows, 1))
    factors[:, 1, 0, :, 0], factors[:, 1, 1, :, 0] = p[:, :-1].T, p[:, :0:-1].T
    np.subtract(1.0, factors[:, 1], out=factors[:, 0])
    heads, tails = laws[..., 1:], laws[..., :-1]
    for n, factor in enumerate(factors, 1):
        np.multiply(laws[n - 1], factor, laws[n : n + 2])
        np.add(heads[n], tails[n + 1], heads[n])
    # index i: pre_i * g_i over pre_i's slots, then its running sums there,
    # each from count width - 1 down to 0
    pre = laws[:width, 0, :, ::-1]
    np.multiply(pre, laws[width - 1 :: -1, 1], out=pre)
    return np.add.accumulate(pre, axis=-1, out=pre)[..., -1].T


def _win_integrals(gamma: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """rnm-expo's factor: the win integrals I (rows, width) of rows gamma
    (rows, width) of log weights, row r holding counts[r] outcomes padded
    with -inf. I_i = integral over [0, 1] of prod_{j != i} (1 - e_j t) dt in
    [1/k, 1], e_j = exp(gamma_j), by Gauss-Legendre on the row's own
    m = k // 2 + 1 nodes, exact for its degree k - 1. Factors are
    (1 - t) + t * c_j, c_j = -expm1(gamma_j) in [0, 1], taken as
    (1 - t) - t * expm1(gamma_j), the same bits, and an entry's product is
    the prefix times the suffix product: nothing cancels or divides. A
    pad's factor t + (1 - t) is exactly 1 at every node up to
    QUADRATURE_LIMIT, and a row's pad nodes, up to the largest m, m_max,
    lie at t = 0 with weight 0, where every factor is 1 and the left-to-
    right node sum adds +0.0 at its end: a row's I is the same bit for bit
    alone or beside any k. It shares no code with _coin_game or
    _win_integrand. Memory: two (rows, m_max, width + 1) arrays.

    Rounding bound (u = 2^-53), against I_i taken exactly from the floats
    exp(gamma_j), the pf DP's inputs: these are within 2u of e_j, moving I_i
    by at most 2u relative, as sum_j e_j |dI_i / de_j| <= I_i. A factor
    takes 4u: expm1 2u, then t * c, 1 - t (exact for t >= 1/2) and their
    sum; an entry's k - 1 factors take k - 2 products, its weight 1 and the
    node sum m - 1, all on nonnegative terms: (5k + m - 4) u. The nodes
    (within 0.81u, tested at m 1-21, 33, 65 and 129) add 0.81u absolute, as
    the rule integrates |f'| exactly, to at most 1; the weights (within
    1.56u) add 1.56u / min w <= 0.78 (m + 1)^2 u relative. As I_i >= 1/k:
    within (7k + (k + 4)^2 / 5) u relative, 1.7e-12 at k = 256, plus under
    2k^2 * 2^-1074 from underflow.
    """
    rows, width = gamma.shape
    ms = [k // 2 + 1 for k in counts]
    m = max(ms)
    nodes = _legendre_nodes(m)[:, None]
    if min(ms) < m:  # rows of fewer nodes, each padded at t = 0 with weight 0
        nodes = np.zeros((2, rows, m))
        for row, n in enumerate(ms):
            nodes[:, row, :n] = _legendre_nodes(n)
    t, w = nodes[..., None]
    # column j: factor j, then in place its suffix product; products: the prefix before j
    factors, products = np.ones((2, rows, m, width + 1))
    own, prefix, suffix = factors[..., :width], products[..., :width], factors[..., ::-1]
    np.multiply(t, np.expm1(gamma)[:, None], own)
    np.subtract(1.0 - t, own, own)
    np.multiply.accumulate(own, axis=2, out=products[..., 1:])
    np.multiply.accumulate(suffix, axis=2, out=suffix)
    np.multiply(prefix, factors[..., 1:], prefix)
    prefix *= w
    return np.add.accumulate(prefix, axis=1, out=prefix)[:, -1]


@functools.lru_cache(maxsize=None)
def _legendre_nodes(m: int) -> np.ndarray:
    """The m-point Gauss-Legendre nodes and weights (2, m) on [0, 1]: Newton's
    method on the roots of P_m, evaluated with P_m' by the three-term
    recurrence, from the usual cosine guesses."""
    x = np.cos(np.pi * (np.arange(m) + 0.75) / (m + 0.5))
    step = np.ones(m)
    for _ in range(100):
        p, prev = np.ones(m), np.zeros(m)
        for j in range(1, m + 1):
            p, prev = ((2 * j - 1) * x * p - (j - 1) * prev) / j, p
        dp = m * (x * p - prev) / (x * x - 1.0)
        if np.abs(step).max() < 1e-15:
            break  # dp is taken at the converged nodes
        step = p / dp
        x = x - step
    nodes = np.array([0.5 * (1.0 + x), 1.0 / ((1.0 - x * x) * dp * dp)])
    nodes.flags.writeable = False  # shared by the cache
    return nodes


def _softmax_factor(w: np.ndarray) -> np.ndarray:
    """em's factor 1 / sum_j w_j (rows, 1) for rows w = exp(gamma), padded
    with zeros. Each sum runs left to right, as the em sampler's cumulative
    weights do, so pads add exact zeros at its end; the best outcome's w is
    1, so the sum lies in [1, k]. Rounding bound (u = 2^-53), against
    w_i / sum_j w_j with the same float w: the sum of k nonnegative terms
    takes at most k - 1 roundings on a term's path, the reciprocal and
    P(i) = w_i * C one each, so P(i) is within (k + 1) u / (1 - (k + 1) u)
    relative, plus 2^-1075 absolute where subnormal (measured: 9.9u)."""
    return 1.0 / np.add.accumulate(w, axis=1)[:, -1:]


# mechanism -> (its factor C of a chunk's rows gamma of log weights,
# padded with -inf, w = e^gamma and each row's outcome count; the
# provenance). pf's and em's pads are coins never kept and zeros ending a
# sum; rnm-expo's are factors of exactly 1, and its rows' pad nodes weigh 0.
FACTORS = {
    "pf": (lambda gamma, w, counts: _coin_game(w), "exact-poisson-binomial"),
    "rnm-expo": (lambda gamma, w, counts: _win_integrals(gamma, counts), "exact-gauss-legendre"),
    "em": (lambda gamma, w, counts: _softmax_factor(w), "exact-closed-form"),
}


def rnm_exact_quadrature(inst: ValidatedInstance, kind: str) -> ProbabilityTable:
    """Win probabilities of report-noisy-max under any noise family, by
    adaptive quadrature of P(i) = integral of f(v - x_i) prod_{j != i} F(v - x_j)
    over _win_integrand's domain, with f and F the family's unit-scale
    noise and x = log_weights(inst): a table depends on the scores only
    through rate * (q - max q), since the noise scale is 1 / rate.

    _adaptive_gk21 integrates all k entries at once, with an error estimate
    that bounds every entry. QuadratureNonConvergence is raised if that
    misses the 1e-9 target, or, naming the missing mass, if the entries'
    sum is further from 1 than the estimate plus twice the (k + 1) * 1e-12
    the domain leaves out. Only then are the entries renormalized.
    """
    k = len(inst.quality)
    _check_outcome_count(k, "quadrature")
    win_density, edges = _win_integrand(inst, kind)
    raw, abs_error = _adaptive_gk21(win_density, k, edges)
    if abs_error > QUADRATURE_TARGET:
        raise QuadratureNonConvergence(f"reached absolute error {abs_error:.3e} per entry "
                                       f"(target {QUADRATURE_TARGET:.0e})", abs_error)
    total = raw.sum()
    allowed = abs_error + 2 * (k + 1) * _TAIL_MASS
    if not abs(1.0 - total) <= allowed:
        raise QuadratureNonConvergence(
            f"the win densities integrate to {total:.12g}: mass {1.0 - total:.3e} is missing, "
            f"beyond the {allowed:.3e} that error and truncation allow", abs(1.0 - total))
    return ProbabilityTable(inst.quality.labels, (raw / total).tolist(), "quadrature")


def _win_integrand(inst: ValidatedInstance, kind: str):
    """rnm_exact_quadrature's integrand, mapping points (m,) to the k win
    densities (m, k), and its edges: the domain's ends and the breakpoints
    between them. With Q the unit quantile and t = _TAIL_MASS, the domain
    is the best outcome's window [Q(t), Q(1 - t)] extended down through
    each window x_i + [Q(t), Q(1 - t)] that overlaps it, in descending x,
    up to the first gap: an outcome past it wins with probability below
    2t, and at most (k + 1) * t of the mass lies outside. Exponential noise
    starts at 0, below which the best outcome's factor is 0. Tails split at
    _TAIL_SPLITS above 0 and, but for exponential noise, above the
    domain's lowest x; Laplace noise also at each x_i, its kinks."""
    if kind not in NOISE_FAMILIES:
        raise ValueError(f"unknown noise family {kind!r}; expected one of {tuple(NOISE_FAMILIES)}")
    noise = NOISE_FAMILIES[kind]
    x = log_weights(inst)
    masses = np.array([_TAIL_MASS, *_TAIL_SPLITS])
    (bottom, *lower), (hi, *upper) = (noise.quantile(m).tolist() for m in (masses, 1.0 - masses))
    lowest = 0.0
    for x_i in sorted(x.tolist(), reverse=True):
        if x_i < lowest - (hi - bottom):
            break  # the first gap: x_i's window ends below the domain
        lowest = x_i
    breaks = upper + (x.tolist() if isinstance(noise, Laplace) else [])
    if isinstance(noise, Exponential):
        lo = 0.0
    else:
        lo = lowest + bottom
        breaks += [lowest + q for q in lower]
    points = sorted({p for p in breaks if lo < p < hi})
    cdf_pdf = noise.cdf_pdf

    def win_density(v: np.ndarray) -> np.ndarray:
        # entry i's product of the other factors is the prefix product before
        # it times the suffix product after it: no division, since a factor
        # can be exactly 0. Row i + 1 of factors is outcome i's F, between
        # two rows of ones.
        factors = np.empty((len(x) + 2, len(v)))
        factors[[0, -1]] = 1.0
        _, density = cdf_pdf(v - x[:, None], factors[1:-1])
        density *= _running_product(factors[:-2].copy())
        density *= _running_product(factors[::-1])[-3::-1]
        return np.ascontiguousarray(density.T)

    return win_density, np.array([lo, *points, hi])


def _running_product(rows: np.ndarray) -> np.ndarray:
    """rows' running product along axis 0, in place, each column's chain
    multiplied in row order, bit for bit numpy's accumulate. Across 128
    columns or more it takes one multiply per row over all of them; below,
    the accumulate itself, one latency-bound chain per column, measured
    faster than that many calls."""
    if rows.shape[1] < 128:
        return np.multiply.accumulate(rows, axis=0, out=rows)
    for before, row in zip(rows, rows[1:]):
        np.multiply(before, row, out=row)
    return rows


# QUADPACK's qk21 rule on [-1, 1] (Piessens et al., QUADPACK, 1983): the 21
# Kronrod nodes from +1 down to -1 with their weights, and the 10-point Gauss
# weights of the odd-numbered nodes. All three are symmetric about 0, so
# only one half is written out.
_KRONROD_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_KRONROD_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_GAUSS_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK21_NODES = np.concatenate((_KRONROD_NODES, [0.0], -_KRONROD_NODES[::-1]))
_GK21_KRONROD = np.concatenate(
    (_KRONROD_WEIGHTS, [0.149445554002916905664936468389821], _KRONROD_WEIGHTS[::-1])
)
_GK21_GAUSS = np.concatenate((_GAUSS_WEIGHTS, _GAUSS_WEIGHTS[::-1]))
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _gk21(a: np.ndarray, b: np.ndarray, integrand, width: int):
    """The 21-point rule on each interval [a[n], b[n]] of a vector integrand
    that maps points (m,) to values (m, width). Returns the integrals
    (n, width), QUADPACK's error estimates in the max norm (n,) and its
    rounding-error estimates (n,). Each integrand call gets the nodes of as
    many whole intervals, and at least one, as keep its points times the
    width + 2 rows of the win integrand's factors within BATCH_ELEMENTS, so
    no array of a call reaches glibc's 128 KiB mmap threshold."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    integral, gap, spread, rounding = np.empty((len(a), width)), *np.empty((3, len(a)))
    step = max(1, BATCH_ELEMENTS // (21 * (width + 2)))
    deviation = np.empty((min(step, len(a)), 21, width))  # |f - kronrod / 2|, then |f|
    for start in range(0, len(a), step):
        part = slice(start, start + step)
        hh = h[part, None]
        f = integrand((c[part, None] + hh * _GK21_NODES).ravel()).reshape(-1, 21, width)
        kronrod = _GK21_KRONROD @ f
        gap[part] = np.abs((kronrod - _GK21_GAUSS @ f[:, 1::2]) * hh).max(axis=1)
        dev = np.subtract(f, 0.5 * kronrod[:, None], out=deviation[: len(f)])
        spread[part] = (_GK21_KRONROD @ np.abs(dev, out=dev) * hh).max(axis=1)
        rounding[part] = (50.0 * _EPS * hh * (_GK21_KRONROD @ np.abs(f, out=dev))).max(axis=1)
        integral[part] = hh * kronrod
    with np.errstate(all="ignore"):  # spread 0 is dropped just below
        scaled = spread * np.minimum(1.0, (200.0 * gap / spread) ** 1.5)
    err = np.where((spread != 0.0) & (gap != 0.0), scaled, gap)
    error = np.where(rounding > _TINY, np.maximum(err, rounding), err)
    return integral, error, rounding


def _adaptive_gk21(integrand, width: int, edges: np.ndarray):
    """Integral of a vector integrand over [edges[0], edges[-1]] and its
    max-norm error bound, from the intervals between consecutive edges.
    Each round bisects, largest first, every interval whose error is at
    least its even share of QUADRATURE_TARGET / 80 (quad_vec's stop at
    epsabs = target / 10), and at least one, up to 400 intervals. It stops
    once the summed error is below that, or it or the summed rounding error
    is not finite. Returns the final intervals' summed integrals and their
    summed error and rounding estimates."""
    target, limit = QUADRATURE_TARGET / 80.0, 400
    a, b = edges[:-1], edges[1:]
    integral, error, rounding = _gk21(a, b, integrand, width)
    while len(a) < limit:
        share = max(1, np.count_nonzero(error >= target / len(a)))
        split = np.argsort(-error, kind="stable")[: min(share, limit - len(a))]
        keep = np.delete(np.arange(len(a)), split)
        mid = 0.5 * (a[split] + b[split])
        a, b = np.concatenate((a[keep], a[split], mid)), np.concatenate((b[keep], mid, b[split]))
        halves = _gk21(a[len(keep):], b[len(keep):], integrand, width)
        integral, error, rounding = (np.concatenate((old[keep], new))
                                     for old, new in zip((integral, error, rounding), halves))
        err, rnd = error.sum(), rounding.sum()
        if err < target or not np.isfinite(err + rnd):
            break
    return integral.sum(axis=0), float(error.sum() + rounding.sum())


def empirical_counts(mechanism: str, inst: ValidatedInstance, n: int, seed: int) -> list[int]:
    """Outcome counts of n independent runs of a mechanism, named as in
    BATCH_SAMPLERS, under one seeded stream: its sampler, built once for
    chunks of BATCH_ELEMENTS // w rows, and at least one, where w is the
    width BATCH_SAMPLERS gives a row, draws chunk after chunk. pf and alg-a
    draw a chunk's order keys after its coins or noise, so their chunk size
    is part of their seeded stream; the other streams do not depend on it.
    A fixed seed gives the same counts bit for bit. Any other mechanism or
    a non-integer n raises ValueError."""
    try:
        n, (build, width) = operator.index(n), BATCH_SAMPLERS[mechanism]
    except (KeyError, TypeError):
        raise ValueError(f"need a mechanism name, one of {sorted(BATCH_SAMPLERS)}, and an "
                         f"integer n; got {mechanism!r} and n={n!r}") from None
    if n < 1:
        raise ValueError(f"need at least one run, got n={n}")
    rng, k = RngState(seed), len(inst.quality)
    chunk = min(n, max(1, BATCH_ELEMENTS // width(k)))
    draw, counts = build(inst, chunk), np.zeros(k, dtype=np.int64)
    for start in range(0, n, chunk):
        counts += np.bincount(draw(rng, min(chunk, n - start)), minlength=k)
    return counts.tolist()


def frequency_table(inst: ValidatedInstance, counts: list[int], seed: int) -> ProbabilityTable:
    """The frequency table of outcome counts drawn under a seed, with the
    draws and the seed in its provenance."""
    n = sum(counts)
    return ProbabilityTable(inst.quality.labels, [c / n for c in counts],
                            f"empirical(n={n},seed={seed})")


def empirical_distribution(mechanism: str, inst: ValidatedInstance, n: int,
                           seed: int) -> ProbabilityTable:
    """Frequency table of n independent mechanism runs; reproducible for a
    fixed seed."""
    return frequency_table(inst, empirical_counts(mechanism, inst, n, seed), seed)


def tv_distance(p: ProbabilityTable, q: ProbabilityTable) -> float:
    """Total variation distance, half the L1 distance between the tables."""
    if p.labels != q.labels:
        raise LabelMismatch(f"tables cover different outcomes: {p.labels!r} vs {q.labels!r}")
    return 0.5 * math.fsum(abs(a - b) for a, b in zip(p.probabilities, q.probabilities))


def chi_square_gof(observed_counts: Sequence[int], expected: ProbabilityTable,
                   significance: float) -> GofResult:
    """Pearson goodness-of-fit of observed counts against an expected table.

    Categories whose expected count falls below 5 are pooled into one tail
    category before computing the statistic; a tail still expecting fewer
    than 5 merges into the smallest kept category, so that one or two
    draws in it cannot dominate the statistic. A single category after
    pooling that covers the whole table is a vacuous pass (dof 0); if every
    category needed pooling the test is impossible and AllCategoriesMerged
    is raised. Observed mass on a zero-probability outcome fails outright,
    with p = 0 and the dof and power of the pooled cells. A significance
    outside [DBL_MIN, 1) raises ValueError: at 0 or below every sample
    would pass, at 1 or above none, and below DBL_MIN = 2.2e-308 the power's
    tail inversion underflows. So does a count that is not a Python or
    numpy integer, even a whole float: truncating 5000.9 to 5000 would
    test other counts than the ones observed.

    The p-value is within 1e-12 relative of the chi-square survival
    function where that is at least 1e-290 and 1e-300 absolute below, and
    detectable_divergence within 1e-10 relative; tests check both on scipy,
    the power at dof 1-255 and significances from DBL_MIN up to 0.8999.
    """
    _check_significance(significance)
    try:
        counts = [operator.index(c) for c in observed_counts]
    except TypeError:
        raise ValueError("counts must be integers") from None
    if len(counts) != len(expected):
        raise LabelMismatch(f"{len(counts)} counts for {len(expected)} expected categories")
    if any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative")
    total = sum(counts)
    if total < 1:
        raise ValueError("need at least one observation")

    impossible = any(c > 0 and p == 0.0 for c, p in zip(counts, expected.probabilities))
    cells = [(c, p * total) for c, p in zip(counts, expected.probabilities) if p > 0.0]
    kept = [(c, e) for c, e in cells if e >= MIN_EXPECTED_COUNT]
    pooled = [(c, e) for c, e in cells if e < MIN_EXPECTED_COUNT]
    if not kept and not impossible:
        raise AllCategoriesMerged(
            f"every expected count is below {MIN_EXPECTED_COUNT} at {total} observations")
    if kept and pooled:
        count, expect = sum(c for c, _ in pooled), sum(e for _, e in pooled)
        if expect < MIN_EXPECTED_COUNT:  # the tail joins the smallest kept cell
            c, e = kept.pop(min(range(len(kept)), key=lambda j: kept[j][1]))
            count, expect = count + c, expect + e
        kept.append((count, expect))
    dof = max(len(kept) - 1, 0)
    detectable = _noncentrality(dof, significance) / total if dof else None
    if impossible:
        return GofResult(math.inf, dof, 0.0, False, detectable)
    if not dof:
        return GofResult(0.0, 0, 1.0, True, None)
    statistic = math.fsum((c - e) ** 2 / e for c, e in kept)
    p_value = _chi2_sf(dof, statistic)
    return GofResult(statistic, dof, p_value, p_value >= significance, detectable)


def _check_significance(significance: float) -> None:
    """chi_square_gof's check of its significance, also made before any
    draw is spent on a test it would refuse."""
    if not sys.float_info.min <= significance < 1.0:
        raise ValueError(f"significance must be strictly between 0 and 1, and at least "
                         f"the smallest normal double {sys.float_info.min}; got {significance}")


def _chi2_sf(dof: int, x: float) -> float:
    """Q(dof/2, x/2), the chi-square survival function at a whole dof >= 1
    (Abramowitz and Stegun 26.4.4-5): erfc(sqrt(y)) for odd dof plus
    e^-y y^j / Gamma(j + 1) for j = 0 or 1/2 up to dof/2 - 1, y = x/2,
    each taken in log space. Nothing overflows or cancels; exactly 1.0 at
    x = 0, and 0.0 where the sum falls below the normal range."""
    y = 0.5 * x
    if not y > 0.0:
        return 1.0
    log_y, h = math.log(y), 0.5 * (dof % 2)
    q = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    for j in range(dof // 2):
        q += math.exp((h + j) * log_y - y - math.lgamma(h + j + 1.0))
    return q if q >= sys.float_info.min else 0.0


def _gamma_steps(a: float, y: float, n: int) -> np.ndarray:
    """Q(a + i + 1, y) - Q(a + i, y) = y^(a + i) e^-y / Gamma(a + i + 1)
    for i < n, in log space; at a = 0 the Poisson(y) probabilities of i."""
    i = np.arange(float(n))
    log_gamma = np.cumsum(np.log(a + i, out=np.full(n, math.lgamma(a + 1.0)), where=i > 0))
    return np.exp((a + i) * math.log(y) - y - log_gamma)


def _newton(f: Callable[[float], tuple[float, float]], x: float, bound: float = math.inf) -> float:
    """Root on (0, bound) of a decreasing f, which returns its value and
    Newton step, from x < bound; a step out of the bracket bisects it or,
    unbounded, doubles x, until the step or, where f's rounding outweighs
    its slope, the bracket is within 1e-14 x. ArithmeticError if f > 0 up
    to a finite bound."""
    lo, hi = 0.0, bound
    for _ in range(100):
        value, step = f(x)
        if abs(step) <= 1e-14 * x:
            return x - step
        lo, hi = (x, hi) if value > 0.0 else (lo, x)
        if hi - lo <= 1e-14 * x:
            break
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
    if hi == bound < math.inf:
        raise ArithmeticError(f"no root below {bound}: f > 0 up to {lo}")
    return x


def _critical_value(dof: int, significance: float) -> float:
    """c = Q^-1(significance) by Newton steps on log Q, nearly linear in the tail."""
    a, t = 0.5 * dof, -2.0 * math.log(significance)

    def log_tail(c):
        q = _chi2_sf(dof, c)
        density = 0.5 * math.exp((a - 1.0) * math.log(0.5 * c) - 0.5 * c - math.lgamma(a))
        value = math.log(q) + 0.5 * t if q else -math.inf
        return value, -value * q / density if density else math.nan

    # Wilson and Hilferty's start, z from the normal tail's leading terms
    z, v = math.sqrt(max(t - math.log(t) - math.log(2.0 * math.pi), 0.0)), 2.0 / (9.0 * dof)
    return _newton(log_tail, dof * max(1.0 - v + z * math.sqrt(v), 0.1) ** 3)


@functools.lru_cache(maxsize=256)
def _noncentrality(dof: int, significance: float) -> float:
    """The noncentrality lam at which the noncentral chi-square on dof degrees
    of freedom passes c = _critical_value(dof, significance) with
    probability 0.9: the root of F(c; dof, lam) = sum_i Pois(i; lam/2)
    (1 - Q(dof/2 + i, c/2)) = 0.1, with dF/dlam = -(F(c; dof, lam) -
    F(c; dof + 2, lam)) / 2. The null term F(c; dof, 0) is 1 - significance
    by c's definition: recomputing it from c would add Q's rounding, which
    F - 0.1 near 0 amplifies just below a significance of 0.9. At 0.9 or
    more the test rejects that often at lam = 0: 0.0. Below, the root is
    under 2c + 100, where F's mean dof + lam passes c by 3 or more standard
    deviations sqrt(2 dof + 4 lam), so F <= 0.1 (Cantelli); it is at most
    2,077 at dof 1-255 from DBL_MIN, and no root below 2c + 100 raises."""
    if significance >= 0.9:
        return 0.0
    a, c = 0.5 * dof, _critical_value(dof, significance)

    def miss(lam):  # F(c; dof, lam) - 0.1 and its Newton step
        mu = 0.5 * lam
        n = int(mu + 12.0 * math.sqrt(mu) + 30.0)
        w = _gamma_steps(0.0, mu, n)
        # F(c; dof + 2i, 0) - 0.1, from F(c; dof, 0) = 1 - significance
        steps = np.concatenate(([0.0], _gamma_steps(a, 0.5 * c, n)))
        p = (0.9 - significance) - np.cumsum(steps)
        f0, f2 = float(w @ p[:-1]), float(w @ p[1:])
        return f0, f0 / (0.5 * (f2 - f0)) if f2 != f0 else math.nan

    # the normal approximation's start: c = dof + lam - z sqrt(2 dof + 4 lam)
    z = 1.2815515655446004
    s = 2.0 * z + math.sqrt(max(4.0 * z * z + 4.0 * c - 2.0 * dof, 0.0))
    return _newton(miss, max(0.25 * s * s - 0.5 * dof, 1e-3), 2.0 * c + 100.0)


EXACT_ORACLES: dict[str, Callable[[ValidatedInstance], ProbabilityTable]] = {
    "pf": pf_exact_distribution,
    "rnm-expo": rnm_expo_exact_distribution,
    "em": em_exact_distribution,
}

# mode -> the table keyed by the mechanisms it has a route for, and the
# function of (mechanism, instance, n, seed) that builds their tables
ROUTES = {
    "exact": (FACTORS, lambda name, inst, n, seed: EXACT_ORACLES[name](inst)),
    "quadrature": (RNM_FAMILIES,
                   lambda name, inst, n, seed: rnm_exact_quadrature(inst, RNM_FAMILIES[name])),
    "empirical": (BATCH_SAMPLERS, empirical_distribution),
}


def table_for(mechanism: str, inst: ValidatedInstance, mode: str, n: int = 0,
              seed: int = 0) -> ProbabilityTable:
    """A mechanism's output table by one of three routes: "exact" (its
    EXACT_ORACLES entry), "quadrature" (rnm_exact_quadrature with its
    RNM_FAMILIES noise family) or "empirical" (empirical_distribution of n
    seeded draws). Any other pair raises UnsupportedOracle, naming the
    modes or the mechanisms the mode supports."""
    if mode not in ROUTES:
        raise UnsupportedOracle(f"unknown mode {mode!r}; expected one of {sorted(ROUTES)}")
    supported, build = ROUTES[mode]
    if mechanism not in supported:
        raise UnsupportedOracle(
            f"{mode} mode has no route for {mechanism!r}; it supports {sorted(supported)}")
    return build(mechanism, inst, n, seed)
