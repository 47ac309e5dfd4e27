import hashlib
import itertools
import math
import sys
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from dpselect import (
    MECHANISMS,
    ProbabilityTable,
    RngState,
    chi_square_gof,
    em_exact_distribution,
    empirical_counts,
    empirical_distribution,
    pf_exact_distribution,
    random_instances,
    rnm_exact_quadrature,
    rnm_expo_exact_distribution,
    table_for,
    tv_distance,
)
from dpselect.errors import (
    AllCategoriesMerged,
    LabelMismatch,
    QuadratureNonConvergence,
    TooManyOutcomesForEnumeration,
    UnsupportedOracle,
    ValidationError,
)
from dpselect import oracle
from dpselect.oracle import BATCH_ELEMENTS, EXACT_ORACLES, FACTORS, exact_tables

from dpselect import mechanisms
from dpselect.mechanisms import BATCH_SAMPLERS, FIRST_MAX_COLUMNS, SEARCH_COUNT_MAX_K, log_weights
from helpers import draw_counts, instances, make_instance, rational_coin_game, sampled_verdict

EXACT_FNS = [pf_exact_distribution, rnm_expo_exact_distribution, em_exact_distribution]


class TestEmExact:
    def test_uniform_for_equal_scores(self):
        table = em_exact_distribution(make_instance([0.0, 0.0, 0.0], epsilon=3.0))
        assert table.probabilities == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)

    def test_two_point(self):
        table = em_exact_distribution(make_instance([1.0, 0.0], epsilon=2.0))
        e = math.e
        assert table.probabilities == pytest.approx((e / (1 + e), 1 / (1 + e)), abs=1e-12)
        assert table.provenance == "exact-closed-form"

    def test_single_outcome(self):
        table = em_exact_distribution(make_instance([1.0], epsilon=0.3))
        assert table.probabilities == (1.0,)

    def test_huge_scores_no_overflow(self):
        table = em_exact_distribution(
            make_instance([1_000_000.0, 999_999.0], epsilon=2.0)
        )
        e = math.e
        assert table.probabilities == pytest.approx((e / (1 + e), 1 / (1 + e)), abs=1e-12)


class TestPfExact:
    def test_two_point(self):
        table = pf_exact_distribution(make_instance([1.0, 0.0], epsilon=2.0))
        expected = (1.0 - math.exp(-1.0) / 2.0, math.exp(-1.0) / 2.0)
        assert table.probabilities == pytest.approx(expected, abs=1e-12)
        assert table.provenance == "exact-poisson-binomial"

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_constant_scores_uniform(self, k):
        table = pf_exact_distribution(make_instance([2.5] * k, epsilon=1.0))
        assert table.probabilities == pytest.approx((1.0 / k,) * k, abs=1e-12)

    def test_hopeless_runner_up_underflows_cleanly(self):
        table = pf_exact_distribution(make_instance([0.0, -1e9], epsilon=1.0))
        assert table.probabilities[0] == pytest.approx(1.0, abs=1e-12)
        assert table.probabilities[1] == pytest.approx(0.0, abs=1e-12)

    def test_enumeration_limit(self):
        pf_exact_distribution(make_instance([0.0] * 256))
        with pytest.raises(TooManyOutcomesForEnumeration, match="at most 256 outcomes"):
            pf_exact_distribution(make_instance([0.0] * 257))


class TestRnmExpoExact:
    def test_two_point(self):
        table = rnm_expo_exact_distribution(make_instance([1.0, 0.0], epsilon=2.0))
        # runner-up: exp(-1) * integral of (1 - t) over [0, 1] = exp(-1)/2
        assert table.probabilities[1] == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-12)
        assert table.provenance == "exact-gauss-legendre"

    def test_single_outcome(self):
        table = rnm_expo_exact_distribution(make_instance([4.0], epsilon=1.0))
        assert table.probabilities == (1.0,)

    def test_equal_scores(self):
        table = rnm_expo_exact_distribution(make_instance([0.0, 0.0], epsilon=1.0))
        assert table.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_enumeration_limit(self):
        rnm_expo_exact_distribution(make_instance([0.0] * 256))
        with pytest.raises(TooManyOutcomesForEnumeration, match="at most 256 outcomes"):
            rnm_expo_exact_distribution(make_instance([0.0] * 257))


class TestScoreRangeBeyondDoubles:
    """Scores [1e308, -1e308]: their gap overflows a double. pytest turns any
    RuntimeWarning into an error, so these also check that none is raised."""

    SCORES = [1e308, -1e308]

    @pytest.mark.parametrize("name", ["em", "pf", "rnm-expo"])
    def test_exact_tables(self, name):
        assert EXACT_ORACLES[name](make_instance(self.SCORES)).probabilities == (1.0, 0.0)

    @pytest.mark.parametrize("name", ["em", "pf", "rnm-expo"])
    def test_log_tables(self, name):
        # the true log-probability rate * (q - max q) at rate 0.5: the gap
        # overflows, the log weight does not
        (log_p,) = exact_tables(name, [make_instance(self.SCORES)], log=True)
        assert log_p.tolist() == [0.0, -1e308]

    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_batch_counts(self, name):
        assert empirical_counts(name, make_instance(self.SCORES), 1000, seed=5) == [1000, 0]

    @pytest.mark.parametrize("family", ["exponential", "laplace", "gumbel"])
    @pytest.mark.parametrize("scores, epsilon, expected", [
        (SCORES, 1.0, [1.0, 0.0]),
        ([1e308, 0.0], 1.0, [1.0, 0.0]),
        ([-1e308, -1e308], 1.0, [0.5, 0.5]),
        # the smallest budget PrivacyParams accepts: noise scale 4.9e306
        (SCORES, 4.1e-307, [1.0, 0.0]),
        ([0.0, -1.0], 4.1e-307, [0.5, 0.5]),
    ])
    def test_quadrature_table(self, family, scores, epsilon, expected):
        table = rnm_exact_quadrature(make_instance(scores, epsilon=epsilon), family)
        assert np.abs(np.subtract(table.probabilities, expected)).max() <= 1e-15

    @pytest.mark.parametrize("route", [
        pf_exact_distribution,
        rnm_expo_exact_distribution,
        lambda inst: rnm_exact_quadrature(inst, "exponential"),
    ])
    def test_tables_at_noise_scale_1e308(self, route):
        # eps 2e-308, rate 1e-308: the second score's log weight is -2, so
        # the table is [1 - e^-2 / 2, e^-2 / 2] = [0.9323323584, 0.0676676416]
        table = route(make_instance(self.SCORES, epsilon=2e-308))
        expected = [1.0 - math.exp(-2.0) / 2.0, math.exp(-2.0) / 2.0]
        assert np.abs(np.subtract(table.probabilities, expected)).max() <= 1e-12


class TestScoresBeyondTheNoiseScale:
    """Scores of large magnitude at eps 1, noise scale 2. Quadrature runs in
    units of the noise scale, relative to the best score, so the scores'
    ulp only enters through the gaps it leaves; pytest turns any
    RuntimeWarning into an error, so these also check that none is
    raised."""

    @pytest.mark.parametrize("family", ["exponential", "laplace", "gumbel"])
    @pytest.mark.parametrize("w", [1e3, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e17,
                                   1e18, 1e20, 1e100, 1e300])
    def test_table_where_the_nodes_meet_the_mass(self, family, w):
        # the other two entries are below 1e-100 (w = 1e3); from w = 1e18 the
        # best score's ulp (128) dwarfs the noise scale, and from 1e11 to 1e14
        # it is a sizeable fraction of it
        table = rnm_exact_quadrature(make_instance([w, 0.0, w / 2]), family)
        assert np.abs(np.subtract(table.probabilities, [1.0, 0.0, 0.0])).max() <= 1e-15

    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    @pytest.mark.parametrize("scores", [
        [1e16, 1e16], [1e20, 1e20, 0.0], [1e16, 1e16 - 2.0, 1e16 - 4.0],
    ])
    def test_samplers_keep_noise_the_ulp_rivals(self, name, scores):
        """The scores' ulp, 2 at 1e16 and 16384 at 1e20, rivals or dwarfs
        the noise scale: noise added to the raw scores would be rounded
        away, picking the first of two tied scores about two times in
        three at 1e16 and always at 1e20."""
        inst = make_instance(scores)
        _, gof = sampled_verdict(name, inst, 40_000, 19, SAMPLING_REFERENCES[name](inst))
        assert gof.passed
        tied = {i for i, s in enumerate(scores) if s == max(scores)}
        assert {MECHANISMS[name](inst, RngState(seed)).index for seed in range(40)} >= tied

    @pytest.mark.parametrize("w", [1e4, 1e5, 1e6, 1e7, 1e8, 1e9])
    def test_laplace_pair_far_above_a_third_score(self, w):
        """[w, w - 1, 0]: two Laplace scores one apart at scale 2 win
        1 - e^-0.5 * 1.25 / 2 and the rest; the third, w / 2 noise scales
        below, almost never. One interval over the empty stretch between the
        pair and the third would see no density and lose 15 % of the mass,
        which renormalizing would hide (0.642531 for the best)."""
        table = rnm_exact_quadrature(make_instance([w, w - 1.0, 0.0]), "laplace")
        best = 1.0 - math.exp(-0.5) * 1.25 / 2.0
        assert np.abs(np.subtract(table.probabilities, [best, 1.0 - best, 0.0])).max() <= 1e-9


def keep_probabilities(inst):
    """The floats p_j = exp(rate * (q_j - max q)) the pf DP starts from, as
    exact rationals."""
    scores = np.asarray(inst.quality.scores)
    shifted = np.exp(inst.params.rate * (scores - inst.quality.best_score))
    return [Fraction(float(x)) for x in shifted]


def rational_win_probabilities(inst):
    """e_i * integral over [0, 1] of prod_{j != i} (1 - e_j t) dt in exact
    rationals, from the floats e_j = exp(rate * (q_j - max q)) of
    keep_probabilities."""
    e = keep_probabilities(inst)
    out = []
    for i, e_i in enumerate(e):
        coeffs = [Fraction(1)]  # polynomial in t, constant term first
        for j, e_j in enumerate(e):
            if j != i:
                coeffs = [a - e_j * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        out.append(e_i * sum(c / (m + 1) for m, c in enumerate(coeffs)))
    return out


def underflow_instance(k, at=1):
    """The best outcome at index 0, then at indices at and at + 1 one
    outcome 900 below it, whose keep probability underflows to 0, and one
    at rate * gap = 744.9, whose keep probability is subnormal; the rest
    uniform on [-5, 0]."""
    rest = list(np.random.default_rng(k).uniform(-5.0, 0.0, k - 3))
    rest[at - 1 : at - 1] = [-900.0, -744.9]
    return make_instance([0.0, *rest], epsilon=2.0)


# every kind of keep probability (1, 0, subnormal), in either half of the
# outcomes, odd and even k, up to 20 outcomes
ERROR_BOUND_CASES = [
    pytest.param(make_instance([0.0] * 20), id="k20-ties"),
    pytest.param(make_instance([3.0]), id="k1"),
    pytest.param(underflow_instance(20), id="k20-underflow"),
    pytest.param(underflow_instance(20, at=15), id="k20-underflow-at-15"),
    pytest.param(
        make_instance(underflow_instance(20).quality.scores[::-1], epsilon=2.0),
        id="k20-underflow-best-last",
    ),
    pytest.param(
        random_instances(1, 1.0, 1.0, k_min=15, k_max=15, seed=41)[0], id="k15-eps1.0"
    ),
    *(
        pytest.param(
            random_instances(1, epsilon, 1.0, k_min=k, k_max=k, seed=41)[0],
            id=f"k{k}-eps{epsilon}",
        )
        for k, epsilons in ((17, (0.1, 4.0)), (20, (0.1, 1.0, 4.0)))
        for epsilon in epsilons
    ),
    *(
        pytest.param(inst, id=f"small-{n}-k{len(inst.quality)}")
        for n, inst in enumerate(
            random_instances(8, 2.0, 1.0, k_min=1, k_max=8, seed=42)
        )
    ),
]


class TestEnumerationErrorBound:
    """Gauss-Legendre and the pf DP against the win integral in exact
    rationals: within 1e-15 per entry up to 20 outcomes. Measured: 3.1e-16
    (Gauss-Legendre) and 2.1e-16 (the DP); the subset sum that Gauss-Legendre
    replaced reached 1.5e-13."""

    @pytest.mark.parametrize("inst", ERROR_BOUND_CASES)
    @pytest.mark.parametrize("fn", [pf_exact_distribution, rnm_expo_exact_distribution])
    def test_within_stated_bound_of_rational_reference(self, fn, inst):
        exact = rational_win_probabilities(inst)
        table = fn(inst)
        for p, reference in zip(table.probabilities, exact, strict=True):
            assert abs(Fraction(p) - reference) <= 1e-15


class TestEnumerationGolden:
    """Tables pinned bit for bit up to 14 outcomes: per k, a digest of the
    tables of one random instance at each of eps 0.1, 1 and 4, k ties and,
    from k = 3, underflow_instance(k). The pf digests are the coin-game
    DP's, each E_i summed from count k - 1 down to 0, the rnm-expo ones
    Gauss-Legendre's, each pinned once it met its bounds against exact
    rationals, above and below."""

    DIGESTS = {
        "pf": {
            1: "c914e8188e43fff1", 2: "fd0e313dec160403", 3: "68d4dc2bf91f5c0f",
            4: "6d90fee9e4823450", 5: "de800f84a5e4f5ff", 6: "80f002272fcbf02b",
            7: "f701ee281c6afdc2", 8: "a68d25fee5e7b0fa", 9: "b572ede81259eecf",
            10: "34a675ecb9a639db", 11: "85c4caeef0d459f3", 12: "6201813051a5aaea",
            13: "27e292a38db3fba3", 14: "cdbce914051b8892",
        },
        "rnm-expo": {
            1: "c914e8188e43fff1", 2: "90d8e1c0592170b3", 3: "9354b440d07b0171",
            4: "62d8fc483191c975", 5: "b9455447647d9e11", 6: "4b5365238cf2ed25",
            7: "0e11422768260ea2", 8: "d8f03bb31bfab95d", 9: "b91ef461837b56a6",
            10: "90695b97c5b254c0", 11: "d2e51c87a8097245", 12: "f95bfffff8d91568",
            13: "3a8f46a38b8f70e0", 14: "4f08f2b6fbd9d912",
        },
    }

    @pytest.mark.parametrize("k", range(1, 15))
    @pytest.mark.parametrize("name", ["pf", "rnm-expo"])
    def test_tables_unchanged(self, name, k):
        suite = [
            *(random_instances(1, eps, 1.0, k_min=k, k_max=k, seed=k)[0]
              for eps in (0.1, 1.0, 4.0)),
            make_instance([0.0] * k),
            *([underflow_instance(k)] if k >= 3 else []),
        ]
        digest = hashlib.sha256()
        for inst in suite:
            digest.update(np.array(EXACT_ORACLES[name](inst).probabilities).tobytes())
        assert digest.hexdigest()[:16] == self.DIGESTS[name][k]


class TestCoinGameGolden:
    """pf's linear and log tables pinned bit for bit above 14 outcomes, up
    to QUADRATURE_LIMIT: per k, a digest of the tables of one random
    instance at each of eps 0.1, 1 and 4, k ties and underflow_instance(k),
    each E_i summed strictly left to right from count k - 1 down to 0."""

    DIGESTS = {
        "linear": {20: "4eb84457bd2aa93f", 64: "ca12b7093e49975b", 128: "4ae6681f5fd682b5",
                   256: "99ee6358883c18f9"},
        "log": {20: "10f3df0827afd3ea", 64: "81568acc0e6b34d0", 128: "5642ceefef920dd3",
                256: "a1ff8963c57852cd"},
    }

    @pytest.mark.parametrize("k", [20, 64, 128, 256])
    @pytest.mark.parametrize("table", ["linear", "log"])
    def test_tables_unchanged(self, table, k):
        suite = [
            *(random_instances(1, eps, 1.0, k_min=k, k_max=k, seed=k)[0]
              for eps in (0.1, 1.0, 4.0)),
            make_instance([0.0] * k),
            underflow_instance(k),
        ]
        if table == "linear":
            tables = [np.array(pf_exact_distribution(inst).probabilities) for inst in suite]
        else:
            tables = exact_tables("pf", suite, log=True)
        digest = hashlib.sha256()
        for values in tables:
            digest.update(values.tobytes())
        assert digest.hexdigest()[:16] == self.DIGESTS[table][k]


class TestEnumerationMemory:
    """Memory stays flat in k: a table at the outcome limit peaks at a small
    multiple of BATCH_ELEMENTS doubles, where one buffer of 2^20 doubles
    took 8 MiB."""

    @pytest.mark.parametrize("name", ["pf", "rnm-expo"])
    def test_k20_table_peaks_below_three_batches(self, name):
        inst = random_instances(1, 1.0, 1.0, k_min=20, k_max=20, seed=5)[0]
        EXACT_ORACLES[name](inst)
        tracemalloc.start()
        try:
            EXACT_ORACLES[name](inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * BATCH_ELEMENTS * 8


def coin_game_table(inst):
    """Permute-and-flip's table as the literal coin game in exact rationals:
    every keep pattern of the k coins, then a uniform pick among the kept."""
    p = keep_probabilities(inst)
    out = [Fraction(0)] * len(p)
    for pattern in itertools.product((False, True), repeat=len(p)):
        kept = [j for j, keep in enumerate(pattern) if keep]
        weight = math.prod(p_j if keep else 1 - p_j for p_j, keep in zip(p, pattern))
        for j in kept:
            out[j] += weight / len(kept)
    return out


def subset_sum_table(inst):
    """Report-noisy-max's table as its win integral expanded by
    inclusion-exclusion over the other outcomes, a sum over subsets T of
    (-1)^|T| * e_i * prod_{j in T} e_j / (|T| + 1), in exact rationals."""
    e = keep_probabilities(inst)
    out = []
    for i, e_i in enumerate(e):
        others = e[:i] + e[i + 1 :]
        out.append(sum(
            (-1) ** size * e_i * math.prod(subset) / (size + 1)
            for size in range(len(others) + 1)
            for subset in itertools.combinations(others, size)
        ))
    return out


COIN_GAME_CASES = [
    pytest.param(make_instance([0.0]), id="k1"),
    pytest.param(make_instance([1.5] * 8, epsilon=3.0), id="k8-ties"),
    pytest.param(underflow_instance(8), id="k8-underflow"),
    *(
        pytest.param(inst, id=f"eps{epsilon}-k{len(inst.quality)}")
        for epsilon in (0.1, 1.0, 4.0)
        for inst in random_instances(6, epsilon, 1.0, k_min=2, k_max=8, seed=46)
    ),
]


class TestEnumerationAgainstDefinition:
    """Each exact pf and rnm-expo oracle against its own definition, walked
    term by term in exact rationals from the same float keep
    probabilities."""

    @pytest.mark.parametrize("inst", COIN_GAME_CASES)
    @pytest.mark.parametrize("fn, reference, bound", [
        pytest.param(pf_exact_distribution, coin_game_table, 1e-15, id="pf"),
        pytest.param(rnm_expo_exact_distribution, subset_sum_table, 1e-15, id="rnm-expo"),
    ])
    def test_every_entry_matches(self, fn, reference, bound, inst):
        table = fn(inst)
        for p, exact in zip(table.probabilities, reference(inst), strict=True):
            assert abs(Fraction(p) - exact) <= bound


class TestPfBeyondEnumeration:
    """The coin-game DP from k = 21 to QUADRATURE_LIMIT, where no
    enumeration reaches."""

    @pytest.mark.parametrize("k", [32, 64, 128, 256])
    @pytest.mark.parametrize("epsilon", [0.1, 1.0, 8.0])
    def test_within_quadrature_target(self, k, epsilon):
        """Against report-noisy-max with exponential noise by quadrature, a
        different formula: within QUADRATURE_TARGET per entry. Measured:
        1.5e-13."""
        inst = _spread_instance(k, epsilon, seed=k)
        table = pf_exact_distribution(inst).probabilities
        quad = rnm_exact_quadrature(inst, "exponential").probabilities
        assert np.abs(np.subtract(table, quad)).max() <= oracle.QUADRATURE_TARGET

    @pytest.mark.parametrize("k", [21, 32, 64])
    @pytest.mark.parametrize("epsilon", [0.01, 0.1, 1.0, 8.0])
    def test_within_1e_15_of_rational_coin_game(self, k, epsilon):
        """Against the coin game in exact rationals, P(i) = p_i * E_i by
        rational_coin_game from the same float p_i: within 1e-15 per entry.
        Measured: 2.6e-16. test_k128_within_1e_15_and_386u_of_rational_coin_game
        makes the same comparison at k = 128."""
        inst = _spread_instance(k, epsilon, seed=k + 1)
        p = np.exp(log_weights(inst))
        table = pf_exact_distribution(inst).probabilities
        exact = [Fraction(float(p_i)) * e for p_i, e in zip(p, rational_coin_game(p))]
        assert max(abs(Fraction(x) - e) for x, e in zip(table, exact, strict=True)) <= 1e-15

    def test_k128_within_1e_15_and_386u_of_rational_coin_game(self):
        """At k = 128, one rational_coin_game call (about 3 s) against both
        exact routes: pf_exact_distribution and rnm_expo_exact_distribution
        within 1e-15 per entry, and pf within its stated (3k + 2)u = 386u
        relative, u = 2^-53; every p_i >= e^-5, so no entry is subnormal.
        Measured: at most 3.2e-17 and 9.9u."""
        inst = _spread_instance(128, 1.0, seed=128)
        p = np.exp(log_weights(inst))
        exact = [Fraction(float(p_i)) * e for p_i, e in zip(p, rational_coin_game(p), strict=True)]
        pf = pf_exact_distribution(inst).probabilities
        for table in (pf, rnm_expo_exact_distribution(inst).probabilities):
            assert max(abs(Fraction(x) - e) for x, e in zip(table, exact, strict=True)) <= 1e-15
        relative = max(abs(Fraction(x) - e) / e for x, e in zip(pf, exact, strict=True))
        assert relative * 2**53 <= 3 * 128 + 2

    @pytest.mark.parametrize("scores", [
        pytest.param([0.0] * 256, id="k256-ties"),
        pytest.param(np.linspace(0.0, -5.0, 256), id="k256-spread"),
        pytest.param(np.linspace(0.0, -400.0, 256), id="k256-wide"),
        pytest.param([0.0] * 21, id="k21-ties"),
    ])
    def test_sum_within_1e_13_of_one(self, scores):
        """Measured: at most 4.4e-16."""
        table = pf_exact_distribution(make_instance(scores))
        assert abs(math.fsum(table.probabilities) - 1.0) <= 1e-13

    def test_score_range_beyond_doubles(self):
        table = pf_exact_distribution(make_instance([1e308] + [-1e308] * 255))
        assert table.probabilities == (1.0,) + (0.0,) * 255

    @pytest.mark.parametrize("fn", [pf_exact_distribution, rnm_expo_exact_distribution],
                             ids=["pf", "rnm-expo"])
    def test_k256_peaks_below_stated_memory(self, fn):
        """The DP's laws, 2k(k + 1) doubles, and numpy's ufunc buffers stay
        below 2k^2 + 2 * BATCH_ELEMENTS doubles, 1.3 MiB at k = 256.
        Gauss-Legendre keeps to it too, with its two (129, 257) arrays,
        0.5 MiB. Measured: 1.26 MB and 0.74 MB."""
        inst = _spread_instance(256, 1.0, seed=3)
        fn(inst)
        tracemalloc.start()
        try:
            fn(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * 256**2 + 2 * BATCH_ELEMENTS) * 8


class TestEquivalence:
    @pytest.mark.parametrize("epsilon", [0.1, 1.0, 4.0])
    def test_pf_equals_rnm_expo_on_random_instances(self, epsilon):
        for inst in random_instances(
            15, epsilon, 1.0, k_min=2, k_max=12, seed=hash(epsilon) % 1000
        ):
            tv = tv_distance(pf_exact_distribution(inst), rnm_expo_exact_distribution(inst))
            assert tv <= 1e-8

    @given(inst=instances(k_min=2, k_max=7))
    @settings(max_examples=40, deadline=None)
    def test_pf_differs_from_em_whenever_scores_do(self, inst):
        scores = inst.quality.scores
        assume(max(scores) - min(scores) > 1e-3)
        tv = tv_distance(pf_exact_distribution(inst), em_exact_distribution(inst))
        assert tv > 0.0

    def test_pinned_gap_between_pf_and_em(self):
        inst = make_instance([1.0, 0.0], epsilon=2.0)
        tv = tv_distance(pf_exact_distribution(inst), em_exact_distribution(inst))
        assert tv == pytest.approx(0.085001, abs=1e-6)


class TestQuadrature:
    def test_exponential_matches_closed_form(self):
        for inst in random_instances(5, 1.0, 1.0, k_min=2, k_max=10, seed=7):
            quad = rnm_exact_quadrature(inst, "exponential")
            closed = rnm_expo_exact_distribution(inst)
            assert np.allclose(quad.probabilities, closed.probabilities, atol=1e-6, rtol=0)
        assert quad.provenance == "quadrature"

    def test_gumbel_matches_exponential_mechanism(self):
        for inst in random_instances(5, 2.0, 1.0, k_min=2, k_max=8, seed=8):
            quad = rnm_exact_quadrature(inst, "gumbel")
            closed = em_exact_distribution(inst)
            assert np.allclose(quad.probabilities, closed.probabilities, atol=1e-6, rtol=0)

    def test_laplace_symmetric_instance(self):
        quad = rnm_exact_quadrature(make_instance([0.0, 0.0], epsilon=1.0), "laplace")
        assert quad.probabilities == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_laplace_differs_from_both_closed_forms(self):
        inst = make_instance([1.0, 0.0], epsilon=2.0)
        laplace = rnm_exact_quadrature(inst, "laplace")
        assert tv_distance(laplace, em_exact_distribution(inst)) > 1e-3
        assert tv_distance(laplace, pf_exact_distribution(inst)) > 1e-3

    def test_two_calls_bit_identical(self):
        inst = make_instance([1.2, -0.4, 0.3], epsilon=1.0)
        a = rnm_exact_quadrature(inst, "laplace")
        b = rnm_exact_quadrature(inst, "laplace")
        assert a.probabilities == b.probabilities

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            rnm_exact_quadrature(make_instance([0.0, 1.0]), "gaussian")

    def test_outcome_limit(self):
        with pytest.raises(TooManyOutcomesForEnumeration):
            rnm_exact_quadrature(make_instance([0.0] * 257), "laplace")

    def test_missed_target_raises_with_achieved_error(self, monkeypatch):
        monkeypatch.setattr(oracle, "QUADRATURE_TARGET", 1e-300)
        with pytest.raises(QuadratureNonConvergence) as raised:
            rnm_exact_quadrature(make_instance([1.2, -0.4, 0.3]), "laplace")
        achieved = raised.value.achieved_error
        assert math.isfinite(achieved) and achieved > 1e-300

    def test_error_reads_as_its_message(self):
        error = QuadratureNonConvergence("missed 1e-12", 3e-9)
        assert (str(error), error.achieved_error) == ("missed 1e-12", 3e-9)

    def test_lost_mass_raises_naming_it(self, monkeypatch):
        """A domain that ends at the upper tail's 1e-6 split leaves about
        1e-6 of the mass out: far above the error estimate and the 8e-12
        truncation allowed at k = 3, so the table is refused rather than
        renormalized."""
        whole = oracle._win_integrand

        def cut_short(inst, kind):
            integrand, edges = whole(inst, kind)
            return integrand, edges[:-1]

        monkeypatch.setattr(oracle, "_win_integrand", cut_short)
        with pytest.raises(QuadratureNonConvergence, match="is missing") as raised:
            rnm_exact_quadrature(make_instance([1.2, -0.4, 0.3]), "laplace")
        missing = raised.value.achieved_error
        assert 1e-7 < missing < 1e-5 and f"mass {missing:.3e} is missing" in str(raised.value)

    @pytest.mark.parametrize("family", ["exponential", "laplace", "gumbel"])
    def test_k64_meets_target(self, family):
        rnm_exact_quadrature(_spread_instance(64, 1.0, seed=64), family)

    @pytest.mark.parametrize("k,epsilon", [(64, 0.5), (64, 2.0), (256, 1.0)])
    def test_gumbel_equals_em_per_entry(self, k, epsilon):
        inst = _spread_instance(k, epsilon, seed=k)
        quad = rnm_exact_quadrature(inst, "gumbel")
        closed = em_exact_distribution(inst)
        assert np.allclose(quad.probabilities, closed.probabilities, atol=1e-9, rtol=0)

    def test_exponential_equals_closed_form_per_entry_at_k20(self):
        inst = _spread_instance(20, 1.0, seed=20)
        quad = rnm_exact_quadrature(inst, "exponential")
        closed = rnm_expo_exact_distribution(inst)
        assert np.allclose(quad.probabilities, closed.probabilities, atol=1e-9, rtol=0)


class TestQuadratureGolden:
    """Quadrature tables pinned bit for bit: per family and k, a digest of
    the tables of one random instance at each of eps 0.1, 1 and 4 and of k
    ties; at k = 2 also [1e308, -1e308] at eps 2e-308, where the noise
    scale is 1e308."""

    DIGESTS = {
        "exponential": {2: "4ad29adc9a1647b6", 5: "1b90f47a73b46020",
                        16: "cb91b0aaa9c2ca1c", 32: "ff51e9fe07db9820",
                        64: "799298a31a87356d", 128: "15383044d32cddcc",
                        256: "ae3b7f3eefb6f4c9"},
        "laplace": {2: "5ef18ed667f4633f", 5: "8b4c51fdebd33e1f",
                    16: "6c829b08e965fb15", 32: "3f68845261c0e70e",
                    64: "49d0ee744b6679df", 128: "a6c3bb510f16351a",
                    256: "12d079001eeab335"},
        "gumbel": {2: "ec04dc4de9af1354", 5: "bfc370bcbac58d53",
                   16: "909b2882aa8dc7e4", 32: "1a85611b917d046d",
                   64: "871f8a22e301b21b", 128: "9a9ec0ff4ac35f33",
                   256: "e12d34470eaf9754"},
    }

    @pytest.mark.parametrize("k", [2, 5, 16, 32, 64, 128, 256])
    @pytest.mark.parametrize("family", ["exponential", "laplace", "gumbel"])
    def test_tables_unchanged(self, family, k):
        suite = [
            *(random_instances(1, eps, 1.0, k_min=k, k_max=k, seed=k)[0]
              for eps in (0.1, 1.0, 4.0)),
            make_instance([0.0] * k),
            *([make_instance([1e308, -1e308], epsilon=2e-308)] if k == 2 else []),
        ]
        digest = hashlib.sha256()
        for inst in suite:
            digest.update(np.array(rnm_exact_quadrature(inst, family).probabilities).tobytes())
        assert digest.hexdigest()[:16] == self.DIGESTS[family][k]


class TestGaussKronrod:
    """The quadrature route's integrator: QUADPACK's 21-point Gauss-Kronrod
    rule, in numpy, refined by bisecting each round every interval with at
    least its even share of the error target. scipy.integrate.quad_vec,
    which refines differently, is the reference at 1e-12."""

    def test_one_panel_is_exact_up_to_degree_31(self):
        # the 21 Kronrod nodes integrate x^j exactly for j <= 31, and the
        # embedded 10-point Gauss rule that the error estimate compares
        # against for j <= 19: a mistyped node or weight fails
        powers = np.arange(32)
        integral, _, _ = oracle._gk21(
            np.array([0.0]), np.array([1.0]), lambda v: v[:, None] ** powers, 32
        )
        assert np.abs(integral[0] - 1.0 / (powers + 1)).max() <= 1e-15
        even = powers[:20]
        gauss = oracle._GK21_GAUSS @ oracle._GK21_NODES[1::2, None] ** even
        exact = np.where(even % 2 == 0, 2.0 / (even + 1), 0.0)  # over [-1, 1]
        assert np.abs(gauss - exact).max() <= 1e-15

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 12, 64, 256])
    @pytest.mark.parametrize("family", ["exponential", "laplace", "gumbel"])
    def test_matches_quad_vec(self, family, k):
        from scipy.integrate import quad_vec

        integrand, edges = oracle._win_integrand(_spread_instance(k, 1.0, seed=k), family)
        epsabs = oracle.QUADRATURE_TARGET / 10.0
        reference, _ = quad_vec(
            lambda v: integrand(np.array([v]))[0], edges[0], edges[-1], epsabs=epsabs,
            epsrel=0.0, norm="max", limit=400, points=edges[1:-1],
        )
        raw, error = oracle._adaptive_gk21(integrand, k, edges)
        assert np.abs(raw - reference).max() <= 1e-12
        assert error <= oracle.QUADRATURE_TARGET


class TestQuadratureMemory:
    """No integrand array holds more than BATCH_ELEMENTS doubles, 128 KiB,
    glibc's default mmap threshold, so memory stays flat in k: a chunk's
    factors hold its points times k + 2 rows, the k factors between two
    rows of ones."""

    @pytest.mark.parametrize("k", [2, 32, 64, 256])
    @pytest.mark.parametrize("family", ["exponential", "laplace", "gumbel"])
    def test_factors_fit_in_batch_elements(self, monkeypatch, family, k):
        whole, sizes = oracle._win_integrand, []

        def recorded(inst, kind):
            integrand, edges = whole(inst, kind)

            def counted(v):
                sizes.append(len(v))
                return integrand(v)

            return counted, edges

        monkeypatch.setattr(oracle, "_win_integrand", recorded)
        rnm_exact_quadrature(_spread_instance(k, 1.0, seed=k), family)
        assert sizes and all(m * (k + 2) <= BATCH_ELEMENTS for m in sizes), sizes


class TestRunningProduct:
    """The integrand's running products, on both sides of the 128-column
    switch, are numpy's accumulate along axis 0 bit for bit, zeros and
    subnormals included, and so are they on a reversed view."""

    @pytest.mark.parametrize("shape", [(5, 127), (5, 128), (34, 462), (258, 63)])
    def test_equals_accumulate(self, shape):
        rows = np.random.default_rng(shape[1]).uniform(0.0, 1.0, shape) ** 8
        rows[2, ::7] = 0.0
        want = np.multiply.accumulate(rows, axis=0)
        assert oracle._running_product(rows.copy()).tobytes() == want.tobytes()
        flipped = rows.copy()
        oracle._running_product(flipped[::-1])
        assert flipped[::-1].tobytes() == np.multiply.accumulate(rows[::-1], axis=0).tobytes()


def log_identity_reference(inst):
    """log P(i) = gamma_i + log I_i with I_i, the integral in
    rational_win_probabilities, taken over the other outcomes in exact
    rationals: I_i lies in [1/k, 1], so its log is exact to a rounding even
    where P(i) itself is far below the double range."""
    gamma = inst.params.rate * (np.asarray(inst.quality.scores) - inst.quality.best_score)
    e = [Fraction(float(x)) for x in np.exp(gamma)]
    out = []
    for i in range(len(e)):
        coeffs = [Fraction(1)]
        for j, e_j in enumerate(e):
            if j != i:
                coeffs = [a - e_j * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        out.append(gamma[i] + math.log(float(sum(c / (m + 1) for m, c in enumerate(coeffs)))))
    return np.array(out)


def random_spread_instances(count, seed, k_min=1, k_max=20):
    """Instances with k uniform in [k_min, k_max], epsilon log-uniform in
    [0.01, 8] and scores uniform on [-5, 5] times 1, 10 or 100."""
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(gen.integers(k_min, k_max + 1))
        epsilon = float(np.exp(gen.uniform(math.log(0.01), math.log(8.0))))
        out.append(make_instance(gen.uniform(-5.0, 5.0, k) * gen.choice([1, 10, 100]), epsilon))
    return out


class TestLogTables:
    """exact_tables' log tables: the coin-game DP (pf), Gauss-Legendre
    (rnm-expo) and the softmax factor (em), each held to a stated bound
    against an independent route."""

    def test_pf_within_2e_15_of_enumeration(self):
        """Over 200 random instances (k 1-20, eps 0.01-8) every entry of pf's
        and of rnm-expo's log table is within 2e-15 of pf_exact_distribution's
        and of rnm_expo_exact_distribution's. Measured: 1.1e-16 and 5.6e-16."""
        batch = random_spread_instances(200, seed=300)
        for name in ("pf", "rnm-expo"):
            for inst, log_p in zip(batch, exact_tables(name, batch, log=True), strict=True):
                p = np.exp(log_p)
                assert np.abs(p - pf_exact_distribution(inst).probabilities).max() <= 2e-15
                assert np.abs(p - rnm_expo_exact_distribution(inst).probabilities).max() <= 2e-15

    def test_em_within_1e_15_of_closed_form(self):
        """em's log table against em_exact_distribution's softmax: within
        1e-15 per entry over 200 such instances. Measured: 1.1e-16."""
        batch = random_spread_instances(200, seed=301)
        for inst, log_p in zip(batch, exact_tables("em", batch, log=True), strict=True):
            closed = em_exact_distribution(inst).probabilities
            assert np.abs(np.exp(log_p) - closed).max() <= 1e-15

    @pytest.mark.parametrize("inst", [
        pytest.param(make_instance([0.0, -744.9]), id="subnormal"),
        pytest.param(make_instance([0.0, -744.9, -745.6, -800.0, -1000.0, -3.0], epsilon=2.0),
                     id="below-double-range"),
        pytest.param(underflow_instance(12), id="k12-underflow"),
        pytest.param(make_instance([0.0] * 12), id="k12-ties"),
        *(pytest.param(inst, id=f"random-k{len(inst.quality)}")
          for inst in random_spread_instances(6, seed=302, k_max=12)),
    ])
    def test_log_entries_within_1e_14_of_rational_reference(self, inst):
        """In log space, where no entry underflows, every entry of pf's and
        of rnm-expo's log table is within 1e-14 of log_identity_reference,
        also for probabilities far below 1e-308. Measured: 8.9e-16."""
        for name in ("pf", "rnm-expo"):
            (log_p,) = exact_tables(name, [inst], log=True)
            assert np.isfinite(log_p).all()
            assert np.abs(log_p - log_identity_reference(inst)).max() <= 1e-14

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_log_step_within_its_stated_bound(self, data):
        """exact_tables' log step min(gamma + log C, 0), on a factor C in
        [1/k, 1] (k 1-256) that is exact as a double (delta = 0), with gamma
        down to -745: within ulp(log C) + u |log P| of gamma + ln C taken to
        50 digits, a search aimed at the ratio of the error to that bound.
        Worst ratio found 0.998 in 30,000 examples, about 0.97 in these 400:
        the add alone costs u |log P| where log P lies just beyond a power
        of two."""
        k = data.draw(st.integers(1, 256), label="k")
        c = data.draw(st.floats(1.0 / k, 1.0), label="C")
        gamma = data.draw(st.floats(-745.0, 0.0), label="gamma")
        (log_p,) = oracle._chunk_tables([lambda gamma, w, counts: np.full(gamma.shape, c)],
                                        [np.array([gamma])], [1], log=True)
        with localcontext() as ctx:
            ctx.prec = 50
            exact = Decimal(gamma) + Decimal(c).ln()
            ratio = abs(Decimal(float(log_p[0, 0])) - exact) / (
                Decimal(float(np.spacing(abs(math.log(c))))) + abs(exact) / 2**53)
        target(float(ratio), label="error / bound")
        assert ratio <= 1

    @pytest.mark.parametrize("k", [32, 64, 128, 256])
    @pytest.mark.parametrize("epsilon", [0.1, 1.0, 8.0])
    def test_pf_within_quadrature_target_at_large_k(self, k, epsilon):
        """Beyond enumeration, pf's and rnm-expo's log tables against
        rnm_exact_quadrature with exponential noise, a different formula:
        within its 1e-9 target QUADRATURE_TARGET per entry. Measured:
        1.5e-13."""
        inst = _spread_instance(k, epsilon, seed=k)
        quad = rnm_exact_quadrature(inst, "exponential").probabilities
        for name in ("pf", "rnm-expo"):
            (log_p,) = exact_tables(name, [inst], log=True)
            assert np.abs(np.exp(log_p) - quad).max() <= oracle.QUADRATURE_TARGET

    @pytest.mark.parametrize("scores", [
        pytest.param([0.0] * 256, id="k256-ties"),
        pytest.param(np.linspace(0.0, -5.0, 256), id="k256-spread"),
        pytest.param(np.linspace(0.0, -400.0, 256), id="k256-wide"),
        pytest.param([0.0] * 20, id="k20-ties"),
        pytest.param([0.0], id="k1"),
    ])
    def test_sum_drifts_from_one_by_at_most_1e_13(self, scores):
        """The entries sum to 1 within 1e-13 up to k = 256, for every
        mechanism. Measured: 1.1e-14."""
        for name in FACTORS:
            (log_p,) = exact_tables(name, [make_instance(scores)], log=True)
            assert abs(math.fsum(np.exp(log_p)) - 1.0) <= 1e-13
            assert (log_p <= 0.0).all()

    @pytest.mark.parametrize("log", [False, True], ids=["linear", "log"])
    @pytest.mark.parametrize("name", ["pf", "rnm-expo", "em"])
    def test_batch_equals_single_calls_bit_for_bit(self, name, log):
        """Mixed k in one batch, with more rows of one chunk key than one
        chunk holds and rows at k = 256 that get a chunk each."""
        batch = random_spread_instances(150, seed=303, k_max=24)
        batch += [_spread_instance(256, 1.0, seed=1), make_instance([2.0]), *batch[:3]]
        batch += [make_instance([0.0] * k) for k in (9, 10, 11)] * 300
        batched = exact_tables(name, batch, log=log)
        assert len(batched) == len(batch)
        for inst, table in zip(batch, batched):
            assert np.array_equal(table, exact_tables(name, [inst], log=log)[0])

    def test_mixed_node_counts_share_one_gauss_legendre_call(self, monkeypatch):
        """rnm-expo rows of k 2-9, five node counts in one chunk, take one
        _win_integrals call, with each row's own outcome count."""
        calls = []
        factor, provenance = FACTORS["rnm-expo"]

        def recording(gamma, w, counts):
            calls.append(list(counts))
            return factor(gamma, w, counts)

        monkeypatch.setitem(FACTORS, "rnm-expo", (recording, provenance))
        batch = [make_instance(np.linspace(0.0, -3.0, k)) for k in range(2, 10)] * 2
        exact_tables("rnm-expo", batch, log=True)
        assert calls == [[len(inst.quality) for inst in batch]]

    def test_chunks_stay_within_batch_elements(self, monkeypatch):
        """Each _coin_game or _win_integrals call holds at most
        BATCH_ELEMENTS values of its arrays, the DP's laws 2 width
        (width + 1) per row, Gauss-Legendre's two (m, width + 1) arrays,
        or a single row."""
        batch = random_spread_instances(300, seed=304, k_min=15, k_max=40)
        batch.append(make_instance([0.0] * 256))
        for name, values in [("pf", lambda width: 2 * width * (width + 1)),
                             ("rnm-expo", lambda width: 2 * (width // 2 + 1) * (width + 1))]:
            shapes = []
            factor, *rest = FACTORS[name]

            def recording(gamma, w, counts):
                shapes.append(gamma.shape)
                return factor(gamma, w, counts)

            monkeypatch.setitem(FACTORS, name, (recording, *rest))
            exact_tables(name, batch, log=True)
            assert sum(rows for rows, _ in shapes) == len(batch)
            assert len(shapes) > 2
            assert all(rows * values(width) <= BATCH_ELEMENTS or rows == 1
                       for rows, width in shapes)

    def test_true_zero_is_minus_infinity(self):
        # rate * (q - max q) = 5e299 * -1e10 leaves the double range
        inst = make_instance([0.0, -1e10], epsilon=1.0, sensitivity=1e-300)
        for name in FACTORS:
            (log_p,) = exact_tables(name, [inst], log=True)
            assert log_p.tolist() == [0.0, -math.inf]

    def test_outcome_limit(self):
        for name in FACTORS:
            with pytest.raises(TooManyOutcomesForEnumeration, match="at most 256 outcomes, got 257"):
                exact_tables(name, [make_instance([0.0] * 3), make_instance([0.0] * 257)], log=True)

    @pytest.mark.parametrize("name", ["alg-a", None])
    def test_name_without_a_factor_raises_unsupported_oracle(self, name):
        with pytest.raises(UnsupportedOracle,
                           match=r"has no exact output-distribution oracle; expected one of "
                                 r"\['em', 'pf', 'rnm-expo'\]"):
            exact_tables(name, [make_instance([0.0, -1.0])])

    def test_dispatch_table_keyed_like_exact_oracles(self):
        """FACTORS drives the exact tables, the exact route and the audit,
        keyed like EXACT_ORACLES, each route with its own provenance."""
        assert set(FACTORS) == set(EXACT_ORACLES) == set(oracle.ROUTES["exact"][0])
        inst = make_instance([0.0, -1.0, -2.0])
        for name, (*_, provenance) in FACTORS.items():
            assert EXACT_ORACLES[name](inst).provenance == provenance

    @pytest.mark.parametrize("inst", [
        pytest.param(make_instance([0.0, -744.9, -745.6, -800.0, -1000.0, -3.0], epsilon=2.0),
                     id="below-double-range"),
        pytest.param(make_instance([0.0, -1e10, -1.0, -1e10], epsilon=1.0, sensitivity=1e-300),
                     id="true-zeros"),
        pytest.param(underflow_instance(40), id="k40-underflow"),
        pytest.param(make_instance([0.0] * 256), id="k256-ties"),
        pytest.param(make_instance(np.linspace(0.0, -3000.0, 256)), id="k256-far-below"),
        *(pytest.param(inst, id=f"random-k{len(inst.quality)}")
          for inst in random_spread_instances(8, seed=305, k_max=256)),
    ])
    def test_pf_and_rnm_expo_agree_within_their_bounds(self, inst):
        """The paper's identity entry by entry in log space, from two routes
        that share no code: |log P - log P'| is at most the sum of the DP's
        and Gauss-Legendre's stated relative bounds on E and I, plus the
        rounding of each log (u log k) and of each sum (u |log P|), with the
        same -inf pattern on both sides. Measured: at most 8.9e-15, and at
        most 0.04 of the two bounds."""
        pf, rnm = (exact_tables(name, [inst], log=True)[0] for name in ("pf", "rnm-expo"))
        assert np.array_equal(np.isinf(pf), np.isinf(rnm))
        finite = np.isfinite(pf)
        k, u = len(pf), 2.0**-53
        bound = float(rounding_bound(k) + gauss_legendre_bound(k)) * (1.0 + 1e-6)
        allowed = bound + 2.0 * u * (math.log(k) + 2.0 + np.abs(pf[finite]))
        assert (np.abs(pf[finite] - rnm[finite]) <= allowed).all()


def dp_means(inst):
    """_coin_game's E_i for one instance."""
    return oracle._coin_game(np.exp(log_weights(inst))[None])[0]


def mean_errors(means, inst):
    """Each mean's relative error against rational_coin_game."""
    exact = rational_coin_game(np.exp(log_weights(inst)))
    return [abs(Fraction(float(m)) - e) / e for m, e in zip(means, exact, strict=True)]


def rounding_bound(k):
    """_coin_game's stated bound on E_i, (3k + 1) u relative."""
    return Fraction(3 * k + 1, 2**53)


def table_bound(k):
    """pf_exact_distribution's stated bound on P(i), (3k + 2) u relative of
    p_i * E_i, plus 2^-1075 absolute where P(i) is subnormal."""
    return Fraction(3 * k + 2, 2**53)


def table_errors(probabilities, inst):
    """Each entry's error against p_i * E_i by rational_coin_game, from the
    same float p_i, in units of the stated bound at that entry."""
    p = np.exp(log_weights(inst))
    bound = table_bound(len(p))
    return [abs(Fraction(x) - Fraction(float(p_i)) * e)
            / (bound * Fraction(float(p_i)) * e + Fraction(1, 2**1075))
            for x, p_i, e in zip(probabilities, p, rational_coin_game(p), strict=True)]


ROUNDING_CASES = [
    pytest.param(make_instance([0.0]), id="k1"),
    pytest.param(make_instance([0.0] * 64), id="k64-ties"),
    pytest.param(make_instance(np.linspace(0.0, -1.0, 64)), id="k64-every-p-above-half"),
    pytest.param(underflow_instance(21), id="k21-underflow"),
    pytest.param(make_instance([0.0, -744.9, -745.6, -800.0, -1000.0, -3.0], epsilon=2.0),
                 id="below-double-range"),
    *(pytest.param(_inst, id=f"eps{epsilon}-k{len(_inst.quality)}")
      for epsilon in (0.01, 1.0, 8.0)
      for _inst in random_instances(3, epsilon, 1.0, k_min=2, k_max=64, seed=47)),
]


class TestCoinGameRoundingBound:
    """_coin_game's stated bound, E_i within (3k + 1) u relative of the coin
    game with the same float p_i, and pf_exact_distribution's, P(i) within
    (3k + 2) u relative, against rational_coin_game up to k = 64."""

    @pytest.mark.parametrize("inst", ROUNDING_CASES)
    def test_log_tables_read_these_means_bit_for_bit(self, inst):
        (log_p,) = exact_tables("pf", [inst], log=True)
        expected = np.minimum(log_weights(inst) + np.log(dp_means(inst)), 0.0)
        assert np.array_equal(log_p, expected)

    @pytest.mark.parametrize("inst", ROUNDING_CASES)
    def test_means_within_stated_bound(self, inst):
        """Measured: at most 9.6e-16 relative, and at most a tenth of the
        bound, which is 2.1e-14 at k = 64."""
        assert max(mean_errors(dp_means(inst), inst)) <= rounding_bound(len(inst.quality))

    def test_injected_error_of_twice_the_bound_is_caught(self):
        inst = _spread_instance(64, 1.0, seed=5)
        bound = rounding_bound(64)
        injected = dp_means(inst) * (1.0 + 2.0 * float(bound))
        assert all(error > bound for error in mean_errors(injected, inst))

    @pytest.mark.parametrize("inst", ROUNDING_CASES)
    def test_linear_table_within_stated_bound(self, inst):
        """pf_exact_distribution's P(i) = p_i * E_i, one rounding more than
        E_i: within (3k + 2) u relative, plus 2^-1075 absolute where it is
        subnormal. Measured: at most 9.4u relative where P(i) is normal, and
        at most 0.095 of the bound."""
        assert max(table_errors(pf_exact_distribution(inst).probabilities, inst)) <= 1

    @pytest.mark.parametrize("inst", ROUNDING_CASES)
    def test_linear_table_reads_these_means_bit_for_bit(self, inst):
        p = np.exp(log_weights(inst))
        assert pf_exact_distribution(inst).probabilities == tuple((p * dp_means(inst)).tolist())

    def test_linear_table_injected_error_of_twice_the_bound_is_caught(self):
        inst = _spread_instance(64, 1.0, seed=5)
        injected = np.array(pf_exact_distribution(inst).probabilities)
        injected *= 1.0 + 2.0 * float(table_bound(64))
        assert all(error > 1 for error in table_errors(injected, inst))


def legendre_nodes_at_50_digits(m):
    """_legendre_nodes' Newton iteration, from the same cosine guesses, in
    50-digit decimal arithmetic, iterated to a step below 1e-40: the nodes
    and weights on [0, 1] as exact rationals."""
    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 50
        for n in range(m):
            x, step = Decimal(math.cos(math.pi * (n + 0.75) / (m + 0.5))), 1
            while abs(step) >= Decimal("1e-40"):
                p, prev = Decimal(1), Decimal(0)
                for j in range(1, m + 1):
                    p, prev = ((2 * j - 1) * x * p - (j - 1) * prev) / j, p
                dp = m * (x * p - prev) / (x * x - 1)
                step = p / dp
                x -= step
            nodes.append(Fraction((1 + x) / 2))
            weights.append(Fraction(1 / ((1 - x * x) * dp * dp)))
    return nodes, weights


def gl_integrals(inst):
    """_win_integrals' I_i for one instance."""
    gamma = log_weights(inst)
    return oracle._win_integrals(gamma[None], [len(gamma)])[0]


def gauss_legendre_bound(k):
    """rnm_expo_exact_distribution's stated bound on I_i, (7k + (k + 4)^2 / 5) u
    relative."""
    return Fraction(35 * k + (k + 4) ** 2, 5 * 2**53)


class TestGaussLegendreRoundingBound:
    """rnm_expo_exact_distribution's stated bound: I_i within
    (7k + (k + 4)^2 / 5) u relative of the integral of the same float keep
    probabilities, which is the coin game's E_i, against rational_coin_game
    up to k = 64, with nodes and weights within 0.81u and 1.56u of the
    exact ones."""

    @pytest.mark.parametrize("inst", ROUNDING_CASES)
    def test_integrals_within_stated_bound(self, inst):
        """Measured: at most 32u relative (k = 64 ties, where the bound is
        1371u), and at most 0.081 of the bound."""
        assert max(mean_errors(gl_integrals(inst), inst)) <= gauss_legendre_bound(len(inst.quality))

    @pytest.mark.parametrize("inst", ROUNDING_CASES)
    def test_log_tables_read_these_integrals_bit_for_bit(self, inst):
        (log_p,) = exact_tables("rnm-expo", [inst], log=True)
        expected = np.minimum(log_weights(inst) + np.log(gl_integrals(inst)), 0.0)
        assert np.array_equal(log_p, expected)

    @pytest.mark.parametrize("inst", ROUNDING_CASES)
    def test_linear_table_reads_these_integrals_bit_for_bit(self, inst):
        expected = np.exp(log_weights(inst)) * gl_integrals(inst)
        assert rnm_expo_exact_distribution(inst).probabilities == tuple(expected.tolist())

    def test_padding_leaves_every_factor_exactly_one(self):
        """A -inf pad's factor (1 - t) + t * 1 is exactly 1 at every node
        count up to QUADRATURE_LIMIT, so pads leave a row's products as
        they are."""
        for m in range(1, oracle.QUADRATURE_LIMIT // 2 + 2):
            t = oracle._legendre_nodes(m)[0]
            assert (t * -np.expm1(-np.inf) + (1.0 - t) == 1.0).all()

    def test_injected_error_of_twice_the_bound_is_caught(self):
        inst = _spread_instance(64, 1.0, seed=5)
        bound = gauss_legendre_bound(64)
        injected = gl_integrals(inst) * (1.0 + 2.0 * float(bound))
        assert all(error > bound for error in mean_errors(injected, inst))

    def test_nodes_and_weights_within_stated_bounds(self):
        """Against the same iteration at 50 digits, absolute on [0, 1].
        Measured: 0.8095u and 1.559u."""
        node_error = weight_error = 0
        for m in [*range(1, 22), 33, 65, 129]:
            nodes, weights = oracle._legendre_nodes(m)
            exact_nodes, exact_weights = legendre_nodes_at_50_digits(m)
            node_error = max(node_error, *(abs(Fraction(float(t)) - e)
                                           for t, e in zip(nodes, exact_nodes, strict=True)))
            weight_error = max(weight_error, *(abs(Fraction(float(w)) - e)
                                               for w, e in zip(weights, exact_weights, strict=True)))
        assert node_error <= Fraction(81, 100) / 2**53
        assert weight_error <= Fraction(156, 100) / 2**53

    def test_smallest_weight_as_stated(self):
        """min w >= 2 / (m + 1)^2 at every node count up to k = 256."""
        for m in range(1, oracle.QUADRATURE_LIMIT // 2 + 2):
            assert oracle._legendre_nodes(m)[1].min() >= 2 / (m + 1) ** 2


def softmax_errors(probabilities, inst):
    """Each entry's error against w_i / sum_j w_j in exact rationals, from
    the same float weights w = exp(gamma), in units of _softmax_factor's
    stated bound, (k + 1) u / (1 - (k + 1) u) relative plus 2^-1075
    absolute."""
    w = [Fraction(float(x)) for x in np.exp(log_weights(inst))]
    total, n = sum(w), len(w) + 1
    bound = Fraction(n, 2**53 - n)
    return [abs(Fraction(x) - w_i / total) / (bound * w_i / total + Fraction(1, 2**1075))
            for x, w_i in zip(probabilities, w, strict=True)]


class TestSoftmaxRoundingBound:
    """em's linear table, w_i times 1 / sum_j w_j, within the stated bound
    of the softmax of the same float weights in exact rationals."""

    @pytest.mark.parametrize("inst", [
        *ROUNDING_CASES,
        pytest.param(make_instance([0.0] * 256), id="k256-ties"),
        pytest.param(make_instance(np.linspace(0.0, -800.0, 256), epsilon=2.0),
                     id="k256-subnormal"),
        *(pytest.param(_inst, id=f"k{k}-eps{epsilon}")
          for k in (100, 200, 256) for epsilon in (0.1, 1.0, 8.0)
          for _inst in random_instances(1, epsilon, 1.0, k_min=k, k_max=k, seed=k)),
    ])
    def test_linear_table_within_stated_bound(self, inst):
        """Measured: at most 5.5u relative where P(i) is normal, against a
        bound of 257u at k = 256."""
        assert max(softmax_errors(em_exact_distribution(inst).probabilities, inst)) <= 1

    def test_injected_error_of_twice_the_bound_is_caught(self):
        inst = _spread_instance(64, 1.0, seed=5)
        injected = np.array(em_exact_distribution(inst).probabilities)
        injected *= 1.0 + 2.0 * 65 / 2**53
        assert all(error > 1 for error in softmax_errors(injected, inst))


def _spread_instance(k, epsilon, seed):
    scores = np.random.default_rng(seed).uniform(-5.0, 5.0, size=k)
    return make_instance(scores, epsilon=epsilon)


class TestEmpirical:
    def test_single_run_is_one_hot(self):
        table = empirical_distribution("pf", make_instance([1.0, 0.0, 2.0]), 1, seed=5)
        assert sorted(table.probabilities) == [0.0, 0.0, 1.0]
        assert table.provenance == "empirical(n=1,seed=5)"

    def test_fixed_seed_reproducible(self):
        inst = make_instance([1.0, 0.0], epsilon=2.0)
        a = empirical_distribution("alg-b", inst, 5000, seed=17)
        b = empirical_distribution("alg-b", inst, 5000, seed=17)
        assert a == b

    def test_million_run_frequency_hits_enumeration_value(self):
        inst = make_instance([1.0, 0.0], epsilon=2.0)
        table = empirical_distribution("pf", inst, 1_000_000, seed=2)
        target = math.exp(-1.0) / 2.0
        sigma = math.sqrt(target * (1 - target) / 1_000_000)
        assert abs(table.probabilities[1] - target) <= 3.0 * sigma

    # each names the mechanisms in its ValueError
    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError, match="'alg-a', 'alg-b', 'em'"):
            empirical_distribution("quantum", make_instance([0.0]), 10, seed=0)

    def test_callable_mechanism_rejected(self):
        with pytest.raises(ValueError, match="'alg-a', 'alg-b', 'em'"):
            empirical_distribution(MECHANISMS["em"], make_instance([0.0, 0.0]), 100, seed=0)

    def test_unhashable_mechanism_rejected(self):
        with pytest.raises(ValueError, match="'alg-a', 'alg-b', 'em'"):
            empirical_counts(["pf"], make_instance([0.0, 0.0]), 100, seed=0)

    def test_float_run_count_rejected(self):
        with pytest.raises(ValueError, match="'alg-a', 'alg-b', 'em'"):
            empirical_counts("pf", make_instance([0.0, 0.0]), 1e3, seed=0)

    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError, match="need at least one run, got n=0"):
            empirical_counts("pf", make_instance([0.0, 0.0]), 0, 1)


# the exact table each mechanism's samples are tested against, as in the
# sample-verify benchmark: the equivalences under test make pf the reference
# for its reformulations and for rnm-expo, and em for Gumbel noisy-max
SAMPLING_REFERENCES = {
    "pf": pf_exact_distribution,
    "alg-a": pf_exact_distribution,
    "alg-b": pf_exact_distribution,
    "rnm-expo": pf_exact_distribution,
    "em": em_exact_distribution,
    "rnm-gumbel": em_exact_distribution,
    "rnm-laplace": lambda inst: rnm_exact_quadrature(inst, "laplace"),
}


# score cases for the sampling paths: (scores, epsilon, outcomes never drawn)
SCORE_CASES = [
    pytest.param([0.8, -0.3, 0.1, 1.9], 1.5, [], id="mixed"),
    pytest.param([5.0, 5.0, 4.0], 2.0, [], id="tied-best"),
    pytest.param([3.5], 0.4, [], id="k1"),
    # rate * (max q - q_2) = 800 > 745: the weight underflows to 0
    pytest.param([0.0, -0.05, -80.0], 20.0, [2], id="underflow"),
]
# mechanisms whose single draw is a separate algorithm from their batch
# sampler; the single draw of every other one is its batch sampler for one row
SEPARATE_SINGLE_DRAWS = ("pf", "alg-a")


class TestScalarAndBatchPaths:
    """helpers.draw_counts runs a MECHANISMS single draw once per draw on one
    stream; empirical_counts runs the mechanism's batch sampler. Both must
    follow the same reference table. The single draws of pf and alg-a are
    the separate reference walks permute_and_flip and intermediate_a,
    sampled on both paths; the others are their batch samplers run for one
    row, so their two paths must give identical counts."""

    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    @pytest.mark.parametrize("scores,epsilon,never", SCORE_CASES)
    def test_scalar_and_batch_match_reference(self, name, scores, epsilon, never):
        inst = make_instance(scores, epsilon=epsilon)
        reference = SAMPLING_REFERENCES[name](inst)
        paths = (MECHANISMS[name], name) if name in SEPARATE_SINGLE_DRAWS else (name,)
        for mechanism in paths:
            counts, gof = sampled_verdict(mechanism, inst, 10_000, 41, reference)
            assert sum(counts) == 10_000
            assert gof.passed
            assert [counts[i] for i in never] == [0] * len(never)

    @pytest.mark.parametrize(
        "name", sorted(set(MECHANISMS) - set(SEPARATE_SINGLE_DRAWS))
    )
    @pytest.mark.parametrize("scores,epsilon,never", [
        *SCORE_CASES, pytest.param([0.8, -0.3, 0.8, 0.1, 1.9], 1.5, [], id="tied-inner")
    ])
    def test_single_draw_is_one_batch_row(self, name, scores, epsilon, never):
        inst = make_instance(scores, epsilon=epsilon)
        counts = draw_counts(MECHANISMS[name], inst, 2000, seed=13)
        assert counts == empirical_counts(name, inst, 2000, seed=13)
        assert [counts[i] for i in never] == [0] * len(never)

    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_single_draw_is_one_hot(self, name):
        inst = make_instance([1.0, 0.0, 2.0])
        for mechanism in (MECHANISMS[name], name):
            assert sorted(draw_counts(mechanism, inst, 1, seed=5)) == [0, 0, 1]

    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_one_past_chunk_boundary(self, name):
        inst = make_instance([0.4, -0.2, 0.0, 0.3])
        n = BATCH_ELEMENTS // 4 + 1
        counts, gof = sampled_verdict(name, inst, n, 9, SAMPLING_REFERENCES[name](inst))
        assert sum(counts) == n
        assert gof.passed
        assert empirical_counts(name, inst, n, seed=9) == counts


class TestSamplingMemory:
    """No uniform request of an empirical_counts chunk, and no array the
    sampler's numpy calls take or make, holds more than BATCH_ELEMENTS
    values, 128 KiB of doubles, glibc's default mmap threshold: a chunk's
    rows times its widest row, 2k draws for alg-b, stay within it. alg-b's
    stream does not depend on its chunk size, so no seeded count shows a
    chunk that is too wide. The peak traced memory of 50 chunks is that of
    2, within one chunk's bytes."""

    @pytest.mark.parametrize("k", [2, 9, 256])
    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_uniform_requests_fit_in_batch_elements(self, monkeypatch, name, k):
        whole, sizes = RngState.uniforms, []

        def recorded(rng, n):
            sizes.append(n)
            return whole(rng, n)

        monkeypatch.setattr(RngState, "uniforms", recorded)
        # a chunk holds at most BATCH_ELEMENTS rows, so this crosses a boundary
        n = BATCH_ELEMENTS + 1
        assert sum(empirical_counts(name, _spread_instance(k, 1.0, seed=k), n, seed=3)) == n
        assert len(sizes) > 1 and max(sizes) <= BATCH_ELEMENTS, max(sizes)

    # k = 3, the last k of each pick by column passes, and 256
    MEMORY_KS = [3, FIRST_MAX_COLUMNS, SEARCH_COUNT_MAX_K, 256]

    @staticmethod
    def chunk_rows(name, k):
        return max(1, BATCH_ELEMENTS // BATCH_SAMPLERS[name][1](k))

    @pytest.mark.parametrize("k", MEMORY_KS)
    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_peak_memory_flat_in_the_number_of_chunks(self, name, k):
        inst, rows = _spread_instance(k, 1.0, seed=k), self.chunk_rows(name, k)
        empirical_counts(name, inst, 1, seed=3)  # first-call allocations
        peaks = []
        for chunks in (2, 50):
            tracemalloc.start()
            try:
                assert sum(empirical_counts(name, inst, chunks * rows, seed=3)) == chunks * rows
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= BATCH_ELEMENTS * 8, peaks

    @pytest.mark.parametrize("k", MEMORY_KS)
    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_no_array_of_a_chunk_exceeds_batch_elements(self, monkeypatch, name, k):
        """Every array a numpy function in mechanisms.py takes or returns
        while drawing two chunks, each counted whole where it is a view."""
        sizes = []

        class RecordingNumpy:
            def __getattr__(self, attr):
                value = getattr(np, attr)
                if not callable(value) or isinstance(value, type):
                    return value

                def call(*args, **kwargs):
                    result = value(*args, **kwargs)
                    for a in (*args, *kwargs.values(), result):
                        while isinstance(a, np.ndarray) and isinstance(a.base, np.ndarray):
                            a = a.base
                        if isinstance(a, np.ndarray):
                            sizes.append(a.size)
                    return result

                return call

        monkeypatch.setattr(mechanisms, "np", RecordingNumpy())
        rows = self.chunk_rows(name, k)
        empirical_counts(name, _spread_instance(k, 1.0, seed=k), 2 * rows, seed=3)
        assert sizes and max(sizes) <= BATCH_ELEMENTS, max(sizes)


# (mechanism, mode) -> provenance and direct route of the table table_for
# returns; every pair not listed has no route
ROUTES = {
    ("pf", "exact"): ("exact-poisson-binomial", pf_exact_distribution),
    ("rnm-expo", "exact"): ("exact-gauss-legendre", rnm_expo_exact_distribution),
    ("em", "exact"): ("exact-closed-form", em_exact_distribution),
    ("rnm-expo", "quadrature"): ("quadrature", lambda i: rnm_exact_quadrature(i, "exponential")),
    ("rnm-laplace", "quadrature"): ("quadrature", lambda i: rnm_exact_quadrature(i, "laplace")),
    ("rnm-gumbel", "quadrature"): ("quadrature", lambda i: rnm_exact_quadrature(i, "gumbel")),
    **{
        (name, "empirical"): (
            "empirical(n=500,seed=4)",
            lambda i, name=name: empirical_distribution(name, i, 500, seed=4),
        )
        for name in MECHANISMS
    },
}


class TestTableFor:
    @pytest.mark.parametrize("mode", ["exact", "quadrature", "empirical"])
    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_route_matrix(self, name, mode):
        inst = make_instance([0.5, -1.0, 0.0])
        if (name, mode) not in ROUTES:
            with pytest.raises(UnsupportedOracle, match=mode):
                table_for(name, inst, mode, n=500, seed=4)
            return
        provenance, direct = ROUTES[(name, mode)]
        table = table_for(name, inst, mode, n=500, seed=4)
        assert table.provenance == provenance
        assert table == direct(inst)

    def test_unknown_mode_rejected_as_invalid_input(self):
        with pytest.raises(UnsupportedOracle, match="expected one of") as info:
            table_for("pf", make_instance([0.0, 1.0]), "exactly")
        assert isinstance(info.value, ValidationError)


class TestTvDistance:
    def test_identical_tables(self):
        t = em_exact_distribution(make_instance([1.0, 0.0]))
        assert tv_distance(t, t) == 0.0

    def test_disjoint_support(self):
        a = ProbabilityTable(("x", "y"), (1.0, 0.0), "exact-closed-form")
        b = ProbabilityTable(("x", "y"), (0.0, 1.0), "exact-closed-form")
        assert tv_distance(a, b) == 1.0

    def test_label_mismatch_rejected(self):
        a = ProbabilityTable(("x", "y"), (1.0, 0.0), "exact-closed-form")
        b = ProbabilityTable(("x", "z"), (1.0, 0.0), "exact-closed-form")
        with pytest.raises(LabelMismatch):
            tv_distance(a, b)


class TestChiSquareGof:
    def test_exact_match_statistic_zero(self):
        expected = ProbabilityTable(("a", "b"), (0.5, 0.5), "exact-closed-form")
        result = chi_square_gof([500, 500], expected, 0.001)
        assert result.statistic == 0.0
        assert result.passed

    def test_sixty_forty(self):
        expected = ProbabilityTable(("a", "b"), (0.5, 0.5), "exact-closed-form")
        result = chi_square_gof([60, 40], expected, 0.001)
        assert result.statistic == pytest.approx(4.0)
        assert result.degrees_of_freedom == 1
        assert result.p_value == pytest.approx(0.0455, abs=1e-3)

    def test_single_category_vacuous_pass(self):
        expected = ProbabilityTable(("a",), (1.0,), "exact-closed-form")
        result = chi_square_gof([100], expected, 0.001)
        assert result.statistic == 0.0
        assert result.degrees_of_freedom == 0
        assert result.passed and result.detectable_divergence is None

    @pytest.mark.parametrize("dof, n, divergence", [(1, 10**6, 2.09e-5), (7, 10**5, 3.18e-4)])
    def test_detectable_divergence(self, dof, n, divergence):
        """At significance 1e-3 the test rejects a divergence
        sum (p - q)^2 / q of this size with probability 0.9: at n times it,
        scipy.stats' noncentral chi-square puts 0.9 of its mass above the
        critical value."""
        from scipy.stats import chi2, ncx2

        cells = dof + 1
        uniform = ProbabilityTable(tuple(f"o{i}" for i in range(cells)), (1 / cells,) * cells,
                                   "exact-closed-form")
        result = chi_square_gof([n // cells] * cells, uniform, 0.001)
        assert result.degrees_of_freedom == dof
        assert result.detectable_divergence == pytest.approx(divergence, rel=2e-3)
        power = ncx2.sf(chi2.isf(0.001, dof), dof, n * result.detectable_divergence)
        assert power == pytest.approx(0.9, abs=1e-9)

    def test_small_cells_pooled(self):
        # two tiny expected cells pool into one tail category: dof 2, not 3
        expected = ProbabilityTable(
            ("a", "b", "c", "d"), (0.6, 0.394, 0.004, 0.002), "exact-closed-form"
        )
        result = chi_square_gof([600, 394, 4, 2], expected, 0.001)
        assert result.degrees_of_freedom == 2
        assert result.statistic == pytest.approx(0.0, abs=1e-12)

    def test_tail_below_five_merges_into_smallest_kept_cell(self):
        # the pooled tail expects 3: it joins the 197 cell, dof 2, not 3
        expected = ProbabilityTable(
            ("a", "b", "c", "d", "e"), (0.5, 0.3, 0.197, 0.002, 0.001), "exact-closed-form"
        )
        result = chi_square_gof([500, 300, 190, 10, 0], expected, 0.001)
        assert result.degrees_of_freedom == 2
        assert result.statistic == pytest.approx(0.0, abs=1e-12)

    def test_tail_merged_into_the_only_kept_cell_is_vacuous(self):
        expected = ProbabilityTable(("a", "b"), (0.998, 0.002), "exact-closed-form")
        result = chi_square_gof([990, 10], expected, 0.001)
        assert (result.degrees_of_freedom, result.passed) == (0, True)

    def test_one_or_two_draws_in_a_tiny_tail_do_not_fail_the_test(self):
        """alg-b at eps 4, k 8, 100,000 draws, seed 0: the probe instance of
        the equivalence grid of scripts/reproduce.py. Its tail expects
        0.125 draws and saw 2, which alone added 28 to the statistic when
        the tail stood as a cell of its own (p = 4.3e-6, a wrong fail)."""
        probe = random_instances(20, 4.0, 1.0, k_min=8, k_max=8, seed=0)[0]
        counts, result = sampled_verdict("alg-b", probe, 100_000, 0, pf_exact_distribution(probe))
        assert counts[1:4] == [2, 0, 0]
        assert result.degrees_of_freedom == 4
        assert result.statistic == pytest.approx(4.2, abs=0.01)
        assert result.passed

    def test_all_cells_tiny_rejected(self):
        expected = ProbabilityTable(("a", "b"), (0.5, 0.5), "exact-closed-form")
        with pytest.raises(AllCategoriesMerged):
            chi_square_gof([3, 1], expected, 0.001)

    def test_table_pooled_into_one_cell_is_vacuous(self):
        """The tail (0.45 + 3.51 expected) joins the only kept cell (5.04),
        which then expects 9.000000000000002 of the 9 draws: a pass with
        dof 0 and p 1, not the p 0 that dof 0 gives the statistic 4e-31."""
        expected = ProbabilityTable(("a", "b", "c"), (0.56, 0.05, 0.39), "exact-closed-form")
        result = chi_square_gof([9, 0, 0], expected, 0.001)
        assert (result.passed, result.p_value, result.degrees_of_freedom) == (True, 1.0, 0)

    def test_impossible_draw_with_no_kept_cell_fails(self):
        """The one possible cell expects 4 draws, too few to keep, and there
        is no kept cell for it to join: the draw on the impossible outcome
        fails with p 0 and dof 0."""
        expected = ProbabilityTable(("a", "b"), (1.0, 0.0), "exact-closed-form")
        result = chi_square_gof([3, 1], expected, 0.001)
        assert (result.passed, result.p_value, result.degrees_of_freedom) == (False, 0.0, 0)

    def test_observation_on_impossible_outcome_fails(self):
        expected = ProbabilityTable(("a", "b"), (1.0, 0.0), "exact-closed-form")
        result = chi_square_gof([99, 1], expected, 0.001)
        assert not result.passed
        assert result.p_value == 0.0

    @pytest.mark.parametrize("probabilities, counts, dof", [
        ((0.998, 0.002, 0.0), [990, 9, 1], 0),
        ((0.5, 0.497, 0.003, 0.0), [500, 495, 4, 1], 1),
    ])
    def test_impossible_outcome_reports_the_pooled_dof(self, probabilities, counts, dof):
        # the same counts with the impossible draw moved to the first cell
        # pool to the same cells, so they report the same dof and power
        labels = tuple("abcd"[: len(counts)])
        expected = ProbabilityTable(labels, probabilities, "exact-closed-form")
        result = chi_square_gof(counts, expected, 0.001)
        possible = chi_square_gof([counts[0] + 1, *counts[1:-1], 0], expected, 0.001)
        assert (result.passed, result.p_value, result.degrees_of_freedom) == (False, 0.0, dof)
        assert possible.degrees_of_freedom == dof
        assert result.detectable_divergence == possible.detectable_divergence
        assert (result.detectable_divergence is None) == (dof == 0)

    @pytest.mark.parametrize("counts, message", [
        ([-1, 101], "counts must be nonnegative"),
        ([0, 0], "need at least one observation"),
    ], ids=["negative", "all-zero"])
    def test_negative_or_no_counts_rejected(self, counts, message):
        expected = ProbabilityTable(("a", "b"), (0.5, 0.5), "exact-closed-form")
        with pytest.raises(ValueError, match=message):
            chi_square_gof(counts, expected, 0.001)

    def test_count_length_mismatch(self):
        expected = ProbabilityTable(("a", "b"), (0.5, 0.5), "exact-closed-form")
        with pytest.raises(LabelMismatch):
            chi_square_gof([10], expected, 0.001)

    @pytest.mark.parametrize("significance", [0.0, -1.0, 1.0, 2.0, math.nan, math.inf])
    def test_significance_outside_open_unit_interval_rejected(self, significance):
        # at 0 or below every sample would pass, however far off
        expected = ProbabilityTable(("a", "b"), (0.5, 0.5), "exact-closed-form")
        with pytest.raises(ValueError, match="significance"):
            chi_square_gof([900, 100], expected, significance)

    @pytest.mark.parametrize("significance", [1e-308, 5e-324])
    def test_significance_below_the_smallest_normal_rejected(self, significance):
        # below DBL_MIN the tail Q underflows, and the power would stall at
        # its value there, claiming up to 4.7 % too much at 5e-324
        expected = ProbabilityTable(("a", "b"), (0.5, 0.5), "exact-closed-form")
        with pytest.raises(ValueError, match="smallest normal"):
            chi_square_gof([900, 100], expected, significance)

    @pytest.mark.parametrize(
        "counts", [[5000.9, 4999.9], [5000.0, 5000.0], [np.float64(5000), 5000], ["5000", 5000]]
    )
    def test_counts_that_are_not_integers_rejected(self, counts):
        # truncating [5000.9, 4999.9] would test [5000, 4999] instead
        expected = ProbabilityTable(("a", "b"), (0.5, 0.5), "exact-closed-form")
        with pytest.raises(ValueError, match="integers"):
            chi_square_gof(counts, expected, 0.001)

    def test_numpy_integer_counts_accepted(self):
        expected = ProbabilityTable(("a", "b"), (0.5, 0.5), "exact-closed-form")
        counts = np.array([600, 400], dtype=np.int64)
        assert chi_square_gof(counts, expected, 0.001) == chi_square_gof([600, 400], expected, 0.001)


class TestChiSquarePValue:
    """chi_square_gof's p-value against scipy.stats.chi2.sf, which the
    package itself does not import: within 1e-12 relative where the
    reference is at least 1e-290 and 1e-300 absolute below that, with the
    same verdict at 0.001, exactly 1.0 at a statistic of 0 and exactly 0.0
    where the reference is 0.0."""

    @staticmethod
    def assert_matches_chi2_sf(result):
        from scipy.stats import chi2

        reference = float(chi2.sf(result.statistic, result.degrees_of_freedom))
        bound = 1e-12 * reference if reference >= 1e-290 else 1e-300
        assert abs(result.p_value - reference) <= bound
        assert result.passed == (reference >= 0.001)
        if result.statistic == 0.0:
            assert result.p_value == 1.0
        if reference == 0.0:
            assert result.p_value == 0.0

    @pytest.mark.parametrize("dof", range(1, 81))
    def test_grid_from_zero_to_far_tail(self, dof):
        # dof + 1 equal cells of expected count 1000; moving m observations
        # from the last cell to the first gives the statistic 2 m^2 / 1000:
        # 0, then the bulk near dof, then p-values down to subnormal and 0
        expected = ProbabilityTable(
            tuple(f"o{i}" for i in range(dof + 1)), (1.0 / (dof + 1),) * (dof + 1), "exact"
        )
        near_mean = round(math.sqrt(500 * dof))
        p_values = []
        for m in (0, 1, 3, 10, 30, near_mean, 100, 200, 400, 600, 800, 850, 1000):
            counts = [1000] * (dof + 1)
            counts[0] += m
            counts[-1] -= m
            result = chi_square_gof(counts, expected, 0.001)
            assert result.degrees_of_freedom == dof
            self.assert_matches_chi2_sf(result)
            p_values.append(result.p_value)
        assert p_values[0] == 1.0
        assert p_values[-1] == 0.0

    def test_random_tables_and_counts(self):
        # counts drawn from the table mixed with a random share w of another
        # distribution: p-values from the bulk to 0, a third of them pooled
        gen = np.random.default_rng(2024)
        for _ in range(200):
            k = int(gen.integers(2, 82))
            probs = gen.dirichlet(np.ones(k))
            w = gen.uniform(0.0, 0.5) ** 3
            counts = gen.multinomial(
                int(gen.integers(50, 20000)), (1 - w) * probs + w * gen.dirichlet(np.ones(k))
            )
            expected = ProbabilityTable(tuple(f"o{i}" for i in range(k)), tuple(probs), "exact")
            self.assert_matches_chi2_sf(chi_square_gof(counts, expected, 0.001))

    def test_pooled_path(self):
        expected = ProbabilityTable(
            ("a", "b", "c", "d"), (0.6, 0.394, 0.004, 0.002), "exact-closed-form"
        )
        result = chi_square_gof([560, 420, 12, 8], expected, 0.001)
        assert result.degrees_of_freedom == 2
        assert 0.0 < result.p_value < 0.001
        self.assert_matches_chi2_sf(result)

    def test_dof_zero_path(self):
        # a single category with positive probability: a vacuous pass
        expected = ProbabilityTable(("a", "b"), (1.0, 0.0), "exact-closed-form")
        result = chi_square_gof([100, 0], expected, 0.001)
        assert (result.statistic, result.degrees_of_freedom, result.p_value) == (0.0, 0, 1.0)


class TestDetectableDivergence:
    """detectable_divergence against scipy's noncentrality inversion
    chndtrinc(chdtri(dof, significance), dof, 0.1) / n within 1e-10
    relative, over dof 1-255 and significance levels down to the
    Bonferroni levels of a wrong-fail budget and to the smallest accepted,
    DBL_MIN."""

    @staticmethod
    def uniform_gof(dof, significance):
        cells = dof + 1
        uniform = ProbabilityTable(tuple(f"o{i}" for i in range(cells)), (1 / cells,) * cells,
                                   "exact")
        result = chi_square_gof([1000] * cells, uniform, significance)
        assert result.degrees_of_freedom == dof
        return result

    @pytest.mark.parametrize("significance",
                             [sys.float_info.min, 1e-3, 1e-4, 5e-6, 1e-8, 0.89, 0.8999])
    def test_matches_scipy_noncentrality(self, significance):
        from scipy.special import chdtri, chndtrinc

        for dof in range(1, 256):
            result = self.uniform_gof(dof, significance)
            reference = float(chndtrinc(chdtri(dof, significance), dof, 0.1)) / (1000 * (dof + 1))
            assert result.detectable_divergence == pytest.approx(reference, rel=1e-10, abs=0)

    @pytest.mark.parametrize("dof", [1, 10, 255])
    def test_search_without_a_root_raises(self, monkeypatch, dof):
        # c taken at 1 - significance leaves F(c; dof, lam) - 0.1 positive
        # for every lam: the search must stop at its bound, not double lam
        # (and its Poisson sums) a hundred times
        critical_value = oracle._critical_value
        monkeypatch.setattr(oracle, "_critical_value",
                            lambda dof, significance: critical_value(dof, 1.0 - significance))
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="no root below"):
            oracle._noncentrality.__wrapped__(dof, 1e-3)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("significance", [0.89, 0.8999])
    def test_critical_value_stops_once_its_bracket_collapses(self, monkeypatch, significance):
        """At dof 3000 the rounding of log Q outweighs its slope near c, so
        Newton's steps stay above 1e-14 c while its bracket collapses: it
        returns within 20 evaluations of Q, not 100, and within 1e-13 of
        scipy's chi2.isf."""
        from scipy.stats import chi2

        calls = []
        chi2_sf = oracle._chi2_sf
        monkeypatch.setattr(oracle, "_chi2_sf", lambda dof, x: calls.append(x) or chi2_sf(dof, x))
        c = oracle._critical_value(3000, significance)
        assert len(calls) <= 20
        assert c == pytest.approx(chi2.isf(significance, 3000), rel=1e-13, abs=0)

    @pytest.mark.parametrize("significance", [0.9, 0.95, 1 - 1e-16])
    def test_zero_where_the_test_rejects_that_often_at_no_divergence(self, significance):
        # power at divergence 0 is the significance itself
        for dof in (1, 2, 10, 255):
            assert self.uniform_gof(dof, significance).detectable_divergence == 0.0


class TestTableInvariants:
    @given(inst=instances(k_min=1, k_max=8))
    @settings(max_examples=50, deadline=None)
    def test_exact_tables_are_distributions(self, inst):
        for fn in EXACT_FNS:
            table = fn(inst)
            assert abs(math.fsum(table.probabilities) - 1.0) <= 1e-9
            assert all(0.0 <= p <= 1.0 for p in table.probabilities)


class TestShiftInvariance:
    @pytest.mark.parametrize("shift", [-1000.0, 1000.0])
    @pytest.mark.parametrize("fn", EXACT_FNS)
    def test_tables_unmoved_by_score_shift(self, fn, shift):
        scores = [1.3, -0.7, 0.2, 0.9, 0.0]
        base = fn(make_instance(scores, epsilon=1.7))
        moved = fn(make_instance([s + shift for s in scores], epsilon=1.7))
        assert np.allclose(base.probabilities, moved.probabilities, atol=1e-10, rtol=0)


class TestMonotonicity:
    @pytest.mark.parametrize("fn", [em_exact_distribution, pf_exact_distribution])
    def test_raising_a_score_raises_its_probability(self, fn):
        for inst in random_instances(50, 1.0, 1.0, k_min=2, k_max=8, seed=123):
            i = len(inst.quality) // 2
            bumped_scores = list(inst.quality.scores)
            bumped_scores[i] += 0.1
            bumped = make_instance(
                bumped_scores, inst.params.epsilon, inst.params.sensitivity
            )
            assert fn(bumped).probabilities[i] > fn(inst).probabilities[i]


class TestPermutationEquivarianceExact:
    @pytest.mark.parametrize("fn", EXACT_FNS)
    def test_relabeling_permutes_table(self, fn):
        scores = [0.8, -0.3, 0.1, 1.9]
        perm = [3, 1, 0, 2]
        base = fn(make_instance(scores, epsilon=1.5))
        permuted = fn(
            make_instance(
                [scores[j] for j in perm],
                epsilon=1.5,
                labels=[base.labels[j] for j in perm],
            )
        )
        for position, j in enumerate(perm):
            assert permuted.probabilities[position] == pytest.approx(
                base.probabilities[j], abs=1e-12
            )
            assert permuted.labels[position] == base.labels[j]


class TestEnumerationVsSimulation:
    def test_million_pf_samples_match_enumeration_on_random_instances(self):
        failures = 0
        for inst in random_instances(10, 1.0, 1.0, k_min=2, k_max=6, seed=321):
            _, result = sampled_verdict("pf", inst, 1_000_000, 1000, pf_exact_distribution(inst))
            failures += 0 if result.passed else 1
        assert failures == 0
