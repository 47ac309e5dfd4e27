import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpselect import (
    MECHANISMS,
    Exponential,
    Gumbel,
    Laplace,
    RngState,
    em_exact_distribution,
    empirical_counts,
    intermediate_a,
    permute_and_flip,
    pf_exact_distribution,
    rnm_exact_quadrature,
    samples,
)
from dpselect.core import ProbabilityTable
from dpselect.mechanisms import BATCH_SAMPLERS, log_weights
from dpselect.noise import NOISE_FAMILIES

from helpers import SMALLEST_EPSILON, FixedUniforms, instances, make_instance, sampled_verdict

MECHANISM_NAMES = sorted(MECHANISMS)


def permuted_table(table, perm):
    return ProbabilityTable(
        tuple(table.labels[j] for j in perm),
        tuple(table.probabilities[j] for j in perm),
        table.provenance,
    )


def test_single_draws_keyed_like_batch_samplers():
    """MECHANISMS is derived from BATCH_SAMPLERS, so every mechanism has a
    batch sampler, and so an empirical route, under the same key and order."""
    assert list(MECHANISMS) == list(BATCH_SAMPLERS)


class TestSingleOutcome:
    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    def test_only_choice_wins(self, name):
        inst = make_instance([3.5], epsilon=0.4)
        for seed in range(5):
            result = MECHANISMS[name](inst, RngState(seed))
            assert result.index == 0
            assert result.label == "o0"

    def test_permute_and_flip_uses_one_probability_one_coin(self):
        # the walk draws a permutation, then one uniform per flip; the lone
        # coin comes up heads on the first flip whatever the uniform
        for seed in range(20):
            rng = RngState(seed)
            assert permute_and_flip(make_instance([3.5]), rng).index == 0
            reference = RngState(seed)
            reference.permutation(1)
            reference.uniform()
            assert rng.uniforms(4).tolist() == reference.uniforms(4).tolist()


class TestSymmetry:
    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    def test_equal_scores_uniform(self, name):
        inst = make_instance([0.0, 0.0, 0.0], epsilon=1.7)
        expected = ProbabilityTable(
            inst.quality.labels, (1 / 3, 1 / 3, 1 / 3), "exact-closed-form"
        )
        _, gof = sampled_verdict(name, inst, 30_000, 2024, expected)
        assert gof.passed

    def test_two_tied_best_coins_split_evenly(self):
        inst = make_instance([5.0, 5.0], epsilon=2.0)
        expected = ProbabilityTable(inst.quality.labels, (0.5, 0.5), "exact-closed-form")
        _, gof = sampled_verdict("pf", inst, 30_000, 11, expected)
        assert gof.passed


class TestDeterminism:
    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    def test_same_seed_same_result(self, name):
        inst = make_instance([1.3, -0.7, 0.2, 0.9], epsilon=1.1)
        for seed in (0, 7, 12345):
            first = MECHANISMS[name](inst, RngState(seed))
            second = MECHANISMS[name](inst, RngState(seed))
            assert first == second


class TestSeededGolden:
    """Seeded single draws are part of the interface: `select --seed s`
    must give the same outcome in every version. Each string holds the
    indices that seeds 0..199 pick on one mixed instance (a tie for the
    best score, near-best and far-off outcomes)."""

    SCORES = [2.0, 0.5, 2.0, -1.0, 1.7, 0.0, -30.0, 1.2, 1.9]
    INDICES = {
        "alg-a": "50000020254810710022882520088054875304745484554270408784808841407420141220808022083807848210080248007508114407842478424820088872858512484414442840818407204485148224800027048882008488400072880828423580",
        "alg-b": "40278770024204147800022248840528207128182728887025852480774032208247020844870708852802200200254002040274408704280228170442442203317254217588002034802808820827280024244018280438782407401828084024241242",
        "em": "44108744288018854822272520358018020207347874048722784018752422448082342183817728728270441422481475848802848484800077088884857800522408840842570274784003184201874207027023700084837847080141034854808875",
        "pf": "47270128021111427020405272807377408080027038084725204820010207822102470234024708084808281470184087442704448240072005004042242822812222210820041052138840827043784822181775727282044452888505485828005004",
        "rnm-expo": "41222048100888007041785887447248527220482050324487005887224775810402428203841012020224282272807873034884010702072580200082882077788580024044214102405717408778740420584828581820270274402824202042820005",
        "rnm-gumbel": "41222048100888007041785887447248527220482050324487005887224775810404428203841012020224282272807873034884010702072580200082882077784580024044214102405717408778744420584828581820270274402824202042820005",
        "rnm-laplace": "41222048100888007041785887447248527220482050324487005887224775810402428203841012020224282272807873034884010702072580200082882077788580024044214102405717408778740420584828581820270274402824202042820005",
    }

    def test_covers_every_mechanism(self):
        assert sorted(self.INDICES) == MECHANISM_NAMES

    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    def test_seeded_indices_unchanged(self, name):
        inst = make_instance(self.SCORES, epsilon=1.5)
        drawn = "".join(
            str(MECHANISMS[name](inst, RngState(seed)).index) for seed in range(200)
        )
        assert drawn == self.INDICES[name]

    # Batch counts of 40,000 draws under seed 2026 on the same instance. At
    # k = 9 that crosses 21 chunk boundaries of pf and alg-a, 43 of alg-b
    # and 2 of em's, so a change to a sampler or to a chunk size that is
    # part of a seeded stream shows here.
    COUNTS = {
        "alg-a": [8504, 2383, 8442, 754, 6447, 1650, 0, 4219, 7601],
        "alg-b": [8557, 2433, 8463, 709, 6391, 1574, 0, 4204, 7669],
        "em": [8164, 2659, 8212, 828, 6462, 1789, 0, 4435, 7451],
        "pf": [8521, 2330, 8446, 729, 6434, 1590, 0, 4357, 7593],
        "rnm-expo": [8524, 2379, 8417, 756, 6398, 1610, 0, 4183, 7733],
        "rnm-gumbel": [8173, 2655, 8076, 873, 6438, 1804, 0, 4445, 7536],
        "rnm-laplace": [8463, 2399, 8357, 768, 6445, 1626, 0, 4218, 7724],
    }

    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    def test_seeded_batch_counts_unchanged(self, name):
        inst = make_instance(self.SCORES, epsilon=1.5)
        assert empirical_counts(name, inst, 40_000, seed=2026) == self.COUNTS[name]


class TestShiftInvariance:
    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    @pytest.mark.parametrize("shift", [-1000.0, 0.5, 1000.0])
    def test_same_seed_same_index_after_shift(self, name, shift):
        scores = [1.3, -0.7, 0.2, 0.9]
        inst = make_instance(scores, epsilon=1.1)
        shifted = make_instance([s + shift for s in scores], epsilon=1.1)
        for seed in range(20):
            assert (
                MECHANISMS[name](inst, RngState(seed)).index
                == MECHANISMS[name](shifted, RngState(seed)).index
            )


class TestDistributionalExamples:
    def test_rnm_exponential_two_point(self):
        # winner probability 1 - exp(-1)/2 from the closed-form oracle
        inst = make_instance([1.0, 0.0], epsilon=2.0, sensitivity=1.0)
        counts = empirical_counts("rnm-expo", inst, 200_000, seed=31)
        p_hat = counts[0] / sum(counts)
        target = 1.0 - math.exp(-1.0) / 2.0
        stderr = math.sqrt(target * (1.0 - target) / sum(counts))
        assert abs(p_hat - target) <= 3.0 * stderr

    def test_permute_and_flip_two_point(self):
        # runner-up wins iff its coin (probability 1/e) comes first (1/2) and heads
        inst = make_instance([1.0, 0.0], epsilon=2.0, sensitivity=1.0)
        counts = empirical_counts("pf", inst, 200_000, seed=32)
        p_hat = counts[1] / sum(counts)
        target = math.exp(-1.0) / 2.0
        stderr = math.sqrt(target * (1.0 - target) / sum(counts))
        assert abs(p_hat - target) <= 3.0 * stderr

    @pytest.mark.parametrize("name", ["alg-a", "alg-b"])
    def test_intermediates_match_permute_and_flip(self, name):
        inst = make_instance([1.0, 0.0], epsilon=2.0, sensitivity=1.0)
        _, gof = sampled_verdict(name, inst, 200_000, 33, pf_exact_distribution(inst))
        assert gof.passed

    def test_exponential_mechanism_two_point(self):
        inst = make_instance([1.0, 0.0], epsilon=2.0, sensitivity=1.0)
        _, gof = sampled_verdict("em", inst, 200_000, 34, em_exact_distribution(inst))
        assert gof.passed

    def test_exponential_mechanism_huge_scores_no_overflow(self):
        inst = make_instance([1_000_000.0, 999_999.0], epsilon=2.0, sensitivity=1.0)
        reference = em_exact_distribution(
            make_instance([1.0, 0.0], epsilon=2.0, sensitivity=1.0)
        )
        reference = ProbabilityTable(
            inst.quality.labels, reference.probabilities, reference.provenance
        )
        _, gof = sampled_verdict("em", inst, 50_000, 35, reference)
        assert gof.passed


class TestScoreRangeBeyondDoubles:
    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    def test_best_score_always_selected_without_warning(self, name):
        # 1e308 - (-1e308) overflows; pytest turns a RuntimeWarning into an error
        inst = make_instance([1e308, -1e308], epsilon=1.0)
        assert {MECHANISMS[name](inst, RngState(seed)).index for seed in range(20)} == {0}


class TestLogWeights:
    @given(inst=instances())
    @settings(max_examples=200, deadline=None)
    def test_rate_times_gap_bit_for_bit_where_normal(self, inst):
        # halving before the subtraction changes no bit where the plain
        # gamma is 0 or a normal double, so no seeded draw changes there
        scores = np.asarray(inst.quality.scores)
        reference = inst.params.rate * (scores - scores.max())
        normal = (reference == 0.0) | (np.abs(reference) >= np.finfo(float).tiny)
        assert log_weights(inst)[normal].tolist() == reference[normal].tolist()


class TestSmallestBudget:
    """Every mechanism draws unit-scale noise, whatever the budget, so at
    the smallest epsilon PrivacyParams accepts (rate 5e-324, noise scale
    inf) and at 2e-308 (noise scale 1e308) the draws stay finite and every
    sampler stays uniform over equal scores. pytest turns an overflow
    RuntimeWarning into an error."""

    @pytest.mark.parametrize("family", ["exponential", "laplace", "gumbel"])
    def test_noise_draws_finite(self, family):
        noise = NOISE_FAMILIES[family]
        assert noise == {"exponential": Exponential(), "laplace": Laplace(),
                         "gumbel": Gumbel()}[family]
        extremes = noise.quantile(np.array([2.0**-53, 0.5, 1.0 - 2.0**-53]))
        assert np.isfinite(extremes).all()
        assert np.isfinite(samples(noise, RngState(5), 10**5)).all()

    @pytest.mark.parametrize("epsilon", [SMALLEST_EPSILON, 2e-308])
    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    def test_equal_scores_stay_uniform(self, name, epsilon):
        inst = make_instance([0.0] * 4, epsilon=epsilon)
        uniform = ProbabilityTable(inst.quality.labels, [0.25] * 4, "uniform")
        _, gof = sampled_verdict(name, inst, 40000, 11, uniform)
        assert gof.passed


class TestPermutationEquivariance:
    # exact-oracle mechanisms are covered in test_oracle; the samplers
    # without exact oracles get a chi-square check against a permuted
    # reference table here
    @pytest.mark.parametrize(
        "name,reference",
        [
            ("alg-a", pf_exact_distribution),
            ("alg-b", pf_exact_distribution),
            ("rnm-gumbel", em_exact_distribution),
            ("rnm-laplace", lambda inst: rnm_exact_quadrature(inst, "laplace")),
        ],
    )
    def test_sampler_follows_relabeled_reference(self, name, reference):
        scores = [0.8, -0.3, 0.1]
        perm = [2, 0, 1]
        inst = make_instance(scores, epsilon=1.5)
        relabeled = make_instance([scores[j] for j in perm], epsilon=1.5)
        expected = permuted_table(reference(inst), perm)
        expected = ProbabilityTable(
            relabeled.quality.labels, expected.probabilities, expected.provenance
        )
        _, gof = sampled_verdict(name, relabeled, 60_000, 77, expected)
        assert gof.passed


class TestSeededReplay:
    """Each single draw replayed step by step from a second stream with the
    same seed; the replay must reach the same outcome and leave the stream
    at the same position."""

    @staticmethod
    def assert_same_position(rng, reference):
        assert rng.uniforms(4).tolist() == reference.uniforms(4).tolist()

    @pytest.mark.parametrize("seed", [46, *range(20)])
    def test_permute_and_flip_returns_first_heads_in_visiting_order(self, seed):
        inst = make_instance([0.3, 0.1, 0.2], epsilon=1.0)
        rng = RngState(seed)
        result = permute_and_flip(inst, rng)
        reference = RngState(seed)
        order = reference.permutation(3)
        assert sorted(order) == [0, 1, 2]
        coins = [math.exp(inst.params.rate * (s - inst.quality.best_score))
                 for s in inst.quality.scores]
        first_heads = next(i for i in order if reference.uniform() < coins[i])
        assert result.index == first_heads
        self.assert_same_position(rng, reference)

    @pytest.mark.parametrize("seed", [44, *range(20)])
    def test_intermediate_a_picks_among_outcomes_reaching_best_score(self, seed):
        inst = make_instance([1.0, 0.4, -2.0], epsilon=1.0)
        rng = RngState(seed)
        result = intermediate_a(inst, rng)
        reference = RngState(seed)
        noise = samples(Exponential(), reference, 3)
        noisy = [g + n for g, n in zip(log_weights(inst), noise)]
        assert noisy[result.index] >= 0.0
        kept = [i for i, v in enumerate(noisy) if v >= 0.0]
        assert result.index == kept[reference.integers(len(kept))]
        self.assert_same_position(rng, reference)

    @pytest.mark.parametrize("seed", [45, *range(20)])
    def test_intermediate_b_draws_two_per_outcome_and_winner_hits_cap(self, seed):
        inst = make_instance([1.0, 0.4, -2.0, 0.9], epsilon=1.0)
        k = len(inst.quality)
        rng = RngState(seed)
        result = MECHANISMS["alg-b"](inst, rng)
        reference = RngState(seed)
        # score noise and tie-break for every outcome, even those below the cap
        draws = samples(Exponential(), reference, 2 * k)
        self.assert_same_position(rng, reference)
        capped = [min(0.0, g + draws[2 * i]) for i, g in enumerate(log_weights(inst))]
        assert capped[result.index] == 0.0
        survivors = [i for i in range(k) if capped[i] == 0.0]
        assert result.index == max(survivors, key=lambda i: (capped[i] + draws[2 * i + 1], -i))


class TestFixedUniforms:
    """The samplers' comparisons at the ends of the uniform stream, 0 and
    1 - 2^-53, on fixed uniforms: an outcome whose weight underflows to 0
    is never drawn, and em's search never passes the last outcome of
    positive weight."""

    # outcome 0's weight exp(-5e307) is 0; outcome 1 holds the best score
    ZERO_FIRST = [-1e308, 0.0]

    def test_permute_and_flip_heads_are_strict(self):
        # the walk visits outcome 0 first, and u = 0 is not below its coin 0
        inst = make_instance(self.ZERO_FIRST)
        assert permute_and_flip(inst, FixedUniforms(0.0)).index == 1

    def test_batch_permute_and_flip_heads_are_strict(self):
        # coins and order keys all 0: outcome 0 would win every tie
        inst = make_instance(self.ZERO_FIRST)
        assert BATCH_SAMPLERS["pf"](inst, 4)(FixedUniforms(0.0), 4).tolist() == [1] * 4

    def test_exponential_mechanism_skips_a_leading_zero_weight(self):
        inst = make_instance(self.ZERO_FIRST)
        assert BATCH_SAMPLERS["em"](inst, 2)(FixedUniforms(0.0), 2).tolist() == [1] * 2

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_largest_uniform_picks_the_last_of_equal_weights(self, k):
        # the total k is a power of two, where u * k is exactly k - 2^-53 k
        inst = make_instance([0.0] * k)
        assert BATCH_SAMPLERS["em"](inst, 1)(FixedUniforms(1.0 - 2.0**-53), 1).tolist() == [k - 1]

    def test_largest_uniform_picks_the_last_positive_weight(self):
        # weights from e^-10 to 1, each adding to a total of at most 40,
        # and weights 0 that trail some of them
        gen = np.random.default_rng(8)
        for k in range(1, 41):
            scores = gen.uniform(-10.0, 0.0, size=k)
            scores[gen.random(k) < 0.3] = -1e308
            scores[gen.integers(k)] = 0.0
            inst = make_instance(scores, epsilon=2.0)
            last = int(np.flatnonzero(np.exp(log_weights(inst)) > 0.0)[-1])
            draw = BATCH_SAMPLERS["em"](inst, 3)
            assert draw(FixedUniforms(1.0 - 2.0**-53), 3).tolist() == [last] * 3


class TestOutputContract:
    @given(inst=instances(), name=st.sampled_from(MECHANISM_NAMES), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_index_in_range_and_label_consistent(self, inst, name, seed):
        result = MECHANISMS[name](inst, RngState(seed))
        assert 0 <= result.index < len(inst.quality)
        assert result.label == inst.quality.labels[result.index]
