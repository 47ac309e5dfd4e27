import hashlib
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
from dpselect.mechanisms import (
    BATCH_SAMPLERS,
    FIRST_MAX_COLUMNS,
    SEARCH_COUNT_MAX_K,
    _first_max,
    _search_right,
    log_weights,
)
from dpselect.noise import NOISE_FAMILIES

from helpers import SMALLEST_EPSILON, FixedUniforms, instances, make_instance, sampled_verdict

MECHANISM_NAMES = sorted(MECHANISMS)


def permuted_table(table, perm):
    return ProbabilityTable(
        tuple(table.labels[j] for j in perm),
        tuple(table.probabilities[j] for j in perm),
        table.provenance,
    )


def batch_draw(name, inst, rng, rows):
    """The indices of one draw of rows from name's batch sampler, built for
    that many rows."""
    return BATCH_SAMPLERS[name][0](inst, rows)(rng, rows).tolist()


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


class TestRegimeGolden:
    """Seeded batch counts, as in TestSeededGolden, at the k where a
    sampler's pick changes how it runs: k = 2 (one column comparison), 3,
    11 and 12 (the last k of column passes and the first of numpy's
    per-row argmax), 128 and 129 (em's last k of threshold counting and
    its first of searchsorted), 256 and 257 (the first k whose index
    does not fit the column passes' uint8 counts). Each instance ties its
    best score at the first and last outcome and, from k = 4, gives
    outcome 1 weight 0, so a wrong tie-break or a pick of an impossible
    outcome shows. Each value is a digest of the 40,000-draw counts under
    seed 2026."""

    KS = (2, 3, 11, 12, 128, 129, 256, 257)
    DIGESTS = {
        2: {
            "alg-a": "c2eeddbfe3872758",
            "alg-b": "6e32afd379956acc",
            "em": "01fe0bf2a730889b",
            "pf": "91ce88f2dc60d178",
            "rnm-expo": "4765939f384ca763",
            "rnm-gumbel": "eb1cbda252de9b58",
            "rnm-laplace": "1ef3f1b55789a409",
        },
        3: {
            "alg-a": "b05778330012db17",
            "alg-b": "81ed079ec2a59f53",
            "em": "5c28416d234bd237",
            "pf": "f18fa8d821614957",
            "rnm-expo": "495bafded60dab51",
            "rnm-gumbel": "941334aebf815dce",
            "rnm-laplace": "276f03de5a64ce34",
        },
        11: {
            "alg-a": "3ffa26c1356930b3",
            "alg-b": "35904ead0ce08fe6",
            "em": "eb68718aff855695",
            "pf": "c30c6d0aa3ee45d4",
            "rnm-expo": "69d78d858f05c86f",
            "rnm-gumbel": "4191e41cc827bb11",
            "rnm-laplace": "404e0c9ffba79f7b",
        },
        12: {
            "alg-a": "fd3cb9b9326b398a",
            "alg-b": "02727632315e62da",
            "em": "2b804f0fd5311ed8",
            "pf": "a3798458070932f1",
            "rnm-expo": "f9db65cfdeebf9bd",
            "rnm-gumbel": "3e6d96554b19e26d",
            "rnm-laplace": "a8cede54bb9be1a0",
        },
        128: {
            "alg-a": "0268475784acb44f",
            "alg-b": "78d915088a1647ef",
            "em": "ddd70fbf26e90061",
            "pf": "759354480bed4a43",
            "rnm-expo": "9b38863349a6b87c",
            "rnm-gumbel": "7e217cc2db9457fe",
            "rnm-laplace": "9b38863349a6b87c",
        },
        129: {
            "alg-a": "264040e19bd0e7fd",
            "alg-b": "314b1b18bd4df5e3",
            "em": "e63d3dd99aaa6b8a",
            "pf": "245e856d7da63e79",
            "rnm-expo": "c0cb906b52c311fb",
            "rnm-gumbel": "c7f908228c97fbf2",
            "rnm-laplace": "c0cb906b52c311fb",
        },
        256: {
            "alg-a": "2f14b0802e43b780",
            "alg-b": "9b4a3b07061a280e",
            "em": "61ad94c8c3c35d77",
            "pf": "94d69d8ba7302942",
            "rnm-expo": "13bcf043404ac950",
            "rnm-gumbel": "db6788e2c37dea12",
            "rnm-laplace": "13bcf043404ac950",
        },
        257: {
            "alg-a": "ab664f2050610db6",
            "alg-b": "d2c847716fbfb04a",
            "em": "40c757e245602bb8",
            "pf": "121bb2a9322f3e8a",
            "rnm-expo": "5d75429f6b6cc453",
            "rnm-gumbel": "1b8c601ca1156daa",
            "rnm-laplace": "5d75429f6b6cc453",
        },
    }

    @staticmethod
    def instance(k):
        scores = np.round(np.random.default_rng(k).uniform(-3.0, 0.0, k), 1)
        scores[0] = 0.0
        if k >= 3:
            scores[-1] = 0.0
        if k >= 4:
            scores[1] = -1e308
        return make_instance(scores, epsilon=1.5)

    def test_covers_every_mechanism(self):
        assert list(self.DIGESTS) == list(self.KS)
        assert all(sorted(table) == MECHANISM_NAMES for table in self.DIGESTS.values())

    def test_covers_each_side_of_each_cut_over(self):
        cut_overs = (FIRST_MAX_COLUMNS, SEARCH_COUNT_MAX_K)
        assert {k + step for k in cut_overs for step in (0, 1)} <= set(self.KS)

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    def test_seeded_batch_counts_unchanged(self, name, k):
        counts = empirical_counts(name, self.instance(k), 40_000, seed=2026)
        digest = hashlib.sha256(np.array(counts, dtype=np.int64).tobytes()).hexdigest()[:16]
        assert digest == self.DIGESTS[k][name], counts


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


class TestColumnPicks:
    """_first_max and _search_right give the bits of the numpy calls they
    stand in for at small k, np.argmax per row and np.searchsorted to the
    right, on both sides of their cut-overs and at k = 257, past the
    uint8 counts the column passes keep."""

    @pytest.mark.parametrize("k", [*range(1, FIRST_MAX_COLUMNS + 3), 257])
    def test_first_max_is_the_first_argmax(self, k):
        gen = np.random.default_rng(k)
        # few distinct values, so most rows tie at their maximum
        tied = gen.choice([-np.inf, -1.0, -0.0, 0.0, 0.5], size=(3000, k))
        tied[:5] = np.array([[0.5], [-np.inf], [-0.0], [0.0], [0.0]])  # all-equal rows
        tied[3, ::2] = tied[4, 1::2] = -0.0  # zeros of alternating signs
        for values in (tied, gen.standard_normal((3000, k)), tied[:1], tied[4:5]):
            expected = np.argmax(values, axis=1).tolist()
            assert _first_max(values.ravel(), k).tolist() == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 12, SEARCH_COUNT_MAX_K, SEARCH_COUNT_MAX_K + 1,
                                   257])
    def test_search_right_is_searchsorted(self, k):
        gen = np.random.default_rng(k)
        # each weight 0 repeats a cumulative value, the first always and
        # others at random; the sampler's x stay below the total
        weights = np.where(gen.random(k) < 0.3, 0.0, gen.uniform(0.0, 2.0, k))
        weights[0], weights[k // 2] = 0.0, 1.0
        cumulative = np.cumsum(weights)
        thresholds = cumulative[:-1]
        x = np.concatenate([thresholds, np.nextafter(thresholds, -np.inf),
                            np.nextafter(thresholds, np.inf), gen.uniform(0.0, cumulative[-1], 3000)])
        x = x[x < cumulative[-1]]
        expected = np.searchsorted(cumulative, x, side="right").tolist()
        assert _search_right(cumulative, x).tolist() == expected


class TestIntermediateBTieBreak:
    """alg-b breaks ties by each outcome's floored uniform u, where the
    censored-noise algorithm takes a second exponential draw, -log1p(-u),
    from the same uniform. The transform is strictly increasing on the
    uniform grid, so both give the same pick in every row."""

    @staticmethod
    def exponential_tie_break_picks(inst, seed, rows):
        k = len(inst.quality)
        draws = samples(Exponential(), RngState(seed), rows * 2 * k)
        noisy = draws[0::2] + np.tile(log_weights(inst), rows)
        capped = np.minimum(noisy, 0.0) == 0.0
        return np.argmax((draws[1::2] * capped).reshape(rows, k), axis=1).tolist()

    @pytest.mark.parametrize("scores", [
        [0.5, 0.5],
        TestSeededGolden.SCORES,
        [0.3, -1.2, 1.1, 0.0, -4.0, 1.1, 0.8, -0.5, 1.05, -9.0, 0.9, 0.2],
    ], ids=["k2", "k9", "k12"])
    def test_same_picks_as_exponential_tie_breaks(self, scores):
        # each instance ties for its best score, where only the tie-break decides
        inst, rows = make_instance(scores, epsilon=1.5), 100_000
        picks = batch_draw("alg-b", inst, RngState(77), rows)
        assert picks == self.exponential_tie_break_picks(inst, 77, rows)

    @pytest.mark.parametrize("draw", [0.5, 1.0, 2.0])
    def test_exponential_draw_strictly_increasing_on_the_uniform_grid(self, draw):
        # where the draw crosses a power of two its ulp doubles, and one step
        # of 2^-53 in u moves it least: e^draw 2^-53 / ulp is 1.65, 1.36 and
        # 1.85 ulps just above 0.5, 1 and 2
        m = round(-math.expm1(-draw) * 2**53)
        u = np.arange(m - 500_000, m + 500_000) * 2.0**-53
        x = Exponential().quantile(u)
        assert x[0] < draw < x[-1]
        assert (np.diff(x) > 0.0).all()


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
        assert batch_draw("pf", inst, FixedUniforms(0.0), 4) == [1] * 4

    @pytest.mark.parametrize("name", ["pf", "alg-a"])
    def test_two_outcome_pick_keeps_index_0_on_equal_keys(self, name):
        # both outcomes kept and both order keys 0, as argmin would keep
        inst = make_instance([0.0, 0.0])
        assert batch_draw(name, inst, FixedUniforms(0.0), 4) == [0] * 4

    @pytest.mark.parametrize("k", [3, FIRST_MAX_COLUMNS, FIRST_MAX_COLUMNS + 1])
    @pytest.mark.parametrize("name", ["pf", "alg-a"])
    def test_equal_keys_keep_the_lowest_kept_index(self, name, k):
        # outcome 0 of weight 0 is never kept, the rest are, and every order
        # key is 0: outcome 1 wins each tie, in columns and by argmax
        inst = make_instance(self.ZERO_FIRST + [0.0] * (k - 2))
        assert batch_draw(name, inst, FixedUniforms(0.0), 4) == [1] * 4

    def test_intermediate_b_zero_tie_break_still_beats_the_masked_out(self):
        # outcome 0 is masked out below the cap and outcome 1, the only one
        # to hit it, draws a tie-break uniform of 0: floored to 2^-53, it
        # still ranks above outcome 0's masked 0
        inst = make_instance(self.ZERO_FIRST)
        assert batch_draw("alg-b", inst, FixedUniforms(0.0), 4) == [1] * 4

    def test_exponential_mechanism_skips_a_leading_zero_weight(self):
        inst = make_instance(self.ZERO_FIRST)
        assert batch_draw("em", inst, FixedUniforms(0.0), 2) == [1] * 2

    @pytest.mark.parametrize("k", [SEARCH_COUNT_MAX_K, SEARCH_COUNT_MAX_K + 1],
                             ids=["count", "search"])
    def test_exponential_mechanism_skips_a_leading_zero_weight_at_the_cut_over(self, k):
        inst = make_instance(self.ZERO_FIRST + [0.0] * (k - 2))
        assert batch_draw("em", inst, FixedUniforms(0.0), 2) == [1] * 2

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_largest_uniform_picks_the_last_of_equal_weights(self, k):
        # the total k is a power of two, where u * k is exactly k - 2^-53 k
        inst = make_instance([0.0] * k)
        assert batch_draw("em", inst, FixedUniforms(1.0 - 2.0**-53), 1) == [k - 1]

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
            assert batch_draw("em", inst, FixedUniforms(1.0 - 2.0**-53), 3) == [last] * 3


class TestOutputContract:
    @given(inst=instances(), name=st.sampled_from(MECHANISM_NAMES), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_index_in_range_and_label_consistent(self, inst, name, seed):
        result = MECHANISMS[name](inst, RngState(seed))
        assert 0 <= result.index < len(inst.quality)
        assert result.label == inst.quality.labels[result.index]
