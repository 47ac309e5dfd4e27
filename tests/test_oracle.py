import math

import numpy as np
import pytest
from hypothesis import assume, given, settings

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
from dpselect.oracle import BATCH_ELEMENTS

from helpers import instances, make_instance

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
        assert table.provenance == "exact-enumeration"

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_constant_scores_uniform(self, k):
        table = pf_exact_distribution(make_instance([2.5] * k, epsilon=1.0))
        assert table.probabilities == pytest.approx((1.0 / k,) * k, abs=1e-12)

    def test_hopeless_runner_up_underflows_cleanly(self):
        table = pf_exact_distribution(make_instance([0.0, -1e9], epsilon=1.0))
        assert table.probabilities[0] == pytest.approx(1.0, abs=1e-12)
        assert table.probabilities[1] == pytest.approx(0.0, abs=1e-12)

    def test_enumeration_limit(self):
        with pytest.raises(TooManyOutcomesForEnumeration):
            pf_exact_distribution(make_instance([0.0] * 21))


class TestRnmExpoExact:
    def test_two_point_alternating_sum(self):
        table = rnm_expo_exact_distribution(make_instance([1.0, 0.0], epsilon=2.0))
        # runner-up: exp(-1) - exp(-1)/2 = exp(-1)/2
        assert table.probabilities[1] == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-12)
        assert table.provenance == "exact-closed-form"

    def test_single_outcome(self):
        table = rnm_expo_exact_distribution(make_instance([4.0], epsilon=1.0))
        assert table.probabilities == (1.0,)

    def test_equal_scores(self):
        table = rnm_expo_exact_distribution(make_instance([0.0, 0.0], epsilon=1.0))
        assert table.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_enumeration_limit(self):
        with pytest.raises(TooManyOutcomesForEnumeration):
            rnm_expo_exact_distribution(make_instance([0.0] * 21))


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

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            empirical_distribution("quantum", make_instance([0.0]), 10, seed=0)

    def test_callable_mechanism_accepted(self):
        from dpselect import exponential_mechanism

        table = empirical_distribution(
            exponential_mechanism, make_instance([0.0, 0.0]), 100, seed=0
        )
        assert sum(table.probabilities) == pytest.approx(1.0)


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


class TestScalarAndBatchPaths:
    """A mechanism passed as a callable runs the scalar single-draw loop;
    passed by name it runs the batch sampler. Both must follow the same
    reference table."""

    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    @pytest.mark.parametrize(
        "scores,epsilon,never",
        [
            ([0.8, -0.3, 0.1, 1.9], 1.5, []),
            ([5.0, 5.0, 4.0], 2.0, []),
            ([3.5], 0.4, []),
            # rate * (max q - q_2) = 800 > 745: the weight underflows to 0
            ([0.0, -0.05, -80.0], 20.0, [2]),
        ],
        ids=["mixed", "tied-best", "k1", "underflow"],
    )
    def test_scalar_and_batch_match_reference(self, name, scores, epsilon, never):
        inst = make_instance(scores, epsilon=epsilon)
        reference = SAMPLING_REFERENCES[name](inst)
        for mechanism in (MECHANISMS[name], name):
            counts = empirical_counts(mechanism, inst, 10_000, seed=41)
            assert sum(counts) == 10_000
            assert chi_square_gof(counts, reference, 0.001).passed
            assert [counts[i] for i in never] == [0] * len(never)

    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_single_draw_is_one_hot(self, name):
        inst = make_instance([1.0, 0.0, 2.0])
        for mechanism in (MECHANISMS[name], name):
            assert sorted(empirical_counts(mechanism, inst, 1, seed=5)) == [0, 0, 1]

    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_one_past_chunk_boundary(self, name):
        inst = make_instance([0.4, -0.2, 0.0, 0.3])
        n = BATCH_ELEMENTS // 4 + 1
        counts = empirical_counts(name, inst, n, seed=9)
        assert sum(counts) == n
        assert chi_square_gof(counts, SAMPLING_REFERENCES[name](inst), 0.001).passed
        assert empirical_counts(name, inst, n, seed=9) == counts


# (mechanism, mode) -> provenance and direct route of the table table_for
# returns; every pair not listed has no route
ROUTES = {
    ("pf", "exact"): ("exact-enumeration", pf_exact_distribution),
    ("rnm-expo", "exact"): ("exact-closed-form", rnm_expo_exact_distribution),
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
        assert result.passed

    def test_small_cells_pooled(self):
        # two tiny expected cells pool into one tail category: dof 2, not 3
        expected = ProbabilityTable(
            ("a", "b", "c", "d"), (0.6, 0.394, 0.004, 0.002), "exact-closed-form"
        )
        result = chi_square_gof([600, 394, 4, 2], expected, 0.001)
        assert result.degrees_of_freedom == 2
        assert result.statistic == pytest.approx(0.0, abs=1e-12)

    def test_all_cells_tiny_rejected(self):
        expected = ProbabilityTable(("a", "b"), (0.5, 0.5), "exact-closed-form")
        with pytest.raises(AllCategoriesMerged):
            chi_square_gof([3, 1], expected, 0.001)

    def test_observation_on_impossible_outcome_fails(self):
        expected = ProbabilityTable(("a", "b"), (1.0, 0.0), "exact-closed-form")
        result = chi_square_gof([99, 1], expected, 0.001)
        assert not result.passed
        assert result.p_value == 0.0

    def test_count_length_mismatch(self):
        expected = ProbabilityTable(("a", "b"), (0.5, 0.5), "exact-closed-form")
        with pytest.raises(LabelMismatch):
            chi_square_gof([10], expected, 0.001)


class TestChiSquarePValue:
    """chi_square_gof's p-value is bit for bit scipy.stats.chi2.sf, which
    the package itself does not import."""

    @staticmethod
    def assert_matches_chi2_sf(result):
        from scipy.stats import chi2

        assert result.p_value == float(chi2.sf(result.statistic, result.degrees_of_freedom))

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
            counts = empirical_counts("pf", inst, 1_000_000, seed=1000)
            result = chi_square_gof(counts, pf_exact_distribution(inst), 0.001)
            failures += 0 if result.passed else 1
        assert failures == 0
