import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpselect import (
    NeighborPair,
    PrivacyParams,
    ProbabilityTable,
    QualityVector,
    ValidatedInstance,
    sensitivity_from_pairs,
    validate_instance,
)
from dpselect.errors import (
    DerivedScaleOverflow,
    DuplicateLabel,
    EmptyOutcomeSet,
    EmptyPairList,
    InvalidProbabilityTable,
    LabelMismatch,
    NonFiniteScore,
    NonPositiveEpsilon,
    NonPositiveSensitivity,
)

from helpers import SMALLEST_EPSILON, make_instance


def pair(a, b):
    labels = tuple(f"o{i}" for i in range(len(a)))
    return NeighborPair(QualityVector(labels, a), QualityVector(labels, b))


class TestValidateInstance:
    def test_minimal_single_outcome(self):
        inst = validate_instance(QualityVector(("a",), (0.0,)), PrivacyParams(1.0, 1.0))
        assert inst.quality.labels == ("a",)
        assert len(inst.quality) == 1

    def test_derived_rate(self):
        inst = make_instance([1.0, 0.0], epsilon=2.0, sensitivity=1.0)
        assert inst.params.rate == 1.0

    def test_zero_epsilon_rejected(self):
        with pytest.raises(NonPositiveEpsilon):
            make_instance([0.0], epsilon=0.0)

    @pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf])
    def test_bad_epsilon_rejected(self, eps):
        with pytest.raises(NonPositiveEpsilon):
            PrivacyParams(eps, 1.0)

    @pytest.mark.parametrize("delta", [0.0, -2.0, math.inf])
    def test_bad_sensitivity_rejected(self, delta):
        with pytest.raises(NonPositiveSensitivity):
            PrivacyParams(1.0, delta)

    def test_empty_outcome_set_rejected(self):
        with pytest.raises(EmptyOutcomeSet):
            QualityVector((), ())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(NonFiniteScore):
            QualityVector(("a", "b"), (0.0, bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_score_at_any_position_names_its_label(self, bad, position):
        scores = [0.5, 1.0, -2.0]
        scores[position] = bad
        with pytest.raises(NonFiniteScore, match=f"'o{position}'"):
            QualityVector(("o0", "o1", "o2"), scores)

    @pytest.mark.parametrize("bad", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_integer_beyond_double_range_rejected(self, bad):
        with pytest.raises(NonFiniteScore, match="'b'"):
            QualityVector(("a", "b"), (0, bad))

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(LabelMismatch, match="1 labels for 2 scores"):
            QualityVector(("a",), (1.0, 2.0))

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabel):
            QualityVector(("a", "a"), (0.0, 1.0))


class TestValidatedInstance:
    def test_parts_of_the_wrong_type_rejected(self):
        quality, params = QualityVector(("a",), (0.0,)), PrivacyParams(1.0, 1.0)
        with pytest.raises(TypeError, match="quality must be a QualityVector"):
            ValidatedInstance("q", params)
        with pytest.raises(TypeError, match="params must be a PrivacyParams"):
            ValidatedInstance(quality, (1.0, 1.0))


class TestPrivacyParams:
    @given(
        epsilon=st.floats(min_value=1e-6, max_value=1e6),
        sensitivity=st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_rate_is_epsilon_over_twice_the_sensitivity(self, epsilon, sensitivity):
        p = PrivacyParams(epsilon, sensitivity)
        assert abs(p.rate * (2.0 * sensitivity) / epsilon - 1.0) <= 1e-12

    def test_budget_whose_noise_overflows_rejected(self):
        # eps 5e-324 gives rate 5e-324 / 2, which rounds to 0; eps 1e308 at
        # sensitivity 5e-324 gives rate 1e308 / 1e-323, which overflows
        with pytest.raises(DerivedScaleOverflow):
            PrivacyParams(5e-324, 1.0)
        with pytest.raises(DerivedScaleOverflow):
            PrivacyParams(1e308, 5e-324)

    def test_smallest_accepted_budget(self):
        # the noise is drawn at unit scale, so only the rate must be positive
        # and finite
        assert PrivacyParams(SMALLEST_EPSILON, 1.0).rate == 5e-324
        assert PrivacyParams(2e-308, 1.0).rate == 1e-308
        with pytest.raises(DerivedScaleOverflow):
            PrivacyParams(math.nextafter(SMALLEST_EPSILON, 0.0), 1.0)

    def test_stores_floats(self):
        p = PrivacyParams(1, 2)
        assert (p.epsilon, p.sensitivity) == (1.0, 2.0)
        assert (type(p.epsilon), type(p.sensitivity)) == (float, float)


class TestSensitivityFromPairs:
    def test_single_pair(self):
        assert sensitivity_from_pairs([pair((1.0, 0.0), (0.0, 1.0))]) == 1.0

    def test_identical_vectors(self):
        assert sensitivity_from_pairs([pair((5.0, 3.0), (5.0, 3.0))]) == 0.0

    def test_max_over_pairs(self):
        pairs = [pair((5.0, 1.0), (4.0, 2.0)), pair((5.0, 3.0), (4.0, 3.0))]
        assert sensitivity_from_pairs(pairs) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyPairList):
            sensitivity_from_pairs([])

    def test_pairs_from_a_generator(self):
        pairs = [pair((5.0, 1.0), (4.0, 2.0)), pair((5.0, 3.0), (2.5, 3.0))]
        assert sensitivity_from_pairs(p for p in pairs) == 2.5
        with pytest.raises(EmptyPairList):
            sensitivity_from_pairs(iter(()))

    @given(
        st.lists(
            st.tuples(
                st.lists(st.floats(-10, 10), min_size=3, max_size=3),
                st.lists(st.floats(-10, 10), min_size=3, max_size=3),
            ),
            min_size=1,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant_and_monotone(self, raw, rnd):
        pairs = [pair(tuple(a), tuple(b)) for a, b in raw]
        value = sensitivity_from_pairs(pairs)
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        assert sensitivity_from_pairs(shuffled) == value
        extended = pairs + [pair((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))]
        assert sensitivity_from_pairs(extended) >= value


class TestQualityVector:
    def test_stores_tuples_of_str_labels_and_float_scores(self):
        q = QualityVector(["a", 1], (s for s in [1, np.float64(2.5)]))
        assert (q.labels, q.scores) == (("a", "1"), (1.0, 2.5))
        assert [type(v) for v in (q.labels, *q.labels, q.scores, *q.scores)] == [
            tuple, str, str, tuple, float, float]

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=8),
        st.randoms(use_true_random=False),
    )
    def test_best_score_permutation_invariant(self, scores, rnd):
        labels = [f"o{i}" for i in range(len(scores))]
        items = list(zip(labels, scores))
        rnd.shuffle(items)
        original = QualityVector(tuple(labels), tuple(scores))
        shuffled = QualityVector(
            tuple(l for l, _ in items), tuple(s for _, s in items)
        )
        assert shuffled.best_score == original.best_score
        assert original.best_score == max(scores)


class TestNeighborPair:
    def test_vectors_of_the_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="q1 and q2 must be QualityVectors"):
            NeighborPair("a", "b")

    def test_label_mismatch_rejected(self):
        with pytest.raises(LabelMismatch):
            NeighborPair(
                QualityVector(("a", "b"), (0.0, 1.0)),
                QualityVector(("a", "c"), (0.0, 1.0)),
            )


class TestProbabilityTable:
    def test_stores_a_tuple_of_str_labels(self):
        table = ProbabilityTable(["a", 2], (0.5, 0.5), "x")
        assert table.labels == ("a", "2")
        assert [type(v) for v in (table.labels, *table.labels)] == [tuple, str, str]

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(LabelMismatch, match="1 labels for 2 probabilities"):
            ProbabilityTable(("a",), (0.5, 0.5), "x")

    def test_empty_table_rejected(self):
        with pytest.raises(EmptyOutcomeSet):
            ProbabilityTable((), (), "x")

    def test_tiny_negative_entry_clamped(self):
        table = ProbabilityTable(("a", "b"), (1.0 + 5e-13, -5e-13), "exact-closed-form")
        assert table.probabilities == (1.0, 0.0)

    def test_negative_zero_entry_stored_as_zero(self):
        table = ProbabilityTable(("a", "b"), (1.0, -0.0), "exact-closed-form")
        assert [math.copysign(1.0, p) for p in table.probabilities] == [1.0, 1.0]

    def test_entry_out_of_range_rejected(self):
        with pytest.raises(InvalidProbabilityTable):
            ProbabilityTable(("a", "b"), (1.2, -0.2), "exact-closed-form")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_entry_at_any_position_rejected(self, bad, position):
        entries = [0.5, 0.5]
        entries.insert(position, bad)
        with pytest.raises(InvalidProbabilityTable):
            ProbabilityTable(("a", "b", "c"), entries, "exact-closed-form")

    def test_bad_sum_rejected(self):
        with pytest.raises(InvalidProbabilityTable):
            ProbabilityTable(("a", "b"), (0.7, 0.2), "exact-closed-form")

    @pytest.mark.parametrize("gap", [1.2e-9, -1.2e-9])
    def test_sum_just_beyond_the_tolerance_rejected(self, gap):
        # PROBABILITY_SUM_TOLERANCE is 1e-9: a sum 1 +- 1.2e-9 is out, 1 +- 0.8e-9 in
        with pytest.raises(InvalidProbabilityTable):
            ProbabilityTable(("a", "b"), (0.5, 0.5 + gap), "exact-closed-form")
        inside = ProbabilityTable(("a", "b"), (0.5, 0.5 + gap / 1.5), "exact-closed-form")
        assert inside.probabilities == (0.5, 0.5 + gap / 1.5)
