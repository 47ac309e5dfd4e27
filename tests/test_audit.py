import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings

from dpselect import (
    NeighborPair,
    PrivacyParams,
    QualityVector,
    dominance_check,
    em_exact_distribution,
    expected_error,
    perturbed_neighbor_pairs,
    pf_exact_distribution,
    privacy_ratio_audit,
    random_instances,
)
from dpselect.core import ProbabilityTable, validate_instance
from dpselect.errors import (
    EmptyPairList,
    LabelMismatch,
    PairExceedsSensitivity,
    UnsupportedOracle,
)

from dpselect import audit
from dpselect.oracle import exact_tables

from helpers import instances, make_instance


def pair(a, b):
    labels = tuple(f"o{i}" for i in range(len(a)))
    return NeighborPair(QualityVector(labels, a), QualityVector(labels, b))


class TestPrivacyRatioAudit:
    def test_em_swap_pair(self):
        report = privacy_ratio_audit(
            "em", [pair((1.0, 0.0), (0.0, 1.0))], PrivacyParams(2.0, 1.0)
        )
        assert report.worst_ratio == pytest.approx(math.e, rel=1e-9)
        assert report.bound == pytest.approx(math.exp(2.0), rel=1e-12)
        assert report.passed

    @pytest.mark.parametrize("oracle", ["pf", "rnm-expo", "em"])
    def test_identical_pair_ratio_one(self, oracle):
        report = privacy_ratio_audit(
            oracle, [pair((1.0, 0.5, 0.0), (1.0, 0.5, 0.0))], PrivacyParams(1.0, 1.0)
        )
        assert report.worst_ratio == 1.0
        assert report.passed

    @pytest.mark.parametrize("oracle", ["pf", "rnm-expo", "em"])
    @pytest.mark.parametrize("epsilon", [0.5, 2.0])
    def test_random_pairs_within_bound(self, oracle, epsilon):
        pairs = perturbed_neighbor_pairs(30, 1.0, k_min=2, k_max=8, seed=4)
        report = privacy_ratio_audit(pairs=pairs, oracle=oracle, params=PrivacyParams(epsilon, 1.0))
        assert report.passed
        assert report.worst_ratio <= math.exp(epsilon) * (1 + 1e-9)
        assert len(report.per_pair) == 30
        assert report.worst_ratio == max(r.ratio for r in report.per_pair)

    @pytest.mark.parametrize("oracle", ["pf", "rnm-expo", "em"])
    def test_mixed_k_pairs_read_their_own_rows(self, oracle):
        """Pairs of k 1 to 10 in one audit, padded to the widest: each
        record names an outcome of its own pair and equals that pair's audit
        alone, a pair with equal tables reports index 0 and ratio 1.0, and
        an outcome impossible under both datasets, next to padding, counts
        as gap 0."""
        gen = np.random.default_rng(41)
        params = PrivacyParams(1.0, 1e-300)  # rate 5e299: scores on the 1e-300 scale
        pairs = []
        for index, k in enumerate([3, 10, 1, 7, 2, 9, 5, 4, 2]):
            labels = tuple(f"p{index}o{i}" for i in range(k))
            q1 = gen.uniform(-5.0, 5.0, k) * 1e-300
            q2 = q1 + gen.uniform(-0.999, 0.999, k) * 1e-300
            pairs.append(NeighborPair(QualityVector(labels, tuple(q1)),
                                      QualityVector(labels, tuple(q2))))
        pairs[7] = NeighborPair(pairs[7].q1, pairs[7].q1)
        # rate * -1e10 is -inf on both sides: an outcome neither dataset can produce
        pairs[8] = NeighborPair(QualityVector(("p8o0", "p8o1"), (0.0, -1e10)),
                                QualityVector(("p8o0", "p8o1"), (1e-300, -1e10)))
        report = privacy_ratio_audit(oracle, pairs, params)
        assert len(report.per_pair) == len(pairs)
        for index, (p, record) in enumerate(zip(pairs, report.per_pair)):
            assert record.pair_index == index
            assert record.worst_outcome_label in p.q1.labels
            (alone,) = privacy_ratio_audit(oracle, [p], params).per_pair
            assert (record.worst_outcome_label, record.ratio) == (alone.worst_outcome_label,
                                                                  alone.ratio)
        assert report.per_pair[7] == audit.PairAudit(7, "p7o0", 1.0)
        assert report.per_pair[8] == audit.PairAudit(8, "p8o0", 1.0)
        assert report.worst_ratio > 1.0 and report.passed

    def test_direction_symmetric(self):
        p = pair((1.0, 0.2, -0.4), (0.3, 0.9, -0.1))
        params = PrivacyParams(1.5, 1.0)
        forward = privacy_ratio_audit("pf", [p], params)
        backward = privacy_ratio_audit("pf", [NeighborPair(p.q2, p.q1)], params)
        assert forward.worst_ratio == pytest.approx(backward.worst_ratio, rel=1e-12)

    def test_pair_exceeding_sensitivity_rejected(self):
        with pytest.raises(PairExceedsSensitivity):
            privacy_ratio_audit(
                "em", [pair((2.0, 0.0), (0.0, 0.0))], PrivacyParams(1.0, 1.0)
            )

    def test_mechanism_without_exact_oracle_rejected(self):
        with pytest.raises(UnsupportedOracle):
            privacy_ratio_audit(
                "rnm-laplace", [pair((0.0,), (0.0,))], PrivacyParams(1.0, 1.0)
            )

    def test_empty_pair_list_rejected(self):
        with pytest.raises(EmptyPairList):
            privacy_ratio_audit("em", [], PrivacyParams(1.0, 1.0))

    def test_pairs_from_a_generator(self):
        pairs = perturbed_neighbor_pairs(5, 1.0, k_min=2, k_max=6, seed=3)
        params = PrivacyParams(1.0, 1.0)
        assert (privacy_ratio_audit("pf", (p for p in pairs), params)
                == privacy_ratio_audit("pf", pairs, params))
        with pytest.raises(EmptyPairList):
            privacy_ratio_audit("pf", iter(()), params)


class TestLogSpaceAudit:
    """The audit compares log-probabilities, so nothing underflows and no
    0/0 rule is needed."""

    @pytest.mark.parametrize("oracle", ["pf", "rnm-expo", "em"])
    def test_pair_near_underflow_passes(self, oracle):
        # P(b) is about e^-745.6 and e^-746.3: linear tables round them to
        # a subnormal and to 0, which read as an infinite ratio
        report = privacy_ratio_audit(
            oracle, [pair((0.0, -744.9), (0.0, -745.6))], PrivacyParams(2.0, 1.0)
        )
        assert report.passed
        assert report.per_pair[0].worst_outcome_label == "o1"
        assert math.log(report.worst_ratio) == pytest.approx(0.70, abs=1e-12)

    @pytest.mark.parametrize("oracle", ["pf", "rnm-expo", "em"])
    def test_pair_whose_score_gap_overflows_passes(self, oracle):
        # q - max q overflows a double on both sides, but the log weights
        # rate * (q - max q) are -37.42 and -38.25: a log gap of
        # rate * 4e306 = 0.8333 for the second outcome, inside eps = 1
        q1, q2 = (8.98e307, -8.98e307), (9.18e307, -9.18e307)
        params = PrivacyParams(1.0, 2.4e306)
        report = privacy_ratio_audit(oracle, [pair(q1, q2)], params)
        assert report.passed
        assert report.per_pair[0].worst_outcome_label == "o1"
        assert abs(report.worst_ratio - math.exp(params.rate * 4e306)) <= 1e-9

    @pytest.mark.parametrize("oracle", ["pf", "rnm-expo", "em"])
    def test_probability_below_1e_320_gets_a_finite_gap(self, oracle):
        q1, q2 = (0.0, -3.0, -800.0), (0.0, -3.0, -800.5)
        log_p = exact_tables(oracle, [make_instance(q, epsilon=2.0) for q in (q1, q2)], log=True)
        assert max(log_p[0][2], log_p[1][2]) < math.log(1e-320)
        report = privacy_ratio_audit(oracle, [pair(q1, q2)], PrivacyParams(2.0, 1.0))
        assert math.isfinite(report.worst_ratio)
        assert math.log(report.worst_ratio) == pytest.approx(0.5, abs=1e-9)
        assert report.passed

    @pytest.mark.parametrize("oracle", ["pf", "rnm-expo", "em"])
    def test_minus_infinity_on_both_sides_is_gap_zero(self, oracle):
        # rate 5e299: rate * (q - max q) for the second outcome is -inf on
        # both sides, an outcome neither dataset can produce
        q1, q2 = (0.0, -1e10), (1e-300, -1e10)
        params = PrivacyParams(1.0, 1e-300)
        tables = exact_tables(oracle, [validate_instance(QualityVector(("o0", "o1"), q), params)
                                       for q in (q1, q2)], log=True)
        assert [t[1] for t in tables] == [-math.inf, -math.inf]
        report = privacy_ratio_audit(oracle, [pair(q1, q2)], params)
        assert report.worst_ratio == 1.0
        assert report.passed

    @pytest.mark.parametrize("oracle", ["pf", "rnm-expo", "em"])
    def test_epsilon_above_exp_range(self, oracle):
        # e^800 overflows a double: the bound reads inf, the verdict is
        # taken on the log gap against eps
        pairs = perturbed_neighbor_pairs(5, 1.0, seed=8)
        report = privacy_ratio_audit(oracle, pairs, PrivacyParams(800.0, 1.0))
        assert report.bound == math.inf
        assert report.passed
        assert report.worst_ratio > 1.0

    @pytest.mark.parametrize("oracle", ["pf", "rnm-expo", "em"])
    def test_identical_pairs_of_mixed_sizes_ratio_exactly_one(self, oracle):
        gen = np.random.default_rng(5)
        pairs = [pair(q, q) for q in (tuple(gen.uniform(-5.0, 5.0, k)) for k in
                                      (1, 2, 3, 7, 12, 20, 64, 256, 1))]
        report = privacy_ratio_audit(oracle, pairs, PrivacyParams(1.0, 1.0))
        assert report.worst_ratio == 1.0
        assert all(r.ratio == 1.0 for r in report.per_pair)


class TestExpectedError:
    def test_em_two_point(self):
        inst = make_instance([1.0, 0.0], epsilon=2.0)
        value = expected_error(inst, em_exact_distribution(inst))
        assert value == pytest.approx(0.268941, abs=1e-6)

    def test_pf_two_point(self):
        inst = make_instance([1.0, 0.0], epsilon=2.0)
        value = expected_error(inst, pf_exact_distribution(inst))
        assert value == pytest.approx(0.183940, abs=1e-6)

    def test_one_hot_on_best_is_zero(self):
        inst = make_instance([1.0, 3.0, 0.0], epsilon=1.0)
        one_hot = ProbabilityTable(inst.quality.labels, (0.0, 1.0, 0.0), "exact-closed-form")
        assert expected_error(inst, one_hot) == 0.0

    def test_label_mismatch_rejected(self):
        inst = make_instance([1.0, 0.0], epsilon=1.0)
        other = ProbabilityTable(("x", "y"), (0.5, 0.5), "exact-closed-form")
        with pytest.raises(LabelMismatch):
            expected_error(inst, other)

    @given(inst=instances(k_min=1, k_max=6))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, inst):
        assert expected_error(inst, pf_exact_distribution(inst)) >= 0.0

    @given(inst=instances(k_min=1, k_max=6))
    @example(inst=make_instance([0.0, 0.0, 1.1125369292536007e-308], epsilon=0.1, sensitivity=0.5))
    @settings(max_examples=40, deadline=None)
    def test_same_bits_as_the_plain_sum(self, inst):
        # the plain sum is returned wherever it is finite, also where a loss
        # is subnormal: halving 1.1125369292536007e-308 drops a bit
        table = pf_exact_distribution(inst)
        best = inst.quality.best_score
        plain = math.fsum(p * (best - s) for p, s in zip(table.probabilities, inst.quality.scores))
        assert expected_error(inst, table) == plain

    def test_sum_that_overflows_in_fsum_is_inf(self):
        # each loss is (0.5 + 4e-10) * DBL_MAX, finite, but their sum is not:
        # fsum raises "intermediate overflow", and the halved losses give inf
        inst = make_instance([0.0, -sys.float_info.max, -sys.float_info.max])
        table = ProbabilityTable(inst.quality.labels, (0.0, 0.5 + 4e-10, 0.5 + 4e-10), "x")
        with pytest.raises(OverflowError):
            math.fsum(p * -s for p, s in zip(table.probabilities, inst.quality.scores))
        assert expected_error(inst, table) == math.inf

    @pytest.mark.parametrize("shift", [-250.0, 250.0])
    def test_shift_invariant(self, shift):
        scores = [1.3, -0.7, 0.2]
        inst = make_instance(scores, epsilon=1.3)
        moved = make_instance([s + shift for s in scores], epsilon=1.3)
        base = expected_error(inst, pf_exact_distribution(inst))
        after = expected_error(moved, pf_exact_distribution(moved))
        assert after == pytest.approx(base, abs=1e-9)


class TestDominance:
    def test_two_point_values(self):
        report = dominance_check([make_instance([1.0, 0.0], epsilon=2.0)])
        record = report.per_instance[0]
        assert record.expected_error_pf == pytest.approx(0.183940, abs=1e-6)
        assert record.expected_error_em == pytest.approx(0.268941, abs=1e-6)
        assert report.dominance_violations == 0

    def test_violations_counted_once_per_instance(self, monkeypatch):
        # pf's table made uniform on instances 1 and 3: on separated scores
        # uniform errs more than em, so exactly those two are violations
        suite = random_instances(5, 1.0, 1.0, k_min=2, k_max=6, seed=10)
        real = audit._padded_tables

        def uniform_on_two(mechanisms, instances, log):
            tables = real(mechanisms, instances, log)
            pf = tables[mechanisms.index("pf")]
            for i in (1, 3):
                k = len(instances[i].quality)
                pf[i, :k] = 1.0 / k
            return tables

        monkeypatch.setattr(audit, "_padded_tables", uniform_on_two)
        report = dominance_check(suite)
        worse = [r.expected_error_pf - r.expected_error_em > 1e-9 for r in report.per_instance]
        assert worse == [False, True, False, True, False]
        assert report.dominance_violations == 2

    def test_constant_scores_zero_error_for_both(self):
        report = dominance_check([make_instance([4.0, 4.0, 4.0], epsilon=1.0)])
        record = report.per_instance[0]
        assert record.expected_error_pf == pytest.approx(0.0, abs=1e-12)
        assert record.expected_error_em == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("epsilon", [0.1, 1.0, 4.0])
    def test_no_violations_on_random_suite(self, epsilon):
        report = dominance_check(
            random_instances(100, epsilon, 1.0, k_min=2, k_max=10, seed=9)
        )
        assert report.dominance_violations == 0

    def test_strict_dominance_unless_degenerate(self):
        # separated scores: pf strictly better; constant scores or k=1: equal
        for inst in random_instances(20, 1.0, 1.0, k_min=2, k_max=6, seed=10):
            record = dominance_check([inst]).per_instance[0]
            assert record.expected_error_em - record.expected_error_pf > 1e-9
        for degenerate in (make_instance([2.0]), make_instance([1.0, 1.0, 1.0])):
            record = dominance_check([degenerate]).per_instance[0]
            assert abs(record.expected_error_em - record.expected_error_pf) <= 1e-9

    def test_errors_match_enumeration_tables(self):
        """The batch reads the linear tables of the exact oracles, bit for
        bit, at every k."""
        suite = random_instances(60, 1.0, 1.0, k_min=1, k_max=20, seed=11)
        suite += random_instances(6, 1.0, 1.0, k_min=21, k_max=256, seed=12)
        for inst, record in zip(suite, dominance_check(suite).per_instance, strict=True):
            assert record.expected_error_pf == expected_error(inst, pf_exact_distribution(inst))
            assert record.expected_error_em == expected_error(inst, em_exact_distribution(inst))

    @pytest.mark.parametrize("epsilon", [0.1, 1.0, 4.0])
    def test_no_violations_beyond_enumeration(self, epsilon):
        suite = random_instances(12, epsilon, 1.0, k_min=21, k_max=256, seed=12)
        report = dominance_check(suite)
        assert report.dominance_violations == 0
        assert all(r.expected_error_em > r.expected_error_pf for r in report.per_instance)

    def test_score_gap_beyond_double_range(self):
        # loss 1e308 - (-1e308) is inf on an outcome of probability 0: it
        # adds 0 to the error, not 0 * inf = nan
        inst = make_instance([1e308, -1e308])
        report = dominance_check([inst])
        record = report.per_instance[0]
        assert (record.expected_error_pf, record.expected_error_em) == (0.0, 0.0)
        assert report.dominance_violations == 0
        one_hot = ProbabilityTable(inst.quality.labels, (1.0, 0.0), "one-hot")
        assert expected_error(inst, one_hot) == 0.0

    def test_error_whose_loss_overflows_is_finite(self):
        # eps 2e-308, rate 1e-308: the second outcome wins with probability
        # e^-2 / 2 under pf and 1 / (1 + e^2) under em, at a loss of 2e308,
        # which overflows a double while both expected errors do not
        inst = make_instance([1e308, -1e308], epsilon=2e-308)
        record = dominance_check([inst]).per_instance[0]
        for got, want in [(record.expected_error_pf, math.exp(-2.0) / 2.0 * 2e308),
                          (record.expected_error_em, 2e308 / (1.0 + math.exp(2.0)))]:
            assert abs(got - want) <= 1e-12 * want
        assert expected_error(inst, pf_exact_distribution(inst)) == record.expected_error_pf
        assert expected_error(inst, em_exact_distribution(inst)) == record.expected_error_em

    def test_error_not_finite_is_rejected(self):
        # eps 1e-320: the nine outcomes 3.4e308 below the best win with
        # probability about 0.9, an expected error above DBL_MAX; that is no
        # verdict, never a pass
        inst = make_instance([1.7e308] + [-1.7e308] * 9, epsilon=1e-320)
        with pytest.raises(ValueError, match="not finite"):
            dominance_check([inst])

    def test_empty_suite_rejected(self):
        # an empty suite would report zero violations without checking anything
        with pytest.raises(ValueError, match="at least one instance"):
            dominance_check([])


def suite_digest(vectors):
    """sha256 over each quality vector's labels and score bytes, in order."""
    digest = hashlib.sha256()
    for quality in vectors:
        digest.update(repr(quality.labels).encode())
        digest.update(np.asarray(quality.scores, dtype=float).tobytes())
    return digest.hexdigest()


class TestSuiteGenerators:
    """Many seeded tests draw their instances from these suites, so the
    streams are pinned bit for bit."""

    @pytest.mark.parametrize("args,expected", [
        ((10, 1.0, 1.0, 2, 10, 0),
         "c39e937dbdaa4f7211e89bf69c2e8676aeb6f3f02c271ce2ddb8d0fb5752e30e"),
        ((20, 1.0, 1.0, 1, 20, 11),
         "b3e0643b994149879f91b9ec8cf8cfd3aa8c60837d9cd12e5ebac10394b15d19"),
        ((5, 2.0, 1.0, 21, 256, 12),
         "bccd19cc5f1725efca82fe64eb213a70491ec601e2a90fe02c16726accf6ddbc"),
    ])
    def test_random_instances_golden(self, args, expected):
        assert suite_digest(inst.quality for inst in random_instances(*args)) == expected

    @pytest.mark.parametrize("args,expected", [
        ((30, 1.0, 2, 8, 4), "75439080dd9b5f0934f01a3d4d614d00b3a69ecbb80daa6a1f54981c5e0760e2"),
        ((50, 0.75, 2, 10, 13),
         "72cbbcd80a1e3ead46bde2b9c61da6b58903c1387e6fb2b03f63966cd256378e"),
        ((5, 2.4, 21, 256, 3), "5b079b51aafa9544bc68b4b0cea43dabbed52095acd03c5537e6d39b55694230"),
    ])
    def test_perturbed_neighbor_pairs_golden(self, args, expected):
        pairs = perturbed_neighbor_pairs(*args)
        assert suite_digest(q for pair in pairs for q in (pair.q1, pair.q2)) == expected

    def test_random_instances_defaults(self):
        """k from 2 to 10 at seed 0: the first golden suite's draws."""
        suite = random_instances(10, 1.0, 1.0)
        assert suite_digest(inst.quality for inst in suite) == (
            "c39e937dbdaa4f7211e89bf69c2e8676aeb6f3f02c271ce2ddb8d0fb5752e30e")
        assert min(len(inst.quality) for inst in random_instances(100, 1.0, 1.0)) == 2

    def test_random_instances_deterministic(self):
        a = random_instances(5, 1.0, 1.0, seed=77)
        b = random_instances(5, 1.0, 1.0, seed=77)
        assert [i.quality for i in a] == [i.quality for i in b]

    def test_perturbed_pairs_stay_within_sensitivity(self):
        for p in perturbed_neighbor_pairs(50, 0.75, seed=13):
            deviation = max(abs(x - y) for x, y in zip(p.q1.scores, p.q2.scores))
            assert deviation <= 0.75
