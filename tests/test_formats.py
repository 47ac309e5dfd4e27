import json

import pytest

from dpselect import (
    NeighborPair,
    PrivacyParams,
    QualityVector,
    dominance_check,
    em_exact_distribution,
    privacy_ratio_audit,
)
from dpselect.errors import DuplicateLabel, MalformedInputFile, NonFiniteScore
from dpselect import formats

from helpers import make_instance


@pytest.fixture
def qv():
    return QualityVector(("a", "b"), (1.0, 0.0))


class TestQualityVectorFiles:
    def test_round_trip(self, qv, tmp_path):
        path = tmp_path / "scores.json"
        formats.write_quality_vector(qv, path)
        assert formats.load_quality_vector(path) == qv

    def test_exact_field_names(self, qv, tmp_path):
        path = tmp_path / "scores.json"
        formats.write_quality_vector(qv, path)
        raw = json.loads(path.read_text())
        assert set(raw) == {"labels", "scores"}

    @pytest.mark.parametrize(
        "payload",
        [
            "not an object",
            {"labels": ["a"]},
            {"scores": [1.0]},
            {"labels": "a", "scores": [1.0]},
            {"labels": ["a"], "scores": ["high"]},
            {"labels": [1], "scores": [1.0]},
            {"labels": ["a"], "scores": [True]},
            {"labels": ["a"], "scores": 1.0},
        ],
    )
    def test_malformed_rejected(self, payload):
        with pytest.raises(MalformedInputFile):
            formats.quality_vector_from_dict(payload)

    def test_domain_errors_propagate(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"labels": ["a", "a"], "scores": [0.0, 1.0]}')
        with pytest.raises(DuplicateLabel):
            formats.load_quality_vector(path)
        path.write_text('{"labels": ["a"], "scores": [1e999]}')
        with pytest.raises(NonFiniteScore):
            formats.load_quality_vector(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(MalformedInputFile):
            formats.load_quality_vector(tmp_path / "missing.json")
        bad = tmp_path / "trunc.json"
        bad.write_text('{"labels": [')
        with pytest.raises(MalformedInputFile):
            formats.load_quality_vector(bad)


class TestNeighborPairFiles:
    def test_round_trip(self, qv, tmp_path):
        pairs = [NeighborPair(qv, QualityVector(("a", "b"), (0.5, 0.5)))]
        path = tmp_path / "pairs.json"
        formats.write_neighbor_pairs(pairs, path)
        assert formats.load_neighbor_pairs(path) == pairs

    def test_schema(self, qv, tmp_path):
        pairs = [NeighborPair(qv, qv)]
        path = tmp_path / "pairs.json"
        formats.write_neighbor_pairs(pairs, path)
        raw = json.loads(path.read_text())
        assert set(raw) == {"pairs"}
        assert set(raw["pairs"][0]) == {"q1", "q2"}

    @pytest.mark.parametrize(
        "payload",
        [{}, {"pairs": "x"}, {"pairs": [{"q1": {"labels": ["a"], "scores": [0.0]}}]}],
    )
    def test_malformed_rejected(self, payload):
        with pytest.raises(MalformedInputFile):
            formats.neighbor_pairs_from_dict(payload)


class TestProbabilityTableFiles:
    def test_round_trip_full_precision(self, tmp_path):
        table = em_exact_distribution(make_instance([1.0, 0.0], epsilon=2.0))
        path = tmp_path / "dist.json"
        formats.write_probability_table(table, path)
        loaded = formats.load_probability_table(path)
        assert loaded == table  # bit-exact probabilities survive the file

    def test_provenance_field_present(self, tmp_path):
        table = em_exact_distribution(make_instance([1.0, 0.0]))
        path = tmp_path / "dist.json"
        formats.write_probability_table(table, path)
        raw = json.loads(path.read_text())
        assert set(raw) == {"labels", "probabilities", "provenance"}
        assert raw["provenance"] == "exact-closed-form"

    def test_missing_field_rejected(self):
        with pytest.raises(MalformedInputFile):
            formats.probability_table_from_dict({"labels": ["a"], "probabilities": [1.0]})

    @pytest.mark.parametrize(
        "labels,probabilities",
        [
            ("ab", [0.5, 0.5]),
            ([1, 2], [0.5, 0.5]),
            (["a", "b"], [True, False]),
            (["a", "b"], ["0.5", "0.5"]),
            (["a", "b"], 0.5),
            (["a", "b"], {"a": 0.5, "b": 0.5}),
        ],
    )
    def test_malformed_rejected(self, labels, probabilities):
        payload = {"labels": labels, "probabilities": probabilities, "provenance": "x"}
        with pytest.raises(MalformedInputFile):
            formats.probability_table_from_dict(payload)


class TestReportFiles:
    def test_audit_report_round_trip(self, qv, tmp_path):
        report = privacy_ratio_audit(
            "em",
            [NeighborPair(qv, QualityVector(("a", "b"), (0.0, 1.0)))],
            PrivacyParams(2.0, 1.0),
        )
        path = tmp_path / "audit.json"
        formats.write_audit_report(report, path)
        assert formats.load_audit_report(path) == report
        raw = json.loads(path.read_text())
        assert set(raw) == {"bound", "worst_ratio", "pass", "per_pair"}

    def test_utility_report_round_trip(self, tmp_path):
        report = dominance_check([make_instance([1.0, 0.0], epsilon=2.0)])
        path = tmp_path / "utility.json"
        formats.write_utility_report(report, path)
        assert formats.load_utility_report(path) == report
        raw = json.loads(path.read_text())
        assert set(raw) == {"per_instance", "dominance_violations"}

    AUDIT = {"bound": 2, "worst_ratio": 1.5, "pass": True,
             "per_pair": [{"pair_index": 0, "worst_outcome_label": "a", "ratio": 1.5}]}
    UTILITY = {"per_instance": [{"instance_id": 0, "expected_error_pf": 0.1,
                                 "expected_error_em": 0.2}],
               "dominance_violations": 0}

    @staticmethod
    def altered(report, entry=None, **changes):
        """A copy of report with top-level fields (or, given entry, the
        fields of that per-entry list's first object) replaced; a value of
        None deletes the field."""
        report = json.loads(json.dumps(report))
        target = report[entry][0] if entry else report
        for field, value in changes.items():
            if value is None:
                del target[field]
            else:
                target[field] = value
        return report

    def test_well_formed_reports_load(self):
        assert formats.audit_report_from_dict(self.AUDIT).passed is True
        assert formats.utility_report_from_dict(self.UTILITY).dominance_violations == 0

    @pytest.mark.parametrize(
        "changes",
        [
            {"pass": "false"},
            {"pass": 0},
            {"pass": None},
            {"bound": "2"},
            {"worst_ratio": True},
            {"per_pair": 5},
            {"per_pair": [5]},
            {"entry": "per_pair", "pair_index": None},
            {"entry": "per_pair", "pair_index": 1.0},
            {"entry": "per_pair", "pair_index": True},
            {"entry": "per_pair", "worst_outcome_label": 3},
            {"entry": "per_pair", "ratio": "1.5"},
        ],
    )
    def test_malformed_audit_report_rejected(self, changes):
        with pytest.raises(MalformedInputFile):
            formats.audit_report_from_dict(self.altered(self.AUDIT, **changes))

    @pytest.mark.parametrize(
        "changes",
        [
            {"dominance_violations": "3"},
            {"dominance_violations": 1.7},
            {"dominance_violations": False},
            {"dominance_violations": None},
            {"per_instance": {}},
            {"per_instance": ["x"]},
            {"entry": "per_instance", "instance_id": "0"},
            {"entry": "per_instance", "instance_id": 0.5},
            {"entry": "per_instance", "expected_error_pf": None},
            {"entry": "per_instance", "expected_error_em": [0.2]},
        ],
    )
    def test_malformed_utility_report_rejected(self, changes):
        with pytest.raises(MalformedInputFile):
            formats.utility_report_from_dict(self.altered(self.UTILITY, **changes))
