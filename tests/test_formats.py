import json
from dataclasses import asdict

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
        formats.write_json(asdict(table), path)
        raw = json.loads(path.read_text())
        assert tuple(raw["probabilities"]) == table.probabilities  # bit-exact in the file

    def test_provenance_field_present(self, tmp_path):
        table = em_exact_distribution(make_instance([1.0, 0.0]))
        path = tmp_path / "dist.json"
        formats.write_json(asdict(table), path)
        raw = json.loads(path.read_text())
        assert set(raw) == {"labels", "probabilities", "provenance"}
        assert raw["provenance"] == "exact-closed-form"


class TestReportFiles:
    def test_audit_report_written_in_full(self, qv, tmp_path):
        report = privacy_ratio_audit(
            "em",
            [NeighborPair(qv, QualityVector(("a", "b"), (0.0, 1.0)))],
            PrivacyParams(2.0, 1.0),
        )
        path = tmp_path / "audit.json"
        formats.write_json(formats.audit_report_to_dict(report), path)
        raw = json.loads(path.read_text())
        assert raw == formats.audit_report_to_dict(report)
        assert set(raw) == {"bound", "worst_ratio", "pass", "per_pair"}

    def test_utility_report_written_in_full(self, tmp_path):
        report = dominance_check([make_instance([1.0, 0.0], epsilon=2.0)])
        path = tmp_path / "utility.json"
        formats.write_json(asdict(report), path)
        raw = json.loads(path.read_text())
        assert raw == json.loads(json.dumps(asdict(report)))
        assert set(raw) == {"per_instance", "dominance_violations"}
