"""JSON file formats for quality vectors, neighbor-pair batches,
distribution tables, and the audit/utility reports.

Every writer here has a matching loader, and everything the command line
emits round-trips through these parsers. Structural problems in input
files raise MalformedInputFile; domain invariants (duplicate labels,
non-finite scores, ...) surface as their own error types from the core
constructors.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .audit import AuditReport, PairAudit, UtilityRecord, UtilityReport
from .core import NeighborPair, ProbabilityTable, QualityVector
from .errors import MalformedInputFile


def _load_json(path: str | Path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInputFile(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInputFile(f"{path} is not valid JSON: {exc}") from exc


def _write_json(obj: Any, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedInputFile(message)


_ITEM_CHECKS = {
    "strings": lambda v: isinstance(v, str),
    "numbers": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


def _list_of(kind: str, obj: dict, field: str) -> list:
    """obj[field], required to be a JSON list of strings or of numbers
    (JSON true/false are not numbers)."""
    value = obj[field]
    _require(isinstance(value, list) and all(map(_ITEM_CHECKS[kind], value)),
             f'"{field}" must be a list of {kind}')
    return value


def quality_vector_from_dict(obj: Any) -> QualityVector:
    _require(isinstance(obj, dict), "quality vector must be a JSON object")
    _require("labels" in obj and "scores" in obj,
             'quality vector needs "labels" and "scores" fields')
    labels = _list_of("strings", obj, "labels")
    scores = _list_of("numbers", obj, "scores")
    return QualityVector(tuple(labels), tuple(float(s) for s in scores))


def quality_vector_to_dict(qv: QualityVector) -> dict:
    return {"labels": list(qv.labels), "scores": list(qv.scores)}


def load_quality_vector(path: str | Path) -> QualityVector:
    return quality_vector_from_dict(_load_json(path))


def write_quality_vector(qv: QualityVector, path: str | Path) -> None:
    _write_json(quality_vector_to_dict(qv), path)


def neighbor_pairs_from_dict(obj: Any) -> list[NeighborPair]:
    _require(isinstance(obj, dict) and "pairs" in obj,
             'neighbor-pairs file needs a "pairs" field')
    _require(isinstance(obj["pairs"], list), '"pairs" must be a list')
    pairs = []
    for i, entry in enumerate(obj["pairs"]):
        _require(isinstance(entry, dict) and "q1" in entry and "q2" in entry,
                 f'pair {i} needs "q1" and "q2" quality-vector objects')
        pairs.append(
            NeighborPair(
                quality_vector_from_dict(entry["q1"]),
                quality_vector_from_dict(entry["q2"]),
            )
        )
    return pairs


def neighbor_pairs_to_dict(pairs: list[NeighborPair]) -> dict:
    return {
        "pairs": [
            {"q1": quality_vector_to_dict(p.q1), "q2": quality_vector_to_dict(p.q2)}
            for p in pairs
        ]
    }


def load_neighbor_pairs(path: str | Path) -> list[NeighborPair]:
    return neighbor_pairs_from_dict(_load_json(path))


def write_neighbor_pairs(pairs: list[NeighborPair], path: str | Path) -> None:
    _write_json(neighbor_pairs_to_dict(pairs), path)


def probability_table_from_dict(obj: Any) -> ProbabilityTable:
    _require(isinstance(obj, dict), "distribution table must be a JSON object")
    for field in ("labels", "probabilities", "provenance"):
        _require(field in obj, f'distribution table needs a "{field}" field')
    _require(isinstance(obj["provenance"], str), '"provenance" must be a string')
    labels = _list_of("strings", obj, "labels")
    probabilities = _list_of("numbers", obj, "probabilities")
    return ProbabilityTable(
        tuple(labels), tuple(float(p) for p in probabilities), obj["provenance"]
    )


def probability_table_to_dict(table: ProbabilityTable) -> dict:
    return {
        "labels": list(table.labels),
        "probabilities": list(table.probabilities),
        "provenance": table.provenance,
    }


def load_probability_table(path: str | Path) -> ProbabilityTable:
    return probability_table_from_dict(_load_json(path))


def write_probability_table(table: ProbabilityTable, path: str | Path) -> None:
    _write_json(probability_table_to_dict(table), path)


def audit_report_to_dict(report: AuditReport) -> dict:
    return {
        "bound": report.bound,
        "worst_ratio": report.worst_ratio,
        "pass": report.passed,
        "per_pair": [
            {
                "pair_index": r.pair_index,
                "worst_outcome_label": r.worst_outcome_label,
                "ratio": r.ratio,
            }
            for r in report.per_pair
        ],
    }


def audit_report_from_dict(obj: Any) -> AuditReport:
    _require(isinstance(obj, dict), "audit report must be a JSON object")
    for field in ("bound", "worst_ratio", "pass", "per_pair"):
        _require(field in obj, f'audit report needs a "{field}" field')
    per_pair = tuple(
        PairAudit(int(r["pair_index"]), str(r["worst_outcome_label"]), float(r["ratio"]))
        for r in obj["per_pair"]
    )
    return AuditReport(
        per_pair=per_pair,
        worst_ratio=float(obj["worst_ratio"]),
        bound=float(obj["bound"]),
        passed=bool(obj["pass"]),
    )


def load_audit_report(path: str | Path) -> AuditReport:
    return audit_report_from_dict(_load_json(path))


def write_audit_report(report: AuditReport, path: str | Path) -> None:
    _write_json(audit_report_to_dict(report), path)


def utility_report_to_dict(report: UtilityReport) -> dict:
    return {
        "per_instance": [
            {
                "instance_id": r.instance_id,
                "expected_error_pf": r.expected_error_pf,
                "expected_error_em": r.expected_error_em,
            }
            for r in report.per_instance
        ],
        "dominance_violations": report.dominance_violations,
    }


def utility_report_from_dict(obj: Any) -> UtilityReport:
    _require(isinstance(obj, dict), "utility report must be a JSON object")
    for field in ("per_instance", "dominance_violations"):
        _require(field in obj, f'utility report needs a "{field}" field')
    records = tuple(
        UtilityRecord(
            int(r["instance_id"]),
            float(r["expected_error_pf"]),
            float(r["expected_error_em"]),
        )
        for r in obj["per_instance"]
    )
    return UtilityReport(
        per_instance=records,
        dominance_violations=int(obj["dominance_violations"]),
    )


def load_utility_report(path: str | Path) -> UtilityReport:
    return utility_report_from_dict(_load_json(path))


def write_utility_report(report: UtilityReport, path: str | Path) -> None:
    _write_json(utility_report_to_dict(report), path)
