"""JSON file formats: loaders for the command line's inputs (quality
vectors, neighbor-pair batches) and one writer for its outputs (distribution
tables, audit and utility reports, each a dict).

Structural problems in input files raise MalformedInputFile; domain
invariants (duplicate labels, non-finite scores, ...) surface as their own
error types from the core constructors.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .core import NeighborPair, QualityVector
from .errors import MalformedInputFile


def _load_json(path: str | Path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInputFile(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInputFile(f"{path} is not valid JSON: {exc}") from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedInputFile(message)


# JSON true/false are not numbers
_ITEM_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "list": lambda v: isinstance(v, list),
}


def _object(obj: Any, what: str, fields: dict[str, str]) -> None:
    """Require obj to be a JSON object holding each named field with a
    value of its _ITEM_CHECKS kind."""
    _require(isinstance(obj, dict), f"{what} must be a JSON object")
    for field, kind in fields.items():
        _require(field in obj, f'{what} needs a "{field}" field')
        _require(_ITEM_CHECKS[kind](obj[field]), f'{what}: "{field}" must be of type {kind}')


def _list_of(kind: str, obj: dict, field: str) -> list:
    """obj[field], required to be a JSON list of values of one kind."""
    value = obj[field]
    _require(isinstance(value, list) and all(map(_ITEM_CHECKS[kind], value)),
             f'"{field}" must be a list of {kind}s')
    return value


def quality_vector_from_dict(obj: Any) -> QualityVector:
    _object(obj, "quality vector", {"labels": "list", "scores": "list"})
    labels = _list_of("string", obj, "labels")
    scores = _list_of("number", obj, "scores")
    return QualityVector(tuple(labels), tuple(scores))


def load_quality_vector(path: str | Path) -> QualityVector:
    return quality_vector_from_dict(_load_json(path))


def neighbor_pairs_from_dict(obj: Any) -> list[NeighborPair]:
    _object(obj, "neighbor-pairs file", {"pairs": "list"})
    pairs = []
    for i, entry in enumerate(obj["pairs"]):
        _require(isinstance(entry, dict) and "q1" in entry and "q2" in entry,
                 f'pair {i} needs "q1" and "q2" quality-vector objects')
        pairs.append(NeighborPair(quality_vector_from_dict(entry["q1"]),
                                  quality_vector_from_dict(entry["q2"])))
    return pairs


def load_neighbor_pairs(path: str | Path) -> list[NeighborPair]:
    return neighbor_pairs_from_dict(_load_json(path))


def write_json(record: dict, path: str | Path) -> None:
    """Write a dict, e.g. the as_dict() of a table or report, as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
