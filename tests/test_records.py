"""The value-type contract every public record of dpselect keeps: value
equality and hashing within a type, inequality across types, a
Name(field=value, ...) repr, immutability, keyword construction, and
pickle and deepcopy round trips."""

import copy
import pickle

import pytest

from dpselect.audit import AuditReport, PairAudit, UtilityRecord, UtilityReport
from dpselect.core import (
    NeighborPair,
    PrivacyParams,
    ProbabilityTable,
    QualityVector,
    Record,
    ValidatedInstance,
)
from dpselect.errors import NonPositiveEpsilon
from dpselect.mechanisms import SelectionResult
from dpselect.noise import NOISE_FAMILIES, Exponential, Gumbel, Laplace
from dpselect.oracle import GofResult


def _quality(*scores):
    return QualityVector(("a", "b"), scores)


# type -> its fields, in order, each with a value and a second value that
# differs from the first
FIELDS = {
    QualityVector: {"labels": (("a", "b"), ("a", "c")),
                    "scores": ((1.0, 0.0), (1.0, 0.5))},
    PrivacyParams: {"epsilon": (2.0, 1.0), "sensitivity": (1.0, 0.5)},
    ValidatedInstance: {"quality": (_quality(1.0, 0.0), _quality(0.0, 1.0)),
                        "params": (PrivacyParams(2.0, 1.0), PrivacyParams(1.0, 1.0))},
    NeighborPair: {"q1": (_quality(1.0, 0.0), _quality(0.5, 0.0)),
                   "q2": (_quality(0.0, 1.0), _quality(0.0, 0.5))},
    ProbabilityTable: {"labels": (("a", "b"), ("b", "a")),
                       "probabilities": ((0.25, 0.75), (0.5, 0.5)),
                       "provenance": ("exact-closed-form", "quadrature")},
    PairAudit: {"pair_index": (0, 1), "worst_outcome_label": ("a", "b"), "ratio": (1.5, 2.5)},
    AuditReport: {"per_pair": ((PairAudit(0, "a", 1.5),), (PairAudit(0, "b", 1.5),)),
                  "worst_ratio": (1.5, 2.5), "bound": (2.0, 3.0), "passed": (True, False)},
    UtilityRecord: {"instance_id": (0, 1), "expected_error_pf": (0.1, 0.2),
                    "expected_error_em": (0.2, 0.3)},
    UtilityReport: {"per_instance": ((UtilityRecord(0, 0.1, 0.2),), ()),
                    "dominance_violations": (0, 1)},
    SelectionResult: {"index": (0, 1), "label": ("a", "b")},
    GofResult: {"statistic": (1.0, 2.0), "degrees_of_freedom": (1, 2), "p_value": (0.5, 0.25),
                "passed": (True, False), "detectable_divergence": (0.1, None)},
    Exponential: {},
    Laplace: {},
    Gumbel: {},
}
TYPES = list(FIELDS)
NAME = lambda cls: cls.__name__  # noqa: E731


def build(cls, **changes):
    """A fresh record of cls from its first values, by keyword, with the
    given fields changed."""
    return cls(**{**{name: values[0] for name, values in FIELDS[cls].items()}, **changes})


def test_all_fourteen_public_types_are_covered():
    assert len(TYPES) == 14


@pytest.mark.parametrize("cls", TYPES, ids=NAME)
def test_equal_fields_give_equal_records_with_equal_hashes(cls):
    a, b = build(cls), build(cls)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, field", [(cls, field) for cls in TYPES for field in FIELDS[cls]],
                         ids=lambda v: v if isinstance(v, str) else NAME(v))
def test_records_differing_in_one_field_are_unequal(cls, field):
    a, b = build(cls), build(cls, **{field: FIELDS[cls][field][1]})
    assert a != b and not a == b


def test_records_of_different_types_are_unequal():
    records = [build(cls) for cls in TYPES]
    for i, a in enumerate(records):
        for j, b in enumerate(records):
            assert (a == b) is (i == j)
        assert a != tuple(FIELDS[type(a)][name][0] for name in FIELDS[type(a)])


@pytest.mark.parametrize("cls", TYPES, ids=NAME)
def test_repr_names_the_type_and_each_field_in_order(cls):
    fields = ", ".join(f"{name}={values[0]!r}" for name, values in FIELDS[cls].items())
    assert repr(build(cls)) == f"{cls.__name__}({fields})"


def test_repr_of_nested_records():
    assert repr(PrivacyParams(epsilon=2.0, sensitivity=1.0)) == (
        "PrivacyParams(epsilon=2.0, sensitivity=1.0)")
    assert repr(build(UtilityReport)) == (
        "UtilityReport(per_instance=(UtilityRecord(instance_id=0, expected_error_pf=0.1, "
        "expected_error_em=0.2),), dominance_violations=0)")
    assert repr(Laplace()) == "Laplace()"


@pytest.mark.parametrize("cls", TYPES, ids=NAME)
def test_assigning_or_deleting_a_field_raises(cls):
    record = build(cls)
    for name, (first, second) in FIELDS[cls].items():
        with pytest.raises(AttributeError):
            setattr(record, name, second)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == first
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert record == build(cls)


@pytest.mark.parametrize("cls", TYPES, ids=NAME)
def test_keyword_and_positional_construction_agree(cls):
    positional = cls(*(values[0] for values in FIELDS[cls].values()))
    assert positional == build(cls)
    for name, values in FIELDS[cls].items():
        assert getattr(positional, name) == values[0]


def test_readme_keyword_construction():
    params = PrivacyParams(epsilon=2.0, sensitivity=1.0)
    assert (params.epsilon, params.sensitivity, params.rate) == (2.0, 1.0, 1.0)


@pytest.mark.parametrize("cls", TYPES, ids=NAME)
def test_pickle_and_deepcopy_round_trip(cls):
    record = build(cls)
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is cls
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == repr(record)


def test_noise_families_compare_equal_by_type():
    assert NOISE_FAMILIES == {"exponential": Exponential(), "laplace": Laplace(),
                              "gumbel": Gumbel()}
    for family in NOISE_FAMILIES:
        assert NOISE_FAMILIES[family] == {"exponential": Exponential(), "laplace": Laplace(),
                                          "gumbel": Gumbel()}[family]


def test_as_dict_converts_nested_records_and_keeps_the_rest():
    assert build(UtilityReport).as_dict() == {
        "per_instance": ({"instance_id": 0, "expected_error_pf": 0.1,
                          "expected_error_em": 0.2},),
        "dominance_violations": 0}
    pair = build(NeighborPair).as_dict()
    assert pair == {"q1": {"labels": ("a", "b"), "scores": (1.0, 0.0)},
                    "q2": {"labels": ("a", "b"), "scores": (0.0, 1.0)}}
    assert build(GofResult).as_dict() == {name: values[0]
                                          for name, values in FIELDS[GofResult].items()}
    assert Gumbel().as_dict() == {}


@pytest.mark.parametrize("cls", TYPES, ids=NAME)
def test_fields_and_vars_name_the_fields_in_order(cls):
    record = build(cls)
    assert cls._fields == tuple(FIELDS[cls])
    assert list(vars(record).items()) == [(name, values[0])
                                          for name, values in FIELDS[cls].items()]


def test_the_base_is_a_record_without_fields():
    record = Record()
    assert Record._fields == () and vars(record) == {}
    assert record == Record() and hash(record) == hash(Record())
    assert record != Exponential() and Exponential() != record
    assert repr(record) == "Record()" and record.as_dict() == {}
    with pytest.raises(AttributeError):
        record.field = 1
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is Record and twin == record


def test_replace_by_vars_reruns_the_checks():
    params = PrivacyParams(epsilon=2.0, sensitivity=1.0)
    assert type(params)(**{**vars(params), "epsilon": 1}) == PrivacyParams(1.0, 1.0)
    with pytest.raises(NonPositiveEpsilon):
        type(params)(**{**vars(params), "epsilon": 0.0})
