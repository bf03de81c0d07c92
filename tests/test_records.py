"""The one serializer of report records: keys, value forms and coverage."""

from __future__ import annotations

import dataclasses
import inspect
import json

import pytest

from jensen_stab import (
    FiniteCarrier,
    OracleFn,
    SeededUniformNoise,
    bundled_carrier,
    dyadic_limit,
    folner_mean,
    inequality_suite,
    jensen_approximant,
    jensen_defect,
    method_agreement,
    perturb,
    phi_mean_construction,
    validate_carrier,
    verify_solution,
)
from jensen_stab import carrier, defect, funcspace, harness, records, stabilize, verify
from jensen_stab.records import Record

RECORD_CLASSES = {
    "AxiomViolation", "ValidationReport", "DefectReport", "InequalityRecord",
    "DyadicTrace", "MeanValue", "PhiDiagnostics", "StabilizationResult",
    "StabilityCheck", "IdentityRecord", "AgreementReport", "VerificationReport",
}
# The report keys that differ from field names: (class, field) -> key, None if left out.
KEYS = {("VerificationReport", "passed"): "pass", ("StabilizationResult", "g"): None}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _package_records():
    return {cls for cls in _subclasses(Record) if cls.__module__.startswith("jensen_stab.")}


def _instances():
    """At least one instance of every record class, from real constructions."""
    q8 = bundled_carrier("q8")
    f = perturb(q8.exact_solution(1 + 2j), "seeded_uniform", 0.1, seed=3)
    d = jensen_defect(f)
    phi, diag = phi_mean_construction(f)
    out = [d, diag, *inequality_suite(f, phi=(phi, diag), delta=d.delta)]
    results = {m: jensen_approximant(f, m, delta=d.delta, phi=(phi, diag)) for m in stabilize.METHODS}
    out += results.values()
    rep = verify_solution(f, {"mean": results["mean"]}, phi=(phi, diag))["mean"]
    out += [rep, rep.stability, *rep.identity_records]
    out.append(method_agreement(results["mean"], results["dyadic"]))
    z1 = bundled_carrier("int1")
    g = OracleFn(z1, [1.5 - 0.5j], 2j, SeededUniformNoise(0.1, 4))
    out += [dyadic_limit(g, 3)[1], folner_mean(g, 8), jensen_defect(g), validate_carrier(z1)]
    z6 = bundled_carrier("z6")
    op = z6.op.copy()
    op[2, 3] = (op[2, 3] + 1) % 6
    broken = validate_carrier(FiniteCarrier(z6.elements, op, z6.involution, z6.neutral))
    out += [broken, *broken.violations]
    return out


INSTANCES = _instances()


def _id(record):
    return type(record).__name__


def test_the_record_classes_are_the_report_dataclasses():
    assert {cls.__name__ for cls in _package_records()} == RECORD_CLASSES
    assert {type(r).__name__ for r in INSTANCES} == RECORD_CLASSES


def test_no_report_dataclass_writes_its_own_dict():
    # ExperimentConfig, carriers and noises are file formats with their own shapes.
    for module in (carrier, defect, stabilize, verify, harness, records):
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls) and name != "ExperimentConfig":
                assert "to_dict" not in vars(cls), name
    for cls in _package_records():
        assert "to_dict" not in vars(cls), cls.__name__


@pytest.mark.parametrize("record", INSTANCES, ids=_id)
def test_keys_are_the_field_names(record):
    name = type(record).__name__
    want = [KEYS.get((name, f.name), f.name) for f in dataclasses.fields(record)]
    assert sorted(record.to_dict()) == sorted(key for key in want if key is not None)


def _assert_written(value, written):
    if isinstance(value, complex):
        assert written == [value.real, value.imag]
        assert all(type(x) is float for x in written)
    elif isinstance(value, (list, tuple)):
        assert type(written) is list and len(written) == len(value)
        for v, w in zip(value, written):
            _assert_written(v, w)
    elif isinstance(value, Record):
        assert written == value.to_dict()
    else:
        assert written == value


@pytest.mark.parametrize("record", INSTANCES, ids=_id)
def test_values_are_json_values(record):
    out = record.to_dict()
    # A tuple or a complex number left in the dict would not survive the round trip.
    assert json.loads(json.dumps(out)) == out
    name = type(record).__name__
    for f in dataclasses.fields(record):
        key = KEYS.get((name, f.name), f.name)
        if key is not None:
            _assert_written(getattr(record, f.name), out[key])


def test_complex_lists_tuples_and_nested_records():
    trace = stabilize.DyadicTrace([1 + 2j, -0.5 + 0j], [0.25], 1)
    assert trace.to_dict() == {"values": [[1.0, 2.0], [-0.5, 0.0]], "diffs": [0.25], "n_final": 1}
    d = defect.DefectReport("jensen", 0.5, ((1, -2), (3, 4)), 9, "lower_bound")
    assert d.to_dict()["witness"] == [[1, -2], [3, 4]]
    v = carrier.AxiomViolation("neutral", ("a", "b"), "no element acts")
    report = carrier.ValidationReport(False, "finite", 2, None, [v])
    assert report.to_dict()["violations"] == [{"axiom": "neutral", "witness": ["a", "b"], "detail": "no element acts"}]


def test_renamed_and_left_out_fields():
    rep = next(r for r in INSTANCES if isinstance(r, verify.VerificationReport))
    out = rep.to_dict()
    assert out["pass"] is rep.passed and "passed" not in out
    res = next(r for r in INSTANCES if isinstance(r, stabilize.StabilizationResult))
    out = res.to_dict()
    assert "g" not in out and out["offset"] == [res.offset.real, res.offset.imag]


def test_one_complex_format():
    assert records._parse_cnum(records._cpair(1.5 - 2j), "z") == 1.5 - 2j
    assert funcspace._cpair is records._cpair
    assert funcspace._parse_cnum is records._parse_cnum
