"""Experiment driver: generation, perturbation, reports, determinism."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from jensen_stab import (
    CapabilityError,
    ExperimentConfig,
    FiniteCarrier,
    FiniteTableFn,
    NonConvergenceError,
    OracleFn,
    bundled_carrier,
    jensen_approximant,
    jensen_defect,
    perturb,
    run_experiment,
)
from jensen_stab import harness, stabilize
from jensen_stab.carrier import NO_MEAN
from jensen_stab.errors import FormatError
from jensen_stab.harness import build_function


def test_generate_solution_examples():
    s3 = bundled_carrier("s3")
    f = s3.exact_solution(3 + 2j)
    assert jensen_defect(f).delta == 0.0

    z2d = bundled_carrier("int2")
    g = z2d.exact_solution(0.0, [1.0, -2.0])
    assert jensen_defect(g).delta <= 1e-12

    z1 = bundled_carrier("int1")
    h = z1.exact_solution(7.0, [0.0])
    assert jensen_defect(h).delta == 0.0


def test_generate_rejects_linear_on_finite():
    s3 = bundled_carrier("s3")
    with pytest.raises(FormatError):
        s3.exact_solution(0.0, [1.0])


def test_perturb_identity_when_zero():
    z1 = bundled_carrier("int1")
    f = z1.exact_solution(5.0, [2.0])
    assert perturb(f, "none", 0.0) is f
    assert perturb(f, "seeded_uniform", 0.0, 3) is f


def test_perturb_bounds_and_defect():
    z1 = bundled_carrier("int1")
    base = z1.exact_solution(5.0, [2.0])
    pts = z1.window_points()

    parity = perturb(base, "parity", 0.1)
    assert np.abs(parity.eval_many(pts) - base.eval_many(pts)).max() <= 0.1 + 1e-12
    assert abs(jensen_defect(parity).delta - 0.4) < 1e-12

    seeded = perturb(base, "seeded_uniform", 0.05, seed=12)
    assert np.abs(seeded.eval_many(pts) - base.eval_many(pts)).max() <= 0.05 + 1e-12
    assert jensen_defect(seeded).delta <= 4 * 0.05 + 1e-9

    s3 = bundled_carrier("s3")
    fin = perturb(s3.exact_solution(1.0), "seeded_uniform", 0.05, seed=12)
    assert jensen_defect(fin).delta <= 0.2 + 1e-12


def test_config_roundtrip():
    cfg = ExperimentConfig(
        carrier="q8",
        base_constant=1 - 2j,
        noise_type="seeded_uniform",
        noise_amplitude=0.1,
        noise_seed=17,
        methods=["mean", "dyadic"],
        folner_k=None,
        component_dim=2,
    )
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_config_rejects_bad_values():
    with pytest.raises(FormatError):
        ExperimentConfig(noise_type="white")
    with pytest.raises(FormatError):
        ExperimentConfig(methods=["newton"])
    with pytest.raises(FormatError):
        ExperimentConfig(component_dim=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"carrier": "s3", "base_constant": "abc"},
        {"carrier": "s3", "base_constant": None},
        {"carrier": "s3", "base_constant": complex("nan")},
        {"carrier": "int1", "base_linear": ["x"]},
        {"carrier": "int1", "base_linear": [float("inf")]},
        {"carrier": "int1", "base_linear": 2.0},
        {"carrier": "int1", "noise_type": "seeded_uniform", "noise_amplitude": 0.1, "noise_seed": 2.5,
         "methods": ["dyadic"]},
        {"carrier": "s3", "noise_seed": True},
        {"carrier": "s3", "noise_seed": "3"},
    ],
)
def test_config_built_in_python_rejects_malformed_fields(kwargs):
    # from_dict parses these fields itself; a config built in Python is checked the same way.
    with pytest.raises(FormatError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("seed", [0, -7, 2**70])
def test_any_integer_is_a_noise_seed(seed):
    cfg = ExperimentConfig(carrier="s3", noise_type="seeded_uniform", noise_amplitude=0.1, noise_seed=seed,
                           methods=["dyadic"])
    assert run_experiment(cfg)["pass"] is True


@pytest.mark.parametrize("powers", [[], [-1], [0], [1, 0, 2], [1024]])
def test_config_rejects_identity_powers_below_one(powers):
    # n < 1 squares nothing, so its power-2^n record would not test the dyadic
    # identity; past n = 1023 its weight 2.0**n overflows
    with pytest.raises(FormatError):
        ExperimentConfig.from_dict({"carrier": "s3", "identity_powers": powers})


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"base": 5},
        {"noise": "loud"},
        {"folner_k": "abc"},
        {"folner_k": 0},
        {"folner_k": 2.5},
        {"folner_k": True},
        {"dyadic_n": "many"},
        {"conv_tol": [1e-10]},
        {"tol": None},
        {"component_dim": "two"},
        {"noise": {"type": "seeded_uniform", "amplitude": "big", "seed": 1}},
        {"noise": {"type": "seeded_uniform", "amplitude": 0.1, "seed": "s"}},
        {"base": {"constant": [1, "a"]}},
        {"base": {"constant": [float("nan"), 0.0]}},
        {"base": {"constant": float("inf")}},
        {"dyadic_n": 0},
        {"dyadic_n": -3},
        {"dyadic_n": True},
        {"identity_powers": [True]},
        {"component_dim": True},
        {"noise": {"type": "seeded_uniform", "amplitude": 0.1, "seed": True}},
        {"identity_powers": 3},
        {"identity_powers": None},
        {"methods": 5},
        {"methods": "mean"},
        {"methods": None},
        {"base": {"linear": 2}},
        {"noise": {"type": "seeded_uniform", "amplitude": "0.1", "seed": 7}},
        {"noise": {"type": "seeded_uniform", "amplitude": 0.1, "seed": " 7 "}},
        {"tol": "1e-3"},
        {"conv_tol": "0"},
        {"component_dim": "2"},
        {"tol": -1.0},
        {"tol": float("inf")},
        {"tol": float("nan")},
        {"conv_tol": -1e-300},
        {"conv_tol": float("inf")},
        {"conv_tol": float("nan")},
        {"noise": {"type": "seeded_uniform", "amplitude": float("nan")}},
        {"noise": {"type": "seeded_uniform", "amplitude": float("inf")}},
        {"noise": {"type": "parity", "amplitude": float("-inf")}},
        {"methods": ["dyadic", "dyadic"]},
        {"noise": {"type": ["parity"], "amplitude": 0.1}},
    ],
)
def test_config_rejects_malformed_values(data):
    if isinstance(data, dict):
        data = {"carrier": "s3", **data}
    with pytest.raises(FormatError):
        ExperimentConfig.from_dict(data)


def _strip_timing(report: dict) -> dict:
    out = copy.deepcopy(report)
    out.pop("timing", None)
    return out


def test_run_experiment_passes_on_bundled_configs():
    configs = [
        ExperimentConfig(carrier="s3", base_constant=3 + 2j, noise_type="seeded_uniform",
                         noise_amplitude=0.1, noise_seed=1,
                         methods=["mean", "dyadic", "dyadic_full", "forti_sikorska"]),
        ExperimentConfig(carrier="z6", base_constant=1.0, noise_type="seeded_uniform",
                         noise_amplitude=1.0, noise_seed=2, methods=["mean", "dyadic"]),
        ExperimentConfig(carrier="int1", base_constant=5.0, base_linear=[2.0],
                         noise_type="parity", noise_amplitude=0.1,
                         methods=["mean", "dyadic", "dyadic_full"], folner_k=512),
    ]
    for cfg in configs:
        report = run_experiment(cfg)
        assert report["pass"], report.get("errors")
        assert report["validation"]["ok"]
        assert all(r["holds"] for r in report["inequalities"])


def test_run_experiment_monoid_capability_stage_error():
    cfg = ExperimentConfig(carrier="m3", base_constant=2.0, noise_type="seeded_uniform",
                           noise_amplitude=0.1, noise_seed=4,
                           methods=["mean", "dyadic", "forti_sikorska"])
    report = run_experiment(cfg)
    stages = [e["stage"] for e in report["errors"]]
    assert "stabilize:mean" in stages
    assert "CapabilityError" in report["errors"][0]["error"]
    # the dyadic and reconstruction methods still verified
    assert set(report["verification"]) == {"dyadic", "forti_sikorska"}
    assert report["agreement"]["status"] == "skipped_no_mean"
    assert report["pass"]


def test_run_experiment_determinism():
    cfg = ExperimentConfig(carrier="int1", base_constant=5.0, base_linear=[2.0],
                           noise_type="seeded_uniform", noise_amplitude=0.1, noise_seed=7,
                           methods=["mean", "dyadic"], folner_k=256)
    r1 = run_experiment(cfg)
    r2 = run_experiment(ExperimentConfig.from_dict(cfg.to_dict()))
    b1 = json.dumps(_strip_timing(r1), sort_keys=True)
    b2 = json.dumps(_strip_timing(r2), sort_keys=True)
    assert b1 == b2


def test_componentwise_matches_scalar_runs():
    vec_cfg = ExperimentConfig(carrier="z6", base_constant=2.0, noise_type="seeded_uniform",
                               noise_amplitude=0.2, noise_seed=30, methods=["mean", "dyadic"],
                               component_dim=3)
    vec_report = run_experiment(vec_cfg)
    assert vec_report["pass"]
    assert len(vec_report["components"]) == 3
    for j in range(3):
        scalar_cfg = ExperimentConfig(carrier="z6", base_constant=2.0, noise_type="seeded_uniform",
                                      noise_amplitude=0.2, noise_seed=30 + j,
                                      methods=["mean", "dyadic"], component_dim=1)
        scalar_report = run_experiment(scalar_cfg)
        vec_comp = copy.deepcopy(vec_report["components"][j])
        scalar_body = {k: scalar_report[k] for k in vec_comp.keys()}
        assert json.dumps(vec_comp, sort_keys=True) == json.dumps(scalar_body, sort_keys=True)
    deltas = [c["defect"]["delta"] for c in vec_report["components"]]
    assert vec_report["vector_summary"]["delta_max"] == max(deltas)


def test_run_experiment_records_carrier_failure():
    cfg = ExperimentConfig(carrier="nope")
    report = run_experiment(cfg)
    assert not report["pass"]
    assert report["errors"][0]["stage"] == "carrier"


@pytest.mark.parametrize(
    "carrier",
    [
        {"kind": "lattice", "dim": None, "window": 8, "folner_max": 16},
        {"kind": "lattice", "dim": "x", "window": 8, "folner_max": 16},
        {"kind": "finite", "elements": ["e", "a"], "neutral": "e", "op": [[0, 1], [1]], "involution": [0, 1]},
    ],
)
def test_run_experiment_records_a_malformed_carrier_dict(carrier):
    report = run_experiment(ExperimentConfig(carrier=carrier))
    assert not report["pass"]
    assert [e["stage"] for e in report["errors"]] == ["carrier"]
    assert report["errors"][0]["error"].startswith("FormatError: ")


def test_run_experiment_on_plane_lattice():
    cfg = ExperimentConfig(carrier="int2", base_constant=1.0, base_linear=[1.0, -2.0],
                           noise_type="seeded_uniform", noise_amplitude=0.05, noise_seed=1,
                           methods=["mean", "dyadic"], folner_k=16)
    report = run_experiment(cfg)
    assert report["pass"], report.get("errors")
    assert report["defect"]["exactness"] == "window_lower_bound"
    assert report["agreement"]["holds"]


def _count_phi_builds(monkeypatch) -> list:
    """Patch both names the program builds phi through; list the builds that returned."""
    calls = []
    for owner in (stabilize, harness):
        def counted(*args, _build=owner.phi_mean_construction, **kwargs):
            built = _build(*args, **kwargs)
            calls.append(args)
            return built

        monkeypatch.setattr(owner, "phi_mean_construction", counted)
    return calls


@pytest.mark.parametrize("carrier, builds", [("s3", 1), ("int1", 1), ("m3", 0)])
def test_phi_is_built_once_per_experiment(monkeypatch, carrier, builds):
    calls = _count_phi_builds(monkeypatch)
    lattice = carrier == "int1"
    cfg = ExperimentConfig(carrier=carrier, base_constant=2.0, base_linear=[1.5] if lattice else None,
                           noise_type="seeded_uniform", noise_amplitude=0.1, noise_seed=3,
                           methods=["mean", "dyadic"], folner_k=64 if lattice else None)
    report = run_experiment(cfg)
    assert len(calls) == builds
    assert report["pass"], report["errors"]


def test_failed_phi_stage_leaves_the_mean_stage_its_own_error(monkeypatch):
    calls = _count_phi_builds(monkeypatch)
    cfg = ExperimentConfig(carrier="int1", base_linear=[1.0], methods=["mean", "dyadic"], folner_k=1024)
    report = run_experiment(cfg)
    assert calls == []
    assert [e["stage"] for e in report["errors"]] == ["phi_construction", "stabilize:mean"]
    assert all("CapabilityError" in e["error"] for e in report["errors"])


@pytest.mark.parametrize("carrier", ["q8", "int1"])
def test_mean_approximant_from_a_prebuilt_phi_is_identical(carrier):
    lattice = carrier == "int1"
    cfg = ExperimentConfig(carrier=carrier, base_constant=1 - 1j, base_linear=[2.0] if lattice else None,
                           noise_type="seeded_uniform", noise_amplitude=0.2, noise_seed=9,
                           folner_k=128 if lattice else None)
    f = build_function(cfg, bundled_carrier(carrier))
    built = stabilize.phi_mean_construction(f, cfg.folner_k)
    shared = jensen_approximant(f, "mean", folner_k=cfg.folner_k, phi=built)
    fresh = jensen_approximant(f, "mean", folner_k=cfg.folner_k)
    assert shared.to_dict() == fresh.to_dict()
    assert np.array_equal(shared.g.values, fresh.g.values)


def test_non_finite_defect_is_a_stage_error():
    # a . x overflows to inf on the window, and inf - inf makes the Jensen residual NaN
    report = run_experiment(ExperimentConfig.from_dict({"carrier": "int1", "base": {"linear": [1e307]}}))
    assert not report["pass"]
    assert "defect" not in report
    [err] = report["errors"]
    assert err["stage"] == "defect"
    assert err["error"].startswith("FormatError: jensen defect is not finite")
    assert "[-64]" in err["error"]
    json.dumps(report, allow_nan=False)


def test_zero_tolerances_are_legal():
    # conv_tol = 0 runs every level alone; on an exact solution the first step is 0, so it converges.
    cfg = ExperimentConfig.from_dict({"carrier": "s3", "tol": 0, "conv_tol": 0, "methods": ["dyadic"]})
    assert (cfg.tol, cfg.conv_tol) == (0.0, 0.0)
    assert run_experiment(cfg)["pass"]


def test_an_orbit_that_meets_the_overflow_guard_is_a_stage_error():
    # Seeded noise along an int1 orbit past 2^62 once overflowed its volume
    # estimate and escaped as a numpy ValueError.
    cfg = ExperimentConfig.from_dict({
        "carrier": "int1", "base": {"linear": [2.0]}, "noise": {"type": "seeded_uniform", "amplitude": 0.1},
        "methods": ["dyadic"], "dyadic_n": 80, "conv_tol": 0,
    })
    report = run_experiment(cfg)
    assert not report["pass"]
    assert report["errors"] == [
        {"stage": "stabilize:dyadic", "error": "LatticeOverflowError: lattice coordinates left the safe integer range"}
    ]


def test_identity_powers_past_the_overflow_guard_check_a_correct_table():
    # Each level keeps only the points whose power stays in g's table, so
    # the neutral point alone is squared on past 2^61; powers in any order.
    cfg = ExperimentConfig.from_dict({
        "carrier": "int1", "base": {"linear": [2.0]}, "noise": {"type": "seeded_uniform", "amplitude": 0.1},
        "methods": ["dyadic"], "identity_powers": [57, 1, 100, 7, 6],
    })
    report = run_experiment(cfg)
    assert report["errors"] == [] and report["pass"]
    records = report["verification"]["dyadic"]["identity_records"][2:]
    assert [(r["name"], r["points_checked"]) for r in records] == [
        ("power_2^57", 1), ("power_2^1", 65), ("power_2^100", 1), ("power_2^7", 1), ("power_2^6", 3),
    ]
    small = run_experiment(dataclasses.replace(cfg, identity_powers=(1, 6)))
    assert small["verification"]["dyadic"]["identity_records"][2:] == [records[1], records[4]]


def test_noise_that_overflows_a_finite_table_is_a_generate_stage_error():
    # Under the suite's error::RuntimeWarning filter a numpy warning would raise here.
    report = run_experiment(ExperimentConfig.from_dict({
        "carrier": "s3", "base": {"constant": 1e308}, "noise": {"type": "seeded_uniform", "amplitude": 1e308},
    }))
    assert report["errors"] == [{"stage": "generate", "error": "FormatError: table values must be finite"}]
    assert report["pass"] is False


def _verdict_clauses(report: dict, cfg: ExperimentConfig) -> dict[str, bool]:
    """The six clauses of ``pass``, read back from the report."""
    ver, agreement = report["verification"], report["agreement"]
    no_mean = harness.resolve_carrier(cfg.carrier).mean_capability == NO_MEAN
    return {
        "suite": bool(report["inequalities"]) and all(r["holds"] for r in report["inequalities"]),
        "methods": bool(ver) and all(v["pass"] for v in ver.values()),
        "requested": all(m in ver or (m == "mean" and no_mean) for m in cfg.methods),
        "agreement": agreement is None or agreement["status"] == "skipped_no_mean" or bool(agreement["holds"]),
        "consistency": report["defect_consistency"]["holds"],
        "errors": all("CapabilityError" in e["error"] for e in report["errors"]),
    }


def _edit(name: str, edit):
    """A patch of harness.<name> that passes its result through edit."""
    def patch(monkeypatch):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *args, **kwargs: edit(real(*args, **kwargs)))
    return patch


def _raise(name: str, exc: Exception):
    """A patch of harness.<name> that raises exc."""
    def patch(monkeypatch):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(harness, name, fail)
    return patch


_Z6 = ExperimentConfig(carrier="z6", base_constant=2.0, noise_type="seeded_uniform", noise_amplitude=0.2,
                       noise_seed=30, methods=["mean", "dyadic"])


@pytest.mark.parametrize(
    "cfg, patch, false_clause",
    [
        pytest.param(_Z6, None, None, id="z6"),
        pytest.param(dataclasses.replace(_Z6, carrier="m3"), None, None, id="m3-mean-and-dyadic"),
        pytest.param(_Z6, _edit("inequality_suite", lambda rs: [dataclasses.replace(rs[0], holds=False), *rs[1:]]),
                     "suite", id="suite-record-fails"),
        pytest.param(_Z6, _raise("inequality_suite", CapabilityError("no suite")), "suite", id="suite-not-run"),
        pytest.param(_Z6, _edit("verify_solution", lambda vs: {m: dataclasses.replace(v, passed=m != "dyadic") for m, v in vs.items()}),
                     "methods", id="method-fails"),
        pytest.param(dataclasses.replace(_Z6, carrier="m3", methods=["mean"]), None, "methods", id="m3-mean-alone"),
        # folner_k past int1's folner_max: mean is refused for capability on a carrier that has a mean.
        pytest.param(ExperimentConfig(carrier="int1", base_linear=[1.0], methods=["mean", "dyadic"], folner_k=1024),
                     None, "requested", id="mean-refused-past-folner-max"),
        pytest.param(_Z6, _edit("method_agreement", lambda a: dataclasses.replace(a, holds=False)), "agreement",
                     id="agreement-fails"),
        pytest.param(_Z6, _edit("jensen_defect", lambda d: dataclasses.replace(d, delta=1.0)), "consistency",
                     id="defect-above-4-eps"),
        pytest.param(_Z6, _raise("method_agreement", NonConvergenceError("no agreement")), "errors",
                     id="non-capability-error"),
    ],
)
def test_each_verdict_clause_alone_fails_the_run(monkeypatch, cfg, patch, false_clause):
    if patch is not None:
        patch(monkeypatch)
    report = run_experiment(cfg)
    clauses = _verdict_clauses(report, cfg)
    assert [name for name, ok in clauses.items() if not ok] == ([] if false_clause is None else [false_clause])
    assert report["pass"] is (false_clause is None)


def _digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(_strip_timing(report), sort_keys=True).encode()).hexdigest()


def test_one_carrier_per_bundled_name_per_process():
    shared = harness.resolve_carrier("q8")
    assert harness.resolve_carrier("Q8") is shared
    assert harness.resolve_carrier("q8") is not bundled_carrier("q8")
    # A carrier dict is built afresh each time.
    spec = {"kind": "lattice", "dim": 1, "window": 8, "folner_max": 16}
    assert harness.resolve_carrier(spec) is not harness.resolve_carrier(spec)


@pytest.mark.parametrize(
    "cfg",
    [
        ExperimentConfig(carrier="q8", base_constant=3 + 2j, noise_type="seeded_uniform", noise_amplitude=0.1,
                         noise_seed=4, methods=["mean", "dyadic", "dyadic_full", "forti_sikorska"]),
        ExperimentConfig(carrier="m3", base_constant=1.0, noise_type="seeded_uniform", noise_amplitude=0.3,
                         noise_seed=5, methods=["mean", "dyadic", "forti_sikorska"]),
        ExperimentConfig(carrier="int1", base_constant=5.0, base_linear=[2.0], noise_type="seeded_uniform",
                         noise_amplitude=0.1, noise_seed=6, methods=["mean", "dyadic", "forti_sikorska"],
                         folner_k=128),
    ],
)
def test_sharing_a_carrier_leaves_reports_unchanged(monkeypatch, cfg):
    shared = [_digest(run_experiment(cfg)) for _ in range(2)]
    monkeypatch.setattr(harness, "resolve_carrier", lambda spec: bundled_carrier(spec))
    assert shared == [_digest(run_experiment(cfg))] * 2


def test_validation_runs_once_per_carrier_and_is_asked_once_per_experiment(monkeypatch):
    c = bundled_carrier("s3")
    bodies, asked = [], []
    validate, body = harness.validate_carrier, FiniteCarrier._validate

    def counted_body(carrier):
        bodies.append(carrier)
        return body(carrier)

    def counted(carrier):
        asked.append(carrier)
        return validate(carrier)

    monkeypatch.setattr(FiniteCarrier, "_validate", counted_body)
    monkeypatch.setattr(harness, "validate_carrier", counted)
    monkeypatch.setattr(harness, "resolve_carrier", lambda spec: c)
    cfg = ExperimentConfig(carrier="s3", methods=["dyadic"])
    reports = [run_experiment(cfg) for _ in range(3)]
    assert bodies == [c] and asked == [c] * 3
    assert all(r["validation"] == reports[0]["validation"] and r["pass"] for r in reports)


def test_a_carrier_that_fails_its_axioms_stops_the_experiment_at_validation():
    # S3 with sigma = id: involutive, but not an anti-homomorphism.
    carrier = {**bundled_carrier("s3").to_dict(), "involution": list(range(6))}
    report = run_experiment(ExperimentConfig(carrier=carrier, methods=["dyadic"]))
    assert report["pass"] is False
    assert report["validation"]["violations"][0]["axiom"] == "anti_homomorphism"
    assert report["errors"] == [{"stage": "validation", "error": "carrier axioms violated"}]
    assert "defect" not in report and "stabilization" not in report
