"""Experiment driver: generation, perturbation, reports, determinism."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from jensen_stab import (
    ExperimentConfig,
    FiniteTableFn,
    OracleFn,
    bundled_carrier,
    generate_solution,
    jensen_defect,
    perturb,
    run_experiment,
)
from jensen_stab.errors import FormatError
from jensen_stab.funcspace import window_points


def test_generate_solution_examples():
    s3 = bundled_carrier("s3")
    f = generate_solution(s3, 3 + 2j)
    assert jensen_defect(f).delta == 0.0

    z2d = bundled_carrier("int2")
    g = generate_solution(z2d, 0.0, [1.0, -2.0])
    assert jensen_defect(g).delta <= 1e-12

    z1 = bundled_carrier("int1")
    h = generate_solution(z1, 7.0, [0.0])
    assert jensen_defect(h).delta == 0.0


def test_generate_rejects_linear_on_finite():
    s3 = bundled_carrier("s3")
    with pytest.raises(FormatError):
        generate_solution(s3, 0.0, [1.0])


def test_perturb_identity_when_zero():
    z1 = bundled_carrier("int1")
    f = generate_solution(z1, 5.0, [2.0])
    assert perturb(f, "none", 0.0) is f
    assert perturb(f, "seeded_uniform", 0.0, 3) is f


def test_perturb_bounds_and_defect():
    z1 = bundled_carrier("int1")
    base = generate_solution(z1, 5.0, [2.0])
    pts = window_points(z1)

    parity = perturb(base, "parity", 0.1)
    assert np.abs(parity.eval_many(pts) - base.eval_many(pts)).max() <= 0.1 + 1e-12
    assert abs(jensen_defect(parity).delta - 0.4) < 1e-12

    seeded = perturb(base, "seeded_uniform", 0.05, seed=12)
    assert np.abs(seeded.eval_many(pts) - base.eval_many(pts)).max() <= 0.05 + 1e-12
    assert jensen_defect(seeded).delta <= 4 * 0.05 + 1e-9

    s3 = bundled_carrier("s3")
    fin = perturb(generate_solution(s3, 1.0), "seeded_uniform", 0.05, seed=12)
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


@pytest.mark.parametrize("powers", [[], [-1], [0], [1, 0, 2]])
def test_config_rejects_identity_powers_below_one(powers):
    # n < 1 squares nothing, so its power-2^n record would not test the dyadic identity
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


def test_run_experiment_on_plane_lattice():
    cfg = ExperimentConfig(carrier="int2", base_constant=1.0, base_linear=[1.0, -2.0],
                           noise_type="seeded_uniform", noise_amplitude=0.05, noise_seed=1,
                           methods=["mean", "dyadic"], folner_k=16)
    report = run_experiment(cfg)
    assert report["pass"], report.get("errors")
    assert report["defect"]["exactness"] == "window_lower_bound"
    assert report["agreement"]["holds"]
