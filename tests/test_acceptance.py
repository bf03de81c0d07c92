"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The perturbation sweep (criteria 3, 4, 5, 8) is exactly 100 seeded
runs over S3, Q8, Z6, and the 1-d lattice (window 64, Folner radius 512).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from jensen_stab import (
    BUNDLED_CARRIERS,
    ExperimentConfig,
    FiniteCarrier,
    FiniteTableFn,
    OracleFn,
    ParityNoise,
    bundled_carrier,
    drygas_residual,
    generate_solution,
    jensen_approximant,
    jensen_defect,
    perturb,
    phi_mean_construction,
    run_experiment,
    validate_carrier,
)
from jensen_stab.funcspace import SeededUniformNoise, window_points

TOL = 1e-9
PAPER_CONSTANTS = {
    "eq_2_9": 0.5,
    "eq_2_10": 1.0,
    "eq_2_11": 1.5,
    "eq_2_12": 0.5,
    "eq_2_13": 3.0,
    "eq_2_14": 9.0,
    "eq_2_15": 10.0,
    "eq_2_16": 5.0,
    "eq_2_21": 2.5,
}

EPSILONS = (0.01, 0.1, 1.0)


def _sweep_configs() -> list[ExperimentConfig]:
    configs: list[ExperimentConfig] = []
    for name in ("s3", "q8", "z6"):
        for eps in EPSILONS:
            for seed in range(8):
                configs.append(
                    ExperimentConfig(
                        carrier=name,
                        base_constant=3 + 2j,
                        noise_type="seeded_uniform",
                        noise_amplitude=eps,
                        noise_seed=seed,
                        methods=["mean", "dyadic", "dyadic_full"],
                    )
                )
    for eps in EPSILONS:
        configs.append(
            ExperimentConfig(
                carrier="int1",
                base_constant=5.0,
                base_linear=[2.0],
                noise_type="parity",
                noise_amplitude=eps,
                noise_seed=0,
                methods=["mean", "dyadic", "dyadic_full"],
                folner_k=512,
            )
        )
    for eps in EPSILONS:
        for seed in range(8):
            configs.append(
                ExperimentConfig(
                    carrier="int1",
                    base_constant=5.0,
                    base_linear=[2.0],
                    noise_type="seeded_uniform",
                    noise_amplitude=eps,
                    noise_seed=seed,
                    methods=["mean", "dyadic", "dyadic_full"],
                    folner_k=512,
                )
            )
    configs.append(
        ExperimentConfig(
            carrier="int1",
            base_constant=5.0,
            base_linear=[2.0],
            noise_type="seeded_uniform",
            noise_amplitude=0.1,
            noise_seed=8,
            methods=["mean", "dyadic", "dyadic_full"],
            folner_k=512,
        )
    )
    assert len(configs) == 100
    return configs


@pytest.fixture(scope="module")
def sweep():
    configs = _sweep_configs()
    t0 = time.perf_counter()
    reports = [run_experiment(cfg) for cfg in configs]
    elapsed = time.perf_counter() - t0
    return {"configs": configs, "reports": reports, "elapsed": elapsed}


def test_criterion_1_carrier_axioms():
    t0 = time.perf_counter()
    for name in BUNDLED_CARRIERS:
        assert validate_carrier(bundled_carrier(name)).ok, name

    z6 = bundled_carrier("z6")
    op = z6.op.copy()
    op[4, 2] = (op[4, 2] + 3) % 6
    bad = FiniteCarrier(z6.elements, op, z6.involution, z6.neutral, name="Z6corrupt")
    report = validate_carrier(bad)
    assert not report.ok
    violation = report.violations[0]
    labels = list(bad.elements)
    witness = tuple(labels.index(w) for w in violation.witness)
    if violation.axiom == "associativity":
        x, y, z = witness
        assert bad.compose(bad.compose(x, y), z) != bad.compose(x, bad.compose(y, z))
    else:
        pytest.fail(f"unexpected axiom {violation.axiom}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 carrier axioms: PASS ({elapsed:.3f}s)")


def test_criterion_2_exact_solution_fixed_points():
    t0 = time.perf_counter()
    s3 = bundled_carrier("s3")
    f_s3 = generate_solution(s3, 3 + 2j)
    target_s3 = f_s3.eval_many(window_points(s3)) - f_s3.eval(s3.neutral)
    for method in ("dyadic", "mean", "forti_sikorska"):
        res = jensen_approximant(f_s3, method)
        dev = np.abs(res.g.eval_many(window_points(s3)) - target_s3).max()
        assert dev <= 1e-9, (method, dev)

    z1 = bundled_carrier("int1")
    f_z1 = generate_solution(z1, 5.0, [2.0])
    pts = window_points(z1)
    target_z1 = f_z1.eval_many(pts) - f_z1.eval(z1.neutral)
    for method in ("dyadic", "mean", "forti_sikorska"):
        res = jensen_approximant(f_z1, method, folner_k=512)
        dev = np.abs(res.g.eval_many(pts) - target_z1).max()
        assert dev <= 1e-9, (method, dev)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2 exact-solution fixed points: PASS ({elapsed:.3f}s)")


def test_criterion_3_theorem_bound_sweep(sweep):
    assert len(sweep["reports"]) == 100
    for cfg, report in zip(sweep["configs"], sweep["reports"]):
        assert report["pass"], (cfg.to_dict(), report.get("errors"))
        ver = report["verification"]["mean"]
        st = ver["stability"]
        delta = report["defect"]["delta"]
        assert st["stability_sup"] <= 3.0 * delta + st["error_budget"] + TOL, cfg.to_dict()
    assert sweep["elapsed"] < 120.0
    print(
        f"ACCEPTANCE 3 theorem bound (100 runs, mean method): PASS "
        f"({sweep['elapsed']:.1f}s total)"
    )


def test_criterion_4_sharper_dyadic_bound(sweep):
    for cfg, report in zip(sweep["configs"], sweep["reports"]):
        delta = report["defect"]["delta"]
        ver = report["verification"]["dyadic_full"]
        st = ver["stability"]
        assert st["stability_sup"] <= 1.5 * delta + TOL, cfg.to_dict()
        assert st["sharper_holds"]
        trace = report["stabilization"]["dyadic_full"]["convergence_trace"]
        for i, step in enumerate(trace):
            assert step <= 0.5 ** (i + 1) * 1.5 * delta + 1e-12, (cfg.to_dict(), i, step)
    print("ACCEPTANCE 4 dyadic 3delta/2 bound and telescoping steps: PASS")


def test_criterion_5_inequality_suite(sweep):
    failures = 0
    for cfg, report in zip(sweep["configs"], sweep["reports"]):
        delta = report["defect"]["delta"]
        for record in report["inequalities"]:
            assert record["bound_coeff"] == PAPER_CONSTANTS[record["name"]]
            if record["status"] == "not_evaluated":
                failures += 1
                continue
            bound = record["bound_coeff"] * delta + record["extra_budget"] + TOL
            if record["measured_sup"] > bound:
                failures += 1
    assert failures == 0
    print("ACCEPTANCE 5 intermediate inequality suite (paper constants): PASS (0 failures)")


def test_criterion_6_drygas_verification():
    # exact mean on finite groups
    for name in ("s3", "q8", "z6"):
        c = bundled_carrier(name)
        f = perturb(generate_solution(c, 3 + 2j), "seeded_uniform", 0.1, seed=0)
        phi, _ = phi_mean_construction(f)
        assert drygas_residual(phi) <= 1e-9, name

    z1 = bundled_carrier("int1")
    ks = (64, 128, 256, 512)

    # parity noise: the even noise cancels out of f_odd, phi is exact
    f_parity = OracleFn(z1, [2.0], 5.0, ParityNoise(0.1))
    probe_residuals = []
    for k in ks:
        phi, diag = phi_mean_construction(f_parity, k)
        assert drygas_residual(phi) <= 1e-9
        probe_residuals.append(diag.probe_invariance_residual)
    for a, b in zip(probe_residuals, probe_residuals[1:]):
        ratio = b / a
        assert 0.4 <= ratio <= 0.6, probe_residuals

    # seeded noise keeps a bounded odd part: the Drygas residual decays O(1/k)
    f_seeded = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.1, 11))
    sups = []
    for k in ks:
        phi, _ = phi_mean_construction(f_seeded, k)
        sups.append(drygas_residual(phi))
    ratios = [sups[i + 1] / sups[i] for i in range(len(sups) - 1)]
    for r in ratios:
        assert 0.4 <= r <= 0.6, (sups, ratios)
    print(
        "ACCEPTANCE 6 Drygas verification: PASS "
        f"(finite exact; lattice decay ratios {['%.3f' % r for r in ratios]})"
    )


def test_criterion_7_folner_convergence():
    z1 = bundled_carrier("int1")
    a, eps = 2.0, 0.1
    for k in (64, 256):
        q = OracleFn(z1, [a], 0.0, ParityNoise(eps))
        phi, _ = phi_mean_construction(q, k, assume_odd=True)
        fresh = OracleFn(z1, [a], 0.0, ParityNoise(eps))
        for y in range(-16, 17):
            # independent oracle: brute-force box sum
            total = 0j
            for x in range(-k, k + 1):
                total += fresh.eval(y + x) - fresh.eval(x - y)
            brute = total / (2 * k + 1)
            lib = phi.eval(y)
            assert abs(lib - brute) <= 1e-12
            assert abs(lib / 2 - a * y) <= 2 * eps * (2 * abs(y)) / (2 * k + 1) + 1e-12
    print("ACCEPTANCE 7 Folner convergence vs brute-force box sums: PASS")


def test_criterion_8_uniqueness_as_agreement(sweep):
    for cfg, report in zip(sweep["configs"], sweep["reports"]):
        agr = report["agreement"]
        assert agr["status"] == "ok", cfg.to_dict()
        assert agr["agreement_sup"] <= agr["budget_sum"] + TOL, cfg.to_dict()
    print("ACCEPTANCE 8 uniqueness as cross-method agreement: PASS")


def test_criterion_9_z2_worked_example():
    z2 = bundled_carrier("z2")
    f = FiniteTableFn(z2, [0.0, 1.0])
    report = jensen_defect(f)
    assert abs(report.delta - 2.0) <= 1e-12
    for method in ("mean", "dyadic"):
        res = jensen_approximant(f, method, delta=report.delta)
        assert np.abs(res.g.values).max() <= 1e-12
        assert abs(res.offset) <= 1e-12
        sup = np.abs(f.values - res.g.values - res.offset).max()
        assert abs(sup - 1.0) <= 1e-12
        assert sup <= 3 * report.delta
    print("ACCEPTANCE 9 Z2 worked example (delta=2, g=0, sup=1<=6): PASS")


def test_criterion_10_determinism():
    def canonical(report: dict) -> str:
        data = {k: v for k, v in report.items() if k != "timing"}
        return json.dumps(data, sort_keys=True)

    for cfg in (
        ExperimentConfig(carrier="int1", base_constant=5.0, base_linear=[2.0],
                         noise_type="seeded_uniform", noise_amplitude=0.1, noise_seed=7,
                         methods=["mean", "dyadic", "dyadic_full"], folner_k=256),
        ExperimentConfig(carrier="s3", base_constant=3 + 2j, noise_type="seeded_uniform",
                         noise_amplitude=0.1, noise_seed=7,
                         methods=["mean", "dyadic", "forti_sikorska"]),
    ):
        outputs = []
        for _ in range(2):
            outputs.append(canonical(run_experiment(ExperimentConfig.from_dict(cfg.to_dict()))))
        assert outputs[0] == outputs[1]
    print("ACCEPTANCE 10 byte-identical reports across runs: PASS")
