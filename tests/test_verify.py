"""Residuals of constructed solutions, stability bounds, identities."""

from __future__ import annotations

import numpy as np

from jensen_stab import (
    FiniteTableFn,
    LatticeCarrier,
    LatticeTableFn,
    OracleFn,
    ParityNoise,
    SeededUniformNoise,
    bundled_carrier,
    drygas_defect,
    identity_checks,
    jensen_approximant,
    jensen_defect,
    method_agreement,
    perturb,
    phi_mean_construction,
    stability_bound_check,
    verify_solution,
)
from jensen_stab.defect import jensen_defect as _jd


def test_jensen_residual_examples():
    z1 = bundled_carrier("int1")
    assert jensen_defect(OracleFn(z1, [1.5], 0.0)).delta == 0.0
    assert jensen_defect(OracleFn(z1, None, 4.0)).delta == 0.0

    small = LatticeCarrier(dim=1, window_radius=8, folner_max=16)
    pts = small.window_points()
    quad = LatticeTableFn(small, np.array([x * x for (x,) in pts], dtype=np.complex128))
    # (x+y)^2 + (x-y)^2 - 2x^2 = 2y^2; restricted to in-window products the
    # supremum is 2 N^2, attained at x = 0, y = +-N
    brute = 0.0
    for x in range(-8, 9):
        for y in range(-8, 9):
            if abs(x + y) <= 8 and abs(x - y) <= 8:
                r = abs(quad.eval(x + y) + quad.eval(x - y) - 2 * quad.eval(x))
                brute = max(brute, r)
    assert brute == 2 * 8.0**2
    assert jensen_defect(quad).delta == brute


def test_stability_check_z2_example():
    z2 = bundled_carrier("z2")
    f = FiniteTableFn(z2, [0.0, 1.0])
    delta = jensen_defect(f).delta
    res = jensen_approximant(f, "mean", delta=delta)
    check = stability_bound_check(f, res)
    assert check.stability_sup == 1.0
    assert check.bound >= 6.0
    assert check.holds


def test_stability_check_parity_example():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, ParityNoise(0.1))
    delta = jensen_defect(f).delta
    res = jensen_approximant(f, "mean", delta=delta, folner_k=512)
    check = stability_bound_check(f, res)
    # |f - g - f(0)| = |p(x) - p(0)| <= 2 eps
    assert check.stability_sup <= 0.2 + 1e-12
    assert check.holds


def test_sharper_bound_reported_only_for_full_dyadic():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.1, 2))
    delta = jensen_defect(f).delta
    res_full = jensen_approximant(f, "dyadic_full", delta=delta)
    check_full = stability_bound_check(f, res_full)
    assert check_full.sharper_bound is not None
    assert check_full.sharper_holds
    res_odd = jensen_approximant(f, "dyadic", delta=delta)
    check_odd = stability_bound_check(f, res_odd)
    assert check_odd.sharper_bound is None


def test_identity_checks_exact_cases():
    z1 = bundled_carrier("int1")
    pts = z1.window_points()
    additive = LatticeTableFn(z1, np.array([2.5 * x for (x,) in pts], dtype=np.complex128))
    records = identity_checks(additive, n_list=(1, 2, 3))
    for r in records:
        assert r.holds, r.name
        assert r.measured_sup <= 1e-9
    power3 = next(r for r in records if r.name == "power_2^3")
    assert power3.points_checked == 17  # |x| <= 8 keeps 2^3 x inside the window

    s3 = bundled_carrier("s3")
    const = FiniteTableFn(s3, [2 - 1j] * 6)
    for r in identity_checks(const, n_list=(1, 2, 3)):
        assert r.holds and r.measured_sup <= 1e-12


def test_identity_checks_constructed_mean_solution():
    s3 = bundled_carrier("s3")
    f = perturb(FiniteTableFn(s3, [3 + 2j] * 6), "seeded_uniform", 0.1, seed=5)
    res = jensen_approximant(f, "mean")
    for r in identity_checks(res.g, n_list=(1, 2, 3), budget=res.error_budget):
        assert r.holds
        assert r.measured_sup <= 1e-9


def test_method_agreement():
    z1 = bundled_carrier("int1")
    exact = OracleFn(z1, [2.0], 5.0)
    rep = method_agreement(exact, *(jensen_approximant(exact, m, folner_k=64) for m in ("mean", "dyadic")))
    assert rep.status == "ok"
    assert rep.agreement_sup <= 1e-9
    assert rep.holds

    noisy = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.1, 8))
    rep2 = method_agreement(noisy, *(jensen_approximant(noisy, m, folner_k=512) for m in ("mean", "dyadic")))
    assert rep2.holds


def test_drygas_residual_of_phi_finite_group():
    q8 = bundled_carrier("q8")
    f = perturb(FiniteTableFn(q8, [1 + 1j] * 8), "seeded_uniform", 0.2, seed=9)
    phi, diag = phi_mean_construction(f)
    assert drygas_defect(phi).delta <= 1e-9
    assert diag.phi_error_budget == 0.0


def test_verify_solution_full_pass_and_tamper_detection():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.1, 4))
    delta = _jd(f).delta
    res = jensen_approximant(f, "mean", delta=delta, folner_k=512)
    report = verify_solution(f, res, phi=phi_mean_construction(f, 512))
    assert report.passed
    assert report.stability.holds
    assert report.jensen_residual_holds
    assert report.drygas_residual_holds

    # tamper with one tabulated value: verification must fail
    bad_vals = res.g.values.copy()
    bad_vals[10] += 10.0
    bad = res
    bad_g = LatticeTableFn(z1, bad_vals)
    from jensen_stab import StabilizationResult

    tampered = StabilizationResult(
        g=bad_g,
        offset=res.offset,
        method=res.method,
        variant=res.variant,
        iterations_or_k=res.iterations_or_k,
        convergence_trace=res.convergence_trace,
        error_budget=res.error_budget,
        delta_used=res.delta_used,
    )
    report_bad = verify_solution(f, tampered)
    assert not report_bad.passed


def test_verification_on_mean_capable_carriers_passes():
    for name in ("z2", "z6", "s3", "q8"):
        c = bundled_carrier(name)
        f = perturb(FiniteTableFn(c, [2 + 1j] * c.size), "seeded_uniform", 0.15, seed=3)
        delta = _jd(f).delta
        for method in ("mean", "dyadic", "forti_sikorska"):
            res = jensen_approximant(f, method, delta=delta)
            rep = verify_solution(f, res)
            assert rep.passed, (name, method, rep.to_dict())
