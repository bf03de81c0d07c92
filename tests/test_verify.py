"""Residuals of constructed solutions, stability bounds, identities."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from jensen_stab import (
    FiniteCarrier,
    FiniteTableFn,
    LatticeCarrier,
    LatticeTableFn,
    OracleFn,
    ParityNoise,
    SeededUniformNoise,
    StabilizationResult,
    bundled_carrier,
    drygas_defect,
    identity_checks,
    jensen_approximant,
    jensen_defect,
    method_agreement,
    perturb,
    phi_mean_construction,
    stability_bound_check,
    validate_carrier,
    verify_solution,
)
from jensen_stab import defect, harness
from jensen_stab.carrier import NO_MEAN
from jensen_stab.defect import jensen_defect as _jd
from jensen_stab.errors import CapabilityError, FormatError, LatticeOverflowError, NonConvergenceError
from jensen_stab.funcspace import EvenPart
from jensen_stab.harness import ExperimentConfig, run_experiment
from jensen_stab.stabilize import METHODS, PhiDiagnostics
from jensen_stab.verify import IdentityRecord, StabilityCheck, VerificationReport


def _stability(f, res):
    """The stability check of one result: one row."""
    pts = f.carrier.window_points()
    return stability_bound_check(f.eval_many(pts), np.stack([res.g.eval_many(pts)]), [res])[0]


def _identities(g, n_list, budget=0.0):
    """The identity records of one g: one row."""
    return identity_checks([g], np.stack([g.eval_many(g.carrier.window_points())]), [budget], n_list=n_list)[0]


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
    check = _stability(f, res)
    assert check.stability_sup == 1.0
    assert check.bound >= 6.0
    assert check.holds


def test_stability_check_parity_example():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, ParityNoise(0.1))
    delta = jensen_defect(f).delta
    res = jensen_approximant(f, "mean", delta=delta, folner_k=512)
    check = _stability(f, res)
    # |f - g - f(0)| = |p(x) - p(0)| <= 2 eps
    assert check.stability_sup <= 0.2 + 1e-12
    assert check.holds


def test_sharper_bound_reported_only_for_full_dyadic():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.1, 2))
    delta = jensen_defect(f).delta
    res_full = jensen_approximant(f, "dyadic_full", delta=delta)
    check_full = _stability(f, res_full)
    assert check_full.sharper_bound is not None
    assert check_full.sharper_holds
    res_odd = jensen_approximant(f, "dyadic", delta=delta)
    check_odd = _stability(f, res_odd)
    assert check_odd.sharper_bound is None


def test_identity_checks_exact_cases():
    z1 = bundled_carrier("int1")
    pts = z1.window_points()
    additive = LatticeTableFn(z1, np.array([2.5 * x for (x,) in pts], dtype=np.complex128))
    records = _identities(additive, (1, 2, 3))
    for r in records:
        assert r.holds, r.name
        assert r.measured_sup <= 1e-9
    power3 = next(r for r in records if r.name == "power_2^3")
    assert power3.points_checked == 17  # |x| <= 8 keeps 2^3 x inside the window

    s3 = bundled_carrier("s3")
    const = FiniteTableFn(s3, [2 - 1j] * 6)
    for r in _identities(const, (1, 2, 3)):
        assert r.holds and r.measured_sup <= 1e-12


def test_identity_checks_constructed_mean_solution():
    s3 = bundled_carrier("s3")
    f = perturb(FiniteTableFn(s3, [3 + 2j] * 6), "seeded_uniform", 0.1, seed=5)
    res = jensen_approximant(f, "mean")
    for r in _identities(res.g, (1, 2, 3), res.error_budget):
        assert r.holds
        assert r.measured_sup <= 1e-9


def test_method_agreement():
    z1 = bundled_carrier("int1")
    exact = OracleFn(z1, [2.0], 5.0)
    rep = method_agreement(*(jensen_approximant(exact, m, folner_k=64) for m in ("mean", "dyadic")))
    assert rep.status == "ok"
    assert rep.agreement_sup <= 1e-9
    assert rep.holds

    noisy = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.1, 8))
    rep2 = method_agreement(*(jensen_approximant(noisy, m, folner_k=512) for m in ("mean", "dyadic")))
    assert rep2.holds


@pytest.mark.parametrize("name", ["s3", "int2"])
def test_method_agreement_reads_the_held_tables_as_each_g_on_the_window(name):
    c = bundled_carrier(name)
    f = perturb(c.exact_solution(1 - 2j, None if c.size else [0.5, 1j]), "seeded_uniform", 0.2, seed=6)
    a, b = (jensen_approximant(f, m, folner_k=16) for m in ("mean", "dyadic"))
    pts = c.window_points()
    sup = float(np.abs(a.g.eval_many(pts) - b.g.eval_many(pts)).max())
    assert method_agreement(a, b).agreement_sup == sup > 0


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
    report = verify_solution(f, {"mean": res}, phi=phi_mean_construction(f, 512))["mean"]
    assert report.passed
    assert report.stability.holds
    assert report.jensen_residual_holds
    assert report.drygas_residual_holds

    # tamper with one tabulated value: verification must fail
    bad_vals = res.g.values.copy()
    bad_vals[10] += 10.0
    bad = res
    bad_g = LatticeTableFn(z1, bad_vals)
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
    report_bad = verify_solution(f, {"mean": tampered})["mean"]
    assert not report_bad.passed


def test_verification_on_mean_capable_carriers_passes():
    for name in ("z2", "z6", "s3", "q8"):
        c = bundled_carrier(name)
        f = perturb(FiniteTableFn(c, [2 + 1j] * c.size), "seeded_uniform", 0.15, seed=3)
        delta = _jd(f).delta
        for method in ("mean", "dyadic", "forti_sikorska"):
            res = jensen_approximant(f, method, delta=delta)
            rep = verify_solution(f, {method: res})[method]
            assert rep.passed, (name, method, rep.to_dict())


def _reference_identities(g, n_list, tol, budget):
    """identity_checks as it was for one g: its own masks and levels."""
    c = g.carrier
    t = c.window_terms()
    pts = t.w
    g_e = g.eval(c.neutral)
    records = []
    bound = budget + tol
    for name, view, at in (("even_part_constant", EvenPart(g), pts), ("sigma_product", g, t.w_sw)):
        keep = view.readable(at)
        vals = view.eval_many(at if keep is None else at[keep])
        sup = float(np.abs(vals - g_e).max()) if vals.size else 0.0
        records.append(IdentityRecord(name, sup, bound, sup <= bound, int(vals.size)))
    levels, base, cur = {}, pts, pts
    for n in range(1, max(n_list) + 1):
        cur = c.square_many(cur)
        keep = g.readable(cur)
        if keep is not None:
            base, cur = base[keep], cur[keep]
        levels[n] = base, cur
    for n in n_list:
        base, top = levels[n]
        resid = np.abs(g.eval_many(top) + (2.0**n - 1) * g_e - (2.0**n) * g.eval_many(base))
        sup = float(resid.max()) if resid.size else 0.0
        bound_n = budget * (2.0**n + 1) + tol
        records.append(IdentityRecord(f"power_2^{n}", sup, bound_n, sup <= bound_n, int(base.shape[0])))
    return records


def _reference_report(f, result, phi, n_list, tol):
    """verify_solution as it was for one result: every check on its g alone."""
    c = f.carrier
    pts = c.window_points()
    devs = np.abs(f.eval_many(pts) - result.g.eval_many(pts) - result.offset)
    i = int(np.argmax(devs))
    sup = float(devs[i])
    delta = result.delta_used
    bound = 3.0 * delta + result.error_budget + tol
    sharper = 1.5 * delta + tol if result.method == "dyadic_full" else None
    stability = StabilityCheck(
        sup, c.element_repr(pts[i]), delta, result.error_budget, tol, bound, sup <= bound,
        sharper, None if sharper is None else sup <= sharper,
    )
    jres = _jd(result.g).delta
    jres_bound = 4.0 * result.error_budget + tol
    identities = _reference_identities(result.g, n_list, tol, result.error_budget)
    drygas = drygas_bound = drygas_holds = None
    if phi is not None:
        drygas = drygas_defect(phi[0]).delta
        drygas_bound = 6.0 * phi[1].phi_error_budget + tol
        drygas_holds = drygas <= drygas_bound
    return VerificationReport(
        method=result.method,
        delta=delta,
        stability=stability,
        jensen_residual_of_g=jres,
        jensen_residual_bound=jres_bound,
        jensen_residual_holds=jres <= jres_bound,
        identity_records=identities,
        drygas_residual_of_phi=drygas,
        drygas_residual_bound=drygas_bound,
        drygas_residual_holds=drygas_holds,
        passed=(
            stability.holds and stability.sharper_holds is not False and jres <= jres_bound
            and all(r.holds for r in identities) and drygas_holds is not False
        ),
    )


class _ShearLattice(LatticeCarrier):
    """Z^2 with sigma(a, b) = (a, a - b), which maps the window box out of itself."""

    def involute_many(self, xs: np.ndarray) -> np.ndarray:
        return np.stack([xs[:, 0], xs[:, 0] - xs[:, 1]], axis=1)


def _twisted_s3():
    """S3 with sigma(x) = a x^-1 a for the transposition a = (0 1)."""
    s3 = bundled_carrier("s3")
    a = s3.elements.index("102")
    twist = [int(s3.op[s3.op[a, s3.involution[x]], a]) for x in range(s3.size)]
    c = FiniteCarrier(s3.elements, s3.op, twist, neutral=s3.neutral, name="S3 twisted")
    assert validate_carrier(c).ok
    return c


@pytest.mark.parametrize("name", ["z2", "z6", "s3", "q8", "m3", "s3_twisted", "int1", "int2", "shear"])
def test_stacked_verification_matches_the_per_method_loop(name):
    if name == "shear":
        c = _ShearLattice(2, 3, 6)
    else:
        c = _twisted_s3() if name == "s3_twisted" else bundled_carrier(name)
    if c.size:
        f = perturb(c.exact_solution(1 - 2j), "seeded_uniform", 0.3, seed=5)
    else:
        f = OracleFn(c, [1.5, -0.5 + 1j][: c.dim], 2j, SeededUniformNoise(0.2, 5))
    delta = _jd(f).delta
    phi = None if c.mean_capability == NO_MEAN else phi_mean_construction(f)
    results = {}
    for method in METHODS:
        try:
            results[method] = jensen_approximant(f, method, delta=delta, phi=phi)
        except CapabilityError:
            assert method == "mean" and phi is None
    # A row whose g(e), offset, budget and identities are all far from an exact solution's.
    rng = np.random.default_rng(7)
    size = c.window_points().shape[0]
    noisy = c.table_fn(rng.normal(size=size) + 1j * rng.normal(size=size))
    results["random"] = dataclasses.replace(results["dyadic"], g=noisy, offset=0.5 - 2j, error_budget=0.25)
    n_list, tol = (57, 1, 100, 7, 6), 1e-9
    got = verify_solution(f, results, phi=phi, n_list=n_list, tol=tol)
    assert list(got) == list(results) and len(got) >= 4
    assert not got["random"].passed
    for method, result in results.items():
        want = _reference_report(f, result, phi if method == "mean" else None, n_list, tol)
        # json.dumps writes each float by its shortest round-trip repr, so equal text is equal bits.
        assert json.dumps(got[method].to_dict()) == json.dumps(want.to_dict()), method


def test_an_overflowing_solution_fails_only_its_method(monkeypatch):
    cfg = ExperimentConfig(carrier="z6", base_constant=2.0, noise_type="seeded_uniform", noise_amplitude=0.2,
                           noise_seed=30, methods=["mean", "dyadic", "dyadic_full", "forti_sikorska"])
    clean = run_experiment(cfg)
    huge = bundled_carrier("z6").table_fn(np.full(6, 1.5e308))
    with pytest.raises(FormatError) as raised:
        _jd(huge)
    real = harness.jensen_approximant

    def construct(f, method, **kwargs):
        if method == "forti_sikorska":
            raise NonConvergenceError("no level")
        res = real(f, method, **kwargs)
        return dataclasses.replace(res, g=huge) if method == "dyadic" else res

    monkeypatch.setattr(harness, "jensen_approximant", construct)
    report = run_experiment(cfg)
    assert report["errors"] == [
        {"stage": "verify:dyadic", "error": f"FormatError: {raised.value}"},
        {"stage": "stabilize:forti_sikorska", "error": "NonConvergenceError: no level"},
    ]
    assert list(report["verification"]) == ["mean", "dyadic_full"]
    for method in ("mean", "dyadic_full"):
        assert report["verification"][method] == clean["verification"][method]
    assert report["pass"] is False
    assert "verify[0]" in report["timing"] and not any(k.startswith("verify:") for k in report["timing"])


def test_one_verification_scans_the_jensen_residual_of_all_its_solutions_at_once(monkeypatch):
    c = bundled_carrier("s3")
    f = perturb(c.exact_solution(1 - 2j), "seeded_uniform", 0.3, seed=5)
    delta = _jd(f).delta
    phi = phi_mean_construction(f)
    results = {method: jensen_approximant(f, method, delta=delta, phi=phi) for method in METHODS}
    calls = []
    real = defect._combo_scan

    def counted(fns, *args, **kwargs):
        calls.append(fns)
        return real(fns, *args, **kwargs)

    monkeypatch.setattr(defect, "_combo_scan", counted)
    assert all(rep.passed for rep in verify_solution(f, results).values())
    assert calls == [tuple(result.g for result in results.values())]
    assert len(calls[0]) == 4


def _exact_results(g):
    """Results "mean" and "dyadic" that both hold the exact solution g."""
    return {m: StabilizationResult(g, 0j, m, m, 0, [], 0.0, 0.0) for m in ("mean", "dyadic")}


def test_an_error_of_the_shared_reads_fails_every_method():
    # Level 57 of the identities squares the window's points past the lattice's safe range.
    g = OracleFn(bundled_carrier("int1"), [2.0], 0.0)
    got = verify_solution(g, _exact_results(g), n_list=(57,))
    assert list(got) == ["mean", "dyadic"]
    assert isinstance(got["mean"], LatticeOverflowError)
    assert got["dyadic"] is got["mean"]


def test_a_phi_whose_drygas_residual_overflows_fails_only_mean():
    c = bundled_carrier("int1")
    g = OracleFn(c, [2.0], 0.0)
    diag = PhiDiagnostics("folner", 1, 3, 0.0, 0.0, 0.0, 0.0)
    got = verify_solution(g, _exact_results(g), phi=(c.table_fn(np.full(129, 1.5e308)), diag))
    assert isinstance(got["mean"], FormatError)
    assert str(got["mean"]).startswith("drygas defect is not finite")
    assert got["dyadic"] == verify_solution(g, {"dyadic": _exact_results(g)["dyadic"]})["dyadic"]
    assert got["dyadic"].passed
