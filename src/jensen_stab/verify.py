"""Checks of every conclusion against the constructed objects.

A solution g produced by any method is accepted only if, within its
declared budgets: g solves the Jensen equation on the window, the
stability bound sup |f - g - f(e)| <= 3 delta holds (with the sharper
3 delta / 2 for the dyadic construction on f itself), the structural
identities of exact solutions hold, phi solves the Drygas equation, and
independently constructed solutions agree (the numerical face of
uniqueness).

Budgets are itemized additively: proved constant, construction budget,
numeric tolerance. A failed check is attributable to exactly one layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .defect import InequalityRecord, drygas_defect, jensen_defect
from .funcspace import DEFAULT_TOL, BoundedFn, EvenPart
from .records import Record
# No function here calls jensen_approximant; perfbench's tracer patches this name.
from .stabilize import PhiDiagnostics, StabilizationResult, jensen_approximant  # noqa: F401


@dataclass
class StabilityCheck(Record):
    """The stability bound sup |f - g - f(e)| <= 3 delta, itemized."""

    stability_sup: float
    witness: object
    delta: float
    error_budget: float
    tolerance: float
    bound: float
    holds: bool
    sharper_bound: float | None = None
    sharper_holds: bool | None = None


def stability_bound_check(
    f: BoundedFn,
    result: StabilizationResult,
    *,
    tol: float = DEFAULT_TOL,
) -> StabilityCheck:
    """Measure sup over the window of |f(x) - g(x) - offset| against 3 delta,
    the ``delta_used`` of the result.

    The bound is 3 delta + error_budget + tol, each layer itemized. When
    the result is the dyadic construction applied to f itself, the sharper
    bound 3 delta / 2 is checked as well and reported separately.
    """
    delta = result.delta_used
    c = f.carrier
    pts = c.window_points()
    devs = np.abs(f.eval_many(pts) - result.g.eval_many(pts) - result.offset)
    i = int(np.argmax(devs))
    sup = float(devs[i])
    witness = c.element_repr(pts[i])
    bound = 3.0 * delta + result.error_budget + tol
    sharper_bound = None
    sharper_holds = None
    if result.method == "dyadic_full":
        sharper_bound = 1.5 * delta + tol
        sharper_holds = sup <= sharper_bound
    return StabilityCheck(
        stability_sup=sup,
        witness=witness,
        delta=delta,
        error_budget=result.error_budget,
        tolerance=tol,
        bound=bound,
        holds=sup <= bound,
        sharper_bound=sharper_bound,
        sharper_holds=sharper_holds,
    )


@dataclass
class IdentityRecord(Record):
    """One structural identity of exact Jensen solutions, measured on g."""

    name: str
    measured_sup: float
    bound: float
    holds: bool
    points_checked: int


def identity_checks(
    g: BoundedFn,
    n_list: tuple[int, ...] = (1, 2, 3),
    tol: float = DEFAULT_TOL,
    budget: float = 0.0,
) -> list[IdentityRecord]:
    """Check g(e) = g_even(x) = g(x sigma(x)) and the dyadic power identity.

    For each n in ``n_list`` measures |g(x^(2^n)) + (2^n - 1) g(e) - 2^n g(x)|
    over the window points whose powers stay evaluable. ``budget`` widens
    the acceptance bound for constructed (rather than exact) solutions; the
    power-n record scales it by 2^n + 1 since g enters with weight 2^n.
    """
    c = g.carrier
    t = c.window_terms()
    pts = t.w
    g_e = g.eval(c.neutral)
    records: list[IdentityRecord] = []

    bound = budget + tol
    for name, view, at in (("even_part_constant", EvenPart(g), pts), ("sigma_product", g, t.w_sw)):
        keep = view.readable(at)
        vals = view.eval_many(at if keep is None else at[keep])
        sup = float(np.abs(vals - g_e).max()) if vals.size else 0.0
        records.append(IdentityRecord(name, sup, bound, sup <= bound, int(vals.size)))

    # Level n squares the points level n - 1 kept and keeps those g can read,
    # so no orbit is squared on past g's table (nor into the overflow guard).
    levels, base, cur = {}, pts, pts
    for n in range(1, max(n_list, default=0) + 1):
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


@dataclass
class AgreementReport(Record):
    """Cross-method agreement, the measurable face of uniqueness."""

    status: str
    agreement_sup: float | None = None
    budget_sum: float | None = None
    tolerance: float | None = None
    bound: float | None = None
    holds: bool | None = None


def method_agreement(
    f: BoundedFn,
    result_a: StabilizationResult,
    result_b: StabilizationResult,
    tol: float = DEFAULT_TOL,
) -> AgreementReport:
    """sup over the window of |g_a - g_b| for two constructed solutions of f
    (the harness passes mean and dyadic) against their summed budgets."""
    pts = f.carrier.window_points()
    sup = float(np.abs(result_a.g.eval_many(pts) - result_b.g.eval_many(pts)).max())
    budget_sum = result_a.error_budget + result_b.error_budget
    bound = budget_sum + tol
    return AgreementReport(
        status="ok",
        agreement_sup=sup,
        budget_sum=budget_sum,
        tolerance=tol,
        bound=bound,
        holds=sup <= bound,
    )


@dataclass
class VerificationReport(Record):
    """Aggregate verdict for one constructed solution."""

    method: str
    delta: float
    stability: StabilityCheck
    jensen_residual_of_g: float
    jensen_residual_bound: float
    jensen_residual_holds: bool
    identity_records: list[IdentityRecord]
    inequality_records: list[InequalityRecord] = field(default_factory=list)
    drygas_residual_of_phi: float | None = None
    drygas_residual_bound: float | None = None
    drygas_residual_holds: bool | None = None
    passed: bool = field(default=False, metadata={"key": "pass"})


def verify_solution(
    f: BoundedFn,
    result: StabilizationResult,
    *,
    phi: tuple[BoundedFn, PhiDiagnostics] | None = None,
    n_list: tuple[int, ...] = (1, 2, 3),
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Assemble the full verification verdict for one stabilization result,
    against the result's ``delta_used``.

    ``phi``, the ``(phi, diagnostics)`` pair of ``phi_mean_construction``,
    enables the Drygas residual check against its ``phi_error_budget``.
    The inequality chain is measured and reported apart from it
    (``defect.inequality_suite``), so ``inequality_records`` stays empty.
    """
    stability = stability_bound_check(f, result, tol=tol)
    jres = jensen_defect(result.g).delta
    jres_bound = 4.0 * result.error_budget + tol
    jres_holds = jres <= jres_bound
    identities = identity_checks(result.g, n_list=n_list, tol=tol, budget=result.error_budget)
    drygas_val = drygas_bound = None
    drygas_holds = None
    if phi is not None:
        drygas_val = drygas_defect(phi[0]).delta
        drygas_bound = 6.0 * phi[1].phi_error_budget + tol
        drygas_holds = drygas_val <= drygas_bound
    ok = (
        stability.holds
        and (stability.sharper_holds is not False)
        and jres_holds
        and all(r.holds for r in identities)
        and (drygas_holds is not False)
    )
    return VerificationReport(
        method=result.method,
        delta=result.delta_used,
        stability=stability,
        jensen_residual_of_g=jres,
        jensen_residual_bound=jres_bound,
        jensen_residual_holds=jres_holds,
        identity_records=identities,
        drygas_residual_of_phi=drygas_val,
        drygas_residual_bound=drygas_bound,
        drygas_residual_holds=drygas_holds,
        passed=ok,
    )
