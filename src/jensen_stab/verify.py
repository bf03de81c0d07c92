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

from .carrier import NO_MEAN
from .defect import InequalityRecord, _table_mask, drygas_defect, jensen_defect
from .funcspace import DEFAULT_TOL, BoundedFn, EvenPart
from .records import Record
from .stabilize import StabilizationResult, jensen_approximant


def jensen_residual(g: BoundedFn) -> float:
    """sup |g(xy) + g(x sigma(y)) - 2 g(x)| over window pairs.

    For window-tabulated g the scan restricts to pairs whose products stay
    inside the tabulated box; the restriction is visible in the full report
    from ``jensen_defect``.
    """
    return jensen_defect(g).delta


def drygas_residual(g: BoundedFn) -> float:
    """sup |g(yx) + g(sigma(y)x) - 2g(x) - g(y) - g(sigma(y))| over pairs."""
    return drygas_defect(g).delta


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
    delta: float | None = None,
    tol: float = DEFAULT_TOL,
) -> StabilityCheck:
    """Measure sup over the window of |f(x) - g(x) - offset| against 3 delta.

    The bound is 3 delta + error_budget + tol, each layer itemized. When
    the result is the dyadic construction applied to f itself, the sharper
    bound 3 delta / 2 is checked as well and reported separately.
    """
    if delta is None:
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

    g_even = EvenPart(g)
    keep = _table_mask(g_even, pts)
    ge_vals = g_even.eval_many(pts if keep is None else pts[keep])
    sup = float(np.abs(ge_vals - g_e).max()) if ge_vals.size else 0.0
    bound = budget + tol
    records.append(IdentityRecord("even_part_constant", sup, bound, sup <= bound, int(ge_vals.size)))

    prod = t.w_sw
    keep = _table_mask(g, prod)
    vals = g.eval_many(prod[keep] if keep is not None else prod)
    sup = float(np.abs(vals - g_e).max()) if vals.size else 0.0
    records.append(
        IdentityRecord(
            "sigma_product",
            sup,
            bound,
            sup <= bound,
            int(vals.size),
        )
    )

    for n in n_list:
        cur = pts
        for _ in range(n):
            cur = c.square_many(cur)
        keep = _table_mask(g, cur)
        base = pts if keep is None else pts[keep]
        top = cur if keep is None else cur[keep]
        if base.shape[0] == 0:
            records.append(IdentityRecord(f"power_2^{n}", 0.0, budget * (2.0**n + 1) + tol, True, 0))
            continue
        resid = np.abs(g.eval_many(top) + (2.0**n - 1) * g_e - (2.0**n) * g.eval_many(base))
        sup = float(resid.max())
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
    result_a: StabilizationResult | None = None,
    result_b: StabilizationResult | None = None,
    delta: float | None = None,
    folner_k: int | None = None,
    tol: float = DEFAULT_TOL,
) -> AgreementReport:
    """sup |g_mean - g_dyadic| over the window against the summed budgets.

    Constructs the two solutions when not supplied. On carriers without a
    realizable mean the check is skipped with status ``skipped_no_mean``.
    """
    c = f.carrier
    if result_a is None:
        if c.mean_capability == NO_MEAN:
            return AgreementReport(status="skipped_no_mean")
        result_a = jensen_approximant(f, "mean", delta=delta, folner_k=folner_k)
    if result_b is None:
        result_b = jensen_approximant(f, "dyadic", delta=delta)
    pts = c.window_points()
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
    delta: float | None = None,
    phi: BoundedFn | None = None,
    phi_budget: float = 0.0,
    inequality_records: list[InequalityRecord] | None = None,
    n_list: tuple[int, ...] = (1, 2, 3),
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Assemble the full verification verdict for one stabilization result.

    ``phi`` (with its construction budget) enables the Drygas residual
    check; inequality records computed elsewhere can be attached so the
    report carries the complete evidence.
    """
    if delta is None:
        delta = result.delta_used
    stability = stability_bound_check(f, result, delta, tol)
    jres = jensen_residual(result.g)
    jres_bound = 4.0 * result.error_budget + tol
    jres_holds = jres <= jres_bound
    identities = identity_checks(result.g, n_list=n_list, tol=tol, budget=result.error_budget)
    drygas_val = drygas_bound = None
    drygas_holds = None
    if phi is not None:
        drygas_val = drygas_residual(phi)
        drygas_bound = 6.0 * phi_budget + tol
        drygas_holds = drygas_val <= drygas_bound
    records = inequality_records if inequality_records is not None else []
    ok = (
        stability.holds
        and (stability.sharper_holds is not False)
        and jres_holds
        and all(r.holds for r in identities)
        and all(r.holds for r in records)
        and (drygas_holds is not False)
    )
    return VerificationReport(
        method=result.method,
        delta=delta,
        stability=stability,
        jensen_residual_of_g=jres,
        jensen_residual_bound=jres_bound,
        jensen_residual_holds=jres_holds,
        identity_records=identities,
        inequality_records=records,
        drygas_residual_of_phi=drygas_val,
        drygas_residual_bound=drygas_bound,
        drygas_residual_holds=drygas_holds,
        passed=ok,
    )
