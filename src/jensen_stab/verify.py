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
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

# No function here calls jensen_defect or jensen_approximant; perfbench's tracer patches these names.
from .defect import _QUIET, DefectReport, InequalityRecord, _table_rows, drygas_defect, jensen_defect, jensen_defects  # noqa: F401
from .errors import JensenStabError
from .funcspace import DEFAULT_TOL, BoundedFn
from .records import Record
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
    f_w: np.ndarray,
    g_w: np.ndarray,
    results: Sequence[StabilizationResult],
    *,
    tol: float = DEFAULT_TOL,
) -> list[StabilityCheck]:
    """One check per row: sup over the window of |f(x) - g(x) - offset|
    against 3 delta, the ``delta_used`` of the row's result.

    ``f_w`` is f on the carrier's window points, and row i of ``g_w`` is
    ``results[i].g`` there. The bound is 3 delta + error_budget + tol, each
    layer itemized. When a result is the dyadic construction applied to f
    itself, the sharper bound 3 delta / 2 is checked as well and reported
    separately.
    """
    checks = []
    c = results[0].g.carrier
    pts = c.window_points()
    offsets = np.array([[r.offset] for r in results], dtype=np.complex128)
    devs = np.abs(f_w - g_w - offsets)
    for result, row, i in zip(results, devs, devs.argmax(axis=1).tolist()):
        delta = result.delta_used
        sup = float(row[i])
        bound = 3.0 * delta + result.error_budget + tol
        sharper_bound = 1.5 * delta + tol if result.method == "dyadic_full" else None
        checks.append(StabilityCheck(
            stability_sup=sup,
            witness=c.element_repr(pts[i]),
            delta=delta,
            error_budget=result.error_budget,
            tolerance=tol,
            bound=bound,
            holds=sup <= bound,
            sharper_bound=sharper_bound,
            sharper_holds=None if sharper_bound is None else sup <= sharper_bound,
        ))
    return checks


@dataclass
class IdentityRecord(Record):
    """One structural identity of exact Jensen solutions, measured on g."""

    name: str
    measured_sup: float
    bound: float
    holds: bool
    points_checked: int


def _sups(resid: np.ndarray) -> list[float]:
    """Each row's max, 0.0 for rows of no points."""
    return resid.max(axis=1).tolist() if resid.shape[1] else [0.0] * resid.shape[0]


def identity_checks(
    gs: Sequence[BoundedFn],
    g_w: np.ndarray,
    budgets: Sequence[float],
    *,
    n_list: tuple[int, ...] = (1, 2, 3),
    tol: float = DEFAULT_TOL,
) -> list[list[IdentityRecord]]:
    """One record list per row: check g(e) = g_even(x) = g(x sigma(x)) and
    the dyadic power identity for each g of one carrier.

    Row i of ``g_w`` is ``gs[i]`` on the window points. For each n in
    ``n_list`` measures |g(x^(2^n)) + (2^n - 1) g(e) - 2^n g(x)| over the
    window points whose powers stay evaluable. ``budgets[i]`` widens the
    acceptance bound of row i for constructed (rather than exact) solutions;
    the power-n record scales it by 2^n + 1 since g enters with weight 2^n.

    Each g is read once beyond ``g_w``, at every point its identities
    read. A point is checked where every g can be read, which for the tables
    of one carrier is where each alone can.
    """
    c = gs[0].carrier
    t = c.window_terms()
    pts = t.w

    # Level n squares the points level n - 1 kept and keeps those every g can
    # read, so no orbit is squared on past a table (nor into the overflow guard).
    levels, base, cur = {}, np.arange(pts.shape[0]), pts
    for n in range(1, max(n_list, default=0) + 1):
        cur = c.square_many(cur)
        masks = [keep for g in gs if (keep := g.readable(cur)) is not None]
        if masks:
            keep = np.logical_and.reduce(masks)
            base, cur = base[keep], cur[keep]
        levels[n] = base, cur

    # Each g is read once: at e, at sigma(x) and x sigma(x) for x in the
    # window (g_even(x) also reads g(x)), and at the powers of each level checked.
    sets = [c.row(c.neutral), c.involute_many(pts), t.w_sw, *(levels[n][1] for n in n_list)]
    vals, ok = _table_rows(gs, np.concatenate(sets))
    ends = list(accumulate(len(a) for a in sets))
    parts = [(vals[:, a:b], None if ok is None else ok[a:b]) for a, b in zip([0, *ends], ends)]
    g_e = parts[0][0]
    g_sw, keep = parts[1]
    even = (g_w + g_sw) / 2 if keep is None else (g_w[:, keep] + g_sw[:, keep]) / 2
    g_prod, keep = parts[2]
    prod = g_prod if keep is None else g_prod[:, keep]

    names, sups, sizes = [], [], []
    bounds = [[budget + tol for budget in budgets]] * 2
    for name, got in (("even_part_constant", even), ("sigma_product", prod)):
        names.append(name)
        sups.append(_sups(np.abs(got - g_e)))
        sizes.append(got.shape[1])
    for n, (g_top, _) in zip(n_list, parts[3:]):
        base = levels[n][0]
        resid = np.abs(g_top + (2.0**n - 1) * g_e - (2.0**n) * g_w[:, base])
        names.append(f"power_2^{n}")
        sups.append(_sups(resid))
        sizes.append(base.shape[0])
        bounds.append([budget * (2.0**n + 1) + tol for budget in budgets])

    return [
        [IdentityRecord(name, sup[i], bound[i], sup[i] <= bound[i], size) for name, sup, bound, size in zip(names, sups, bounds, sizes)]
        for i in range(len(gs))
    ]


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
    result_a: StabilizationResult,
    result_b: StabilizationResult,
    tol: float = DEFAULT_TOL,
) -> AgreementReport:
    """sup over the window of |g_a - g_b| for two constructed solutions of
    one f (the harness passes mean and dyadic) against their summed budgets.
    Each g is a table over the window, so its values are read as they are held."""
    sup = float(np.abs(result_a.g.values - result_b.g.values).max())
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
    results: Mapping[str, StabilizationResult],
    *,
    phi: tuple[BoundedFn, PhiDiagnostics] | None = None,
    n_list: tuple[int, ...] = (1, 2, 3),
    tol: float = DEFAULT_TOL,
) -> dict[str, VerificationReport | JensenStabError]:
    """The full verification verdict of each stabilization result (method ->
    result), each against its result's ``delta_used``.

    Every check runs for all results at once, one result per row: f is read
    once on the window, and each g once there, once at the points of its
    identities and once on the pair window's table domain. A method whose
    checks raise gets the ``JensenStabError`` in place of its report: a g
    whose Jensen residual is not finite fails alone, and an error of the
    shared reads fails every method.

    ``phi``, the ``(phi, diagnostics)`` pair of ``phi_mean_construction``,
    enables the Drygas residual check of the ``"mean"`` result against its
    ``phi_error_budget``. The inequality chain is measured and reported
    apart from it (``defect.inequality_suite``), so ``inequality_records``
    stays empty.
    """
    res = list(results.values())
    if not res:
        return {}
    gs = [r.g for r in res]
    # Values that overflow make a sup inf or NaN, which fails its bound; numpy's
    # warnings about them would only reach stderr ahead of that.
    try:
        with np.errstate(**_QUIET):
            jensen = jensen_defects(gs)
            pts = f.carrier.window_points()
            g_w = np.array([g.eval_many(pts) for g in gs])
            stability = stability_bound_check(f.eval_many(pts), g_w, res, tol=tol)
            identities = identity_checks(gs, g_w, [r.error_budget for r in res], n_list=n_list, tol=tol)
    except JensenStabError as exc:
        return dict.fromkeys(results, exc)

    out: dict[str, VerificationReport | JensenStabError] = {}
    for method, result, jd, check, records in zip(results, res, jensen, stability, identities):
        if not isinstance(jd, DefectReport):
            out[method] = jd
            continue
        jres_bound = 4.0 * result.error_budget + tol
        drygas_val = drygas_bound = drygas_holds = None
        if phi is not None and method == "mean":
            try:
                drygas_val = drygas_defect(phi[0]).delta
            except JensenStabError as exc:
                out[method] = exc
                continue
            drygas_bound = 6.0 * phi[1].phi_error_budget + tol
            drygas_holds = drygas_val <= drygas_bound
        out[method] = VerificationReport(
            method=result.method,
            delta=result.delta_used,
            stability=check,
            jensen_residual_of_g=jd.delta,
            jensen_residual_bound=jres_bound,
            jensen_residual_holds=jd.delta <= jres_bound,
            identity_records=records,
            drygas_residual_of_phi=drygas_val,
            drygas_residual_bound=drygas_bound,
            drygas_residual_holds=drygas_holds,
            passed=(
                check.holds
                and (check.sharper_holds is not False)
                and jd.delta <= jres_bound
                and all(r.holds for r in records)
                and (drygas_holds is not False)
            ),
        )
    return out
