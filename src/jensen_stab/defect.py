"""Supremum residuals of the Jensen and Drygas equations.

``jensen_defect`` measures delta = sup |f(xy) + f(x sigma(y)) - 2 f(x)|
over the carrier's pair window; ``drygas_defect`` does the same for the
Drygas equation; ``inequality_suite`` measures the whole chain of
intermediate bounds (delta/2, delta, 3 delta/2, ..., 10 delta) that the
stability argument establishes along the way, each against its exact
constant.

Scans are exhaustive over the declared domain. On lattices the window
truncates an infinite supremum, so reports are labeled as lower bounds;
when the oracle's noise amplitude is known the analytic bound 4 eps is
reported alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import FormatError
from .funcspace import DEFAULT_TOL, BoundedFn, EvenPart, OddPart
from .records import Record
from .scan import max_scan

if TYPE_CHECKING:
    from .carrier import Carrier
    from .stabilize import PhiDiagnostics

# Values that overflow make a scan's products and sums inf or NaN, and so
# its supremum, which the callers report or reject; numpy's warnings about
# them would only reach stderr ahead of that.
_QUIET = {"over": "ignore", "invalid": "ignore"}


@dataclass
class DefectReport(Record):
    """Supremum of an equation residual with its witnessing pair."""

    equation: str
    delta: float
    witness: tuple | None
    domain_size: int
    exactness: str
    analytic_bound: float | None = None
    scanned_pairs: int | None = None


@dataclass
class InequalityRecord(Record):
    """One measured intermediate inequality against its proved constant."""

    name: str
    measured_sup: float | None
    bound_coeff: float
    delta: float
    extra_budget: float
    bound: float
    holds: bool
    status: str
    witness: tuple | None = None


class _MinusConst(BoundedFn):
    """View f(x) - z; used for h = f - f(e)."""

    def __init__(self, base: BoundedFn, z: complex) -> None:
        self.base = base
        self.carrier = base.carrier
        self.z = complex(z)

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return self.base.eval_many(pts) - self.z


def _table_rows(fns: Sequence[BoundedFn], domain: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Each fn on the domain as one row of a (rows x domain) table, with the
    mask of the points every fn can read (None if all can); NaN where a fn
    would read outside its table, which no kept position gathers. One fn
    gives a one-row view of its values, not a copy."""
    rows, ok = [], None
    for fn in fns:
        mask = fn.readable(domain)
        if mask is None:
            rows.append(fn.eval_many(domain))
            continue
        vals = np.full(domain.shape[0], np.nan, dtype=np.complex128)
        vals[mask] = fn.eval_many(domain[mask])
        rows.append(vals)
        ok = mask if ok is None else ok & mask
    return (rows[0][None] if len(rows) == 1 else np.array(rows)), ok


_Rows = tuple[BoundedFn, ...]
_Tables = tuple[dict[_Rows, tuple[np.ndarray, np.ndarray | None]], dict[int, np.ndarray]]


def _tabulate(rows: Sequence[_Rows], arrays: Sequence[np.ndarray]) -> _Tables:
    """Each fn tuple of ``rows`` evaluated once, all on one table domain: the
    carrier's domain of the point arrays (all of G, or the smallest centred
    box). Returns (fns -> their ``_table_rows`` table and mask, each array's
    positions in the domain by id). Window terms the carrier holds share
    one box, so passing all of them costs no larger domain."""
    domain, positions = rows[0][0].carrier.table_domain(arrays)
    return {fns: _table_rows(fns, domain) for fns in rows}, {id(a): pos for a, pos in zip(arrays, positions)}


def _combo_scan(
    fns: _Rows,
    point_arrays: Sequence[np.ndarray],
    coeffs: Sequence[complex],
    const: complex = 0j,
    tables: _Tables | None = None,
) -> tuple[list[float], list[int], int]:
    """Sup of |sum coeff_i * fn(points_i) + const| for each fn of ``fns``:
    ``_one_var_scan`` with one row tuple."""
    return _one_var_scan([(fns, coeff, pts) for pts, coeff in zip(point_arrays, coeffs)], const, tables)


def _defect_report(c: Carrier, equation: str, value: float, idx: int, scanned: int, analytic: float | None = None) -> DefectReport:
    """The report of a pair-window scan of c (value, first argmax, scanned
    pairs).

    Raises ``FormatError`` when the supremum is not finite (the values of the
    function overflow float arithmetic), naming the first witnessing pair.
    """
    t = c.window_terms()
    X, Y = t.x, t.y
    witness = None if idx < 0 else (c.element_repr(X[idx]), c.element_repr(Y[idx]))
    if not math.isfinite(value):
        raise FormatError(
            f"{equation} defect is not finite ({value}) at the pair (x, y) = {witness}: "
            "the function's values overflow float arithmetic"
        )
    total = X.shape[0]
    return DefectReport(
        equation=equation,
        delta=value,
        witness=witness,
        domain_size=total,
        exactness=c.exactness,
        analytic_bound=analytic,
        scanned_pairs=scanned if scanned != total else None,
    )


def _analytic(fn: BoundedFn) -> float | None:
    """4 eps for an oracle with noise of amplitude eps: the Jensen defect bound."""
    return None if fn.noise is None else 4.0 * fn.noise.bound()


def jensen_defects(gs: Sequence[BoundedFn]) -> list[DefectReport | FormatError]:
    """delta = sup over window pairs of |g(xy) + g(x sigma(y)) - 2 g(x)| for
    each g of one carrier, as the rows of one scan.

    Each g is evaluated once on the table domain of the pair window, and a
    pair is scanned where every g can be read (the tables of one carrier
    share their box). A g whose supremum is not finite gets, in place of its
    report, the ``FormatError`` that names its first witnessing pair.
    """
    c = gs[0].carrier
    t = c.window_terms()
    values, idxs, n = _combo_scan(tuple(gs), [t.xy, t.x_sy, t.x], [1, 1, -2])
    out: list[DefectReport | FormatError] = []
    for g, value, idx in zip(gs, values, idxs):
        try:
            out.append(_defect_report(c, "jensen", value, idx, n, _analytic(g)))
        except FormatError as exc:
            out.append(exc)
    return out


def jensen_defect(f: BoundedFn) -> DefectReport:
    """The Jensen defect of f alone: the one row of ``jensen_defects``.

    Raises ``FormatError`` when the supremum is not finite.
    """
    (report,) = jensen_defects([f])
    if isinstance(report, FormatError):
        raise report
    return report


def drygas_defect(g: BoundedFn) -> DefectReport:
    """sup over pairs of |g(yx) + g(sigma(y)x) - 2g(x) - g(y) - g(sigma(y))|."""
    t = g.carrier.window_terms()
    values, idxs, n = _combo_scan((g,), [t.yx, t.sy_x, t.x, t.y, t.sy], [1, 1, -2, -1, -1])
    return _defect_report(g.carrier, "drygas", values[0], idxs[0], n)


def _one_var_scan(
    fn_terms: Sequence[tuple[_Rows, complex, np.ndarray]],
    const: complex = 0j,
    tables: _Tables | None = None,
) -> tuple[list[float], list[int], int]:
    """Sup of |sum coeff_i * fn_i(points_i) + const| over a common index set,
    for each row: every term's fns are a tuple of as many functions, and row
    r sums the r-th function of each.

    Returns (one value per row, each row's first argmax mapped back to the
    full index set, number of scanned positions); see ``max_scan``.
    Positions whose points leave a tabulated box are skipped.

    The fns are read from ``tables`` (see ``_tabulate``), which a caller
    that scans the same fns several times builds once; without it the
    terms' distinct tuples are tabulated here, on the one domain of their
    point arrays. The chunks gather from the tables by position. A position
    is kept when every term reads an evaluable domain point (the mask
    ``_table_rows`` returns), so no kept position gathers the NaN it puts
    outside a table.
    """
    if tables is None:
        tables = _tabulate(list(dict.fromkeys(fns for fns, _, _ in fn_terms)), [pts for _, _, pts in fn_terms])
    rows, positions = tables
    mask = None
    terms = []
    for fns, coeff, pts in fn_terms:
        table, ok = rows[fns]
        pos = positions[id(pts)]
        if ok is not None:
            mask = ok[pos] if mask is None else mask & ok[pos]
        terms.append((coeff, table, pos))
    keep = None if mask is None else np.flatnonzero(mask)
    n = terms[0][2].shape[0] if keep is None else keep.shape[0]

    def chunk(start: int, stop: int) -> np.ndarray:
        at = slice(start, stop) if keep is None else keep[start:stop]
        # (first + const) + ... has the bits of (const + first) + ...; a zero
        # const would change only the sign of zero parts, which abs drops.
        acc = first.take(first_pos[at], axis=1)
        if const:
            acc += const
        for table, pos in rest:
            acc += table.take(pos[at], axis=1)
        return np.abs(acc)

    with np.errstate(**_QUIET):
        # coeff * table[pos] has the bits of (coeff * table)[pos].
        (first, first_pos), *rest = [(coeff * table, pos) for coeff, table, pos in terms]
        values, idxs = max_scan(n, chunk, first.shape[0])
    if keep is not None and n:
        idxs = [int(keep[i]) for i in idxs]
    return values, idxs, n


def inequality_suite(
    f: BoundedFn,
    phi: tuple[BoundedFn, PhiDiagnostics] | None = None,
    delta: float | None = None,
    tol: float = DEFAULT_TOL,
) -> list[InequalityRecord]:
    """Measure the chain of intermediate inequalities for f.

    ``delta`` defaults to the measured Jensen defect of f. ``phi`` is the
    ``(phi, diagnostics)`` pair of ``phi_mean_construction``; the final
    record compares |phi/2 - f_odd| against (5/2) delta plus its
    ``phi_error_budget``, the error budget of the approximate mean that
    built phi, and is skipped when phi is not supplied.
    """
    c = f.carrier
    if delta is None:
        delta = jensen_defect(f).delta
    f_e = f.eval(c.neutral)
    h = _MinusConst(f, f_e)
    # Each function is a one-row table of the suite, read at row 0.
    fr, hr, h_even, f_even, f_odd = (f,), (h,), (EvenPart(h),), (EvenPart(f),), (OddPart(f),)

    t = c.window_terms()
    W, X, Y, sY = t.w, t.x, t.y, t.sy
    # Each function evaluated once, all on the table domain of the window terms.
    tables = _tabulate([h_even, hr, f_even, fr, f_odd] + ([] if phi is None else [(phi[0],)]), list(t))

    records: list[InequalityRecord] = []

    def add(name: str, coeff: float, scanned: tuple | None, pair_domain: bool, extra: float = 0.0) -> None:
        """Record one inequality from row 0 of a scan; a scan of None was not
        evaluated, and holds."""
        value, idx = (None, -1) if scanned is None else (scanned[0][0], scanned[1][0])
        bound = coeff * delta + extra + tol
        if idx < 0:
            witness = None
        elif pair_domain:
            witness = (c.element_repr(X[idx]), c.element_repr(Y[idx]))
        else:
            witness = (c.element_repr(W[idx]),)
        status = "not_evaluated" if value is None else "evaluated"
        holds = value is None or value <= bound
        records.append(InequalityRecord(name, value, coeff, delta, extra, bound, holds, status, witness))

    # eq 2.9: |h_even(y)| <= delta/2.
    add("eq_2_9", 0.5, _one_var_scan([(h_even, 1, W)], tables=tables), False)

    # eq 2.10: |h(x^2) + h(x sigma(x)) - 2 h(x)| <= delta.
    add("eq_2_10", 1.0, _one_var_scan([(hr, 1, t.sq), (hr, 1, t.w_sw), (hr, -2, W)], tables=tables), False)

    # eq 2.11: |h(x^2) - 2 h(x)| <= 3 delta / 2.
    add("eq_2_11", 1.5, _one_var_scan([(hr, 1, t.sq), (hr, -2, W)], tables=tables), False)

    # eq 2.12: |f_even(y) - f(e)| <= delta/2.
    add("eq_2_12", 0.5, _one_var_scan([(f_even, 1, W)], -f_e, tables), False)

    # eq 2.13: |f(xy) + f(yx) - 2f(x) - 2f(y) + 2f(e)| <= 3 delta.
    add("eq_2_13", 3.0, _combo_scan(fr, [t.xy, t.yx, X, Y], [1, 1, -2, -2], const=2 * f_e, tables=tables), True)

    # eq 2.14: |f(yx) + f(sigma(y) x) - 2 f(x)| <= 9 delta.
    add("eq_2_14", 9.0, _combo_scan(fr, [t.yx, t.sy_x, X], [1, 1, -2], tables=tables), True)

    # eq 2.15: |f(yx) - f(sigma(x) sigma(y)) + f(y sigma(x)) - f(x sigma(y))
    #           - 2 (f(y) - f(sigma(y)))| <= 10 delta.
    add("eq_2_15", 10.0, _combo_scan(fr, [t.yx, t.sx_sy, t.y_sx, t.x_sy, Y, sY], [1, -1, 1, -1, -2, 2], tables=tables), True)

    # eq 2.16: |f_odd(yx) + f_odd(y sigma(x)) - 2 f_odd(y)| <= 5 delta.
    add("eq_2_16", 5.0, _combo_scan(f_odd, [t.yx, t.y_sx, Y], [1, 1, -2], tables=tables), True)

    # eq 2.21: |phi(y)/2 - f_odd(y)| <= (5/2) delta, plus the budget of the
    # approximate mean that built phi.
    scanned = None if phi is None else _one_var_scan([((phi[0],), 0.5, W), (f_odd, -1, W)], tables=tables)
    add("eq_2_21", 2.5, scanned, False, extra=0.0 if phi is None else phi[1].phi_error_budget)

    return records
