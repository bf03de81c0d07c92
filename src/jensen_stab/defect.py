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
from typing import Callable, Sequence

import numpy as np

from .carrier import WindowTerms
from .errors import FormatError
from .funcspace import (
    DEFAULT_TOL,
    BoundedFn,
    EvenPart,
    LatticeTableFn,
    OddPart,
    OracleFn,
)
from .records import Record
from .scan import max_scan

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


def _table_mask(fn: BoundedFn, pts: np.ndarray) -> np.ndarray | None:
    """Mask of scan positions whose points stay evaluable, None if all do.

    A view reads its base at the points, and an even or odd view reads it at
    their involutes as well; every point read must lie in the base table's
    box. An involution other than negation can map points of the box out of it.
    """
    reads = [pts]
    while not isinstance(fn, LatticeTableFn):
        if isinstance(fn, (EvenPart, OddPart)):
            reads += [fn.carrier.involute_many(a) for a in reads]
        fn = getattr(fn, "base", None)
        if fn is None:
            return None
    mask = fn.covers(reads[0])
    for a in reads[1:]:
        mask = mask & fn.covers(a)
    return None if mask.all() else mask


def _table_values(fn: BoundedFn, domain: np.ndarray) -> np.ndarray:
    """fn on the domain; NaN where it would read outside its table, which no kept position gathers."""
    mask = _table_mask(fn, domain)
    if mask is None:
        return fn.eval_many(domain)
    vals = np.full(domain.shape[0], np.nan, dtype=np.complex128)
    vals[mask] = fn.eval_many(domain[mask])
    return vals


def _combo_scan(
    fn: BoundedFn,
    point_arrays: Sequence[np.ndarray],
    coeffs: Sequence[complex],
    const: complex = 0j,
) -> tuple[float, int, int]:
    """Sup of |sum coeff_i * fn(points_i) + const|: ``_one_var_scan`` with one fn."""
    return _one_var_scan([(fn, coeff, pts) for pts, coeff in zip(point_arrays, coeffs)], const)


def _pair_defect(
    fn: BoundedFn,
    equation: str,
    terms: Callable[[WindowTerms], list[np.ndarray]],
    coeffs: Sequence[complex],
    analytic: float | None = None,
) -> DefectReport:
    """Sup over window pairs (x, y) of |sum coeff_i * fn(terms_i(x, y))|.

    Raises ``FormatError`` when the supremum is not finite (the values of fn
    overflow float arithmetic), naming the first witnessing pair.
    """
    c = fn.carrier
    t = c.window_terms()
    X, Y = t.x, t.y
    value, idx, scanned = _combo_scan(fn, terms(t), coeffs)
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


def _jensen_terms(t: WindowTerms) -> list[np.ndarray]:
    return [t.xy, t.x_sy, t.x]


def _drygas_terms(t: WindowTerms) -> list[np.ndarray]:
    return [t.yx, t.sy_x, t.x, t.y, t.sy]


def jensen_defect(f: BoundedFn) -> DefectReport:
    """delta = sup over window pairs of |f(xy) + f(x sigma(y)) - 2 f(x)|."""
    analytic = None
    if isinstance(f, OracleFn) and f.noise is not None:
        analytic = 4.0 * f.noise_bound()
    return _pair_defect(f, "jensen", _jensen_terms, [1, 1, -2], analytic)


def drygas_defect(g: BoundedFn) -> DefectReport:
    """sup over pairs of |g(yx) + g(sigma(y)x) - 2g(x) - g(y) - g(sigma(y))|."""
    return _pair_defect(g, "drygas", _drygas_terms, [1, 1, -2, -1, -1])


def _one_var_scan(fn_terms: Sequence[tuple[BoundedFn, complex, np.ndarray]], const: complex = 0j) -> tuple[float, int, int]:
    """Sup of |sum coeff_i * fn_i(points_i) + const| over a common index set.

    Returns (value, first argmax mapped back to the full index set, number
    of scanned positions); positions whose points leave a tabulated box are
    skipped.

    Each distinct fn is evaluated once, on the carrier's table domain of
    its points (all of G, or the smallest centred box), and the chunks
    gather from that table by position. The domain and positions are those
    of the full terms, which the carrier holds for its window terms; a
    mask keeps the positions of the scanned index set, none of which
    gathers the NaN that ``_table_values`` puts outside a table.
    """
    mask = None
    for fn, _, pts in fn_terms:
        m = _table_mask(fn, pts)
        if m is not None:
            mask = m if mask is None else (mask & m)
    keep = None if mask is None else np.flatnonzero(mask)
    n = fn_terms[0][2].shape[0] if keep is None else keep.shape[0]
    gathers = []
    if n:
        by_fn: dict[int, tuple[BoundedFn, list[np.ndarray]]] = {}
        for fn, _, pts in fn_terms:
            by_fn.setdefault(id(fn), (fn, []))[1].append(pts)
        reads = {}
        for key, (fn, arrays) in by_fn.items():
            domain, positions = fn.carrier.table_domain(arrays)
            reads[key] = (_table_values(fn, domain), iter(positions))
        # coeff * table[pos] has the bits of (coeff * table)[pos].
        with np.errstate(**_QUIET):
            for fn, coeff, _ in fn_terms:
                table, positions = reads[id(fn)]
                pos = next(positions)
                gathers.append((coeff * table, pos if keep is None else pos[keep]))

    def chunk(start: int, stop: int) -> np.ndarray:
        acc = np.full(stop - start, const, dtype=np.complex128)
        for table, pos in gathers:
            acc += table[pos[start:stop]]
        return np.abs(acc)

    with np.errstate(**_QUIET):
        value, idx = max_scan(n, chunk)
    if keep is not None and idx >= 0:
        idx = int(keep[idx])
    return value, idx, n


def inequality_suite(
    f: BoundedFn,
    phi: BoundedFn | None = None,
    delta: float | None = None,
    mean_budget: float = 0.0,
    tol: float = DEFAULT_TOL,
) -> list[InequalityRecord]:
    """Measure the chain of intermediate inequalities for f.

    ``delta`` defaults to the measured Jensen defect of f. The final record
    compares |phi/2 - f_odd| against (5/2) delta plus ``mean_budget``, the
    error budget of the approximate mean that built phi; it is skipped when
    phi is not supplied.
    """
    c = f.carrier
    if delta is None:
        delta = jensen_defect(f).delta
    f_e = f.eval(c.neutral)
    h = _MinusConst(f, f_e)
    h_even = EvenPart(h)
    f_even = EvenPart(f)
    f_odd = OddPart(f)

    t = c.window_terms()
    W, X, Y, sY = t.w, t.x, t.y, t.sy

    records: list[InequalityRecord] = []

    def add(name: str, coeff: float, value: float, idx: int, pair_domain: bool, extra: float = 0.0) -> None:
        bound = coeff * delta + extra + tol
        if idx < 0:
            witness = None
        elif pair_domain:
            witness = (c.element_repr(X[idx]), c.element_repr(Y[idx]))
        else:
            witness = (c.element_repr(W[idx]),)
        records.append(
            InequalityRecord(
                name=name,
                measured_sup=value,
                bound_coeff=coeff,
                delta=delta,
                extra_budget=extra,
                bound=bound,
                holds=value <= bound,
                status="evaluated",
                witness=witness,
            )
        )

    # eq 2.9: |h_even(y)| <= delta/2.
    value, idx, _ = _one_var_scan([(h_even, 1, W)])
    add("eq_2_9", 0.5, value, idx, False)

    # eq 2.10: |h(x^2) + h(x sigma(x)) - 2 h(x)| <= delta.
    value, idx, _ = _one_var_scan([(h, 1, t.sq), (h, 1, t.w_sw), (h, -2, W)])
    add("eq_2_10", 1.0, value, idx, False)

    # eq 2.11: |h(x^2) - 2 h(x)| <= 3 delta / 2.
    value, idx, _ = _one_var_scan([(h, 1, t.sq), (h, -2, W)])
    add("eq_2_11", 1.5, value, idx, False)

    # eq 2.12: |f_even(y) - f(e)| <= delta/2.
    value, idx, _ = _one_var_scan([(f_even, 1, W)], const=-f_e)
    add("eq_2_12", 0.5, value, idx, False)

    # eq 2.13: |f(xy) + f(yx) - 2f(x) - 2f(y) + 2f(e)| <= 3 delta.
    value, idx, _ = _combo_scan(f, [t.xy, t.yx, X, Y], [1, 1, -2, -2], const=2 * f_e)
    add("eq_2_13", 3.0, value, idx, True)

    # eq 2.14: |f(yx) + f(sigma(y) x) - 2 f(x)| <= 9 delta.
    value, idx, _ = _combo_scan(f, [t.yx, t.sy_x, X], [1, 1, -2])
    add("eq_2_14", 9.0, value, idx, True)

    # eq 2.15: |f(yx) - f(sigma(x) sigma(y)) + f(y sigma(x)) - f(x sigma(y))
    #           - 2 (f(y) - f(sigma(y)))| <= 10 delta.
    value, idx, _ = _combo_scan(f, [t.yx, t.sx_sy, t.y_sx, t.x_sy, Y, sY], [1, -1, 1, -1, -2, 2])
    add("eq_2_15", 10.0, value, idx, True)

    # eq 2.16: |f_odd(yx) + f_odd(y sigma(x)) - 2 f_odd(y)| <= 5 delta.
    value, idx, _ = _combo_scan(f_odd, [t.yx, t.y_sx, Y], [1, 1, -2])
    add("eq_2_16", 5.0, value, idx, True)

    # eq 2.21: |phi(y)/2 - f_odd(y)| <= (5/2) delta, plus the budget of the
    # approximate mean that built phi.
    if phi is None:
        records.append(
            InequalityRecord(
                name="eq_2_21",
                measured_sup=None,
                bound_coeff=2.5,
                delta=delta,
                extra_budget=mean_budget,
                bound=2.5 * delta + mean_budget + tol,
                holds=True,
                status="not_evaluated",
                witness=None,
            )
        )
    else:
        value, idx, _ = _one_var_scan([(phi, 0.5, W), (f_odd, -1, W)])
        add("eq_2_21", 2.5, value, idx, False, extra=mean_budget)

    return records
