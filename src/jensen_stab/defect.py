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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .carrier import Carrier, FiniteCarrier
from .funcspace import (
    DEFAULT_TOL,
    BoundedFn,
    EvenPart,
    LatticeTableFn,
    OddPart,
    OracleFn,
    window_points,
)
from .scan import max_scan


@dataclass
class DefectReport:
    """Supremum of an equation residual with its witnessing pair."""

    equation: str
    delta: float
    witness: tuple | None
    domain_size: int
    exactness: str
    analytic_bound: float | None = None
    scanned_pairs: int | None = None

    def to_dict(self) -> dict:
        return {
            "equation": self.equation,
            "delta": self.delta,
            "witness": None if self.witness is None else list(self.witness),
            "domain_size": self.domain_size,
            "exactness": self.exactness,
            "analytic_bound": self.analytic_bound,
            "scanned_pairs": self.scanned_pairs,
        }


@dataclass
class InequalityRecord:
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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "measured_sup": self.measured_sup,
            "bound_coeff": self.bound_coeff,
            "delta": self.delta,
            "extra_budget": self.extra_budget,
            "bound": self.bound,
            "holds": self.holds,
            "status": self.status,
            "witness": None if self.witness is None else list(self.witness),
        }


class _MinusConst(BoundedFn):
    """View f(x) - z; used for h = f - f(e)."""

    def __init__(self, base: BoundedFn, z: complex) -> None:
        self.base = base
        self.carrier = base.carrier
        self.z = complex(z)

    def eval(self, x) -> complex:
        return self.base.eval(x) - self.z

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return self.base.eval_many(pts) - self.z


def _exactness(carrier: Carrier) -> str:
    return "exhaustive" if isinstance(carrier, FiniteCarrier) else "window_lower_bound"


def _underlying_table(fn: BoundedFn) -> LatticeTableFn | None:
    probe: BoundedFn | None = fn
    while probe is not None and not isinstance(probe, LatticeTableFn):
        probe = getattr(probe, "base", None)
    return probe


def _table_mask(fn: BoundedFn, pts: np.ndarray) -> np.ndarray | None:
    """Mask of scan positions whose points stay evaluable, None if all do.

    Even/odd views only compose the base table with negation, which maps
    the centered box to itself, so the base table's coverage is the right
    criterion for them as well.
    """
    table = _underlying_table(fn)
    if table is None:
        return None
    mask = table.covers(pts)
    return None if mask.all() else mask


def _combo_scan(
    fn: BoundedFn,
    point_arrays: Sequence[np.ndarray],
    coeffs: Sequence[complex],
    const: complex = 0j,
) -> tuple[float, int, int]:
    """Sup of |sum coeff_i * fn(points_i) + const|: ``_one_var_scan`` with one fn."""
    return _one_var_scan([(fn, coeff, pts) for pts, coeff in zip(point_arrays, coeffs)], const)


def jensen_defect(f: BoundedFn) -> DefectReport:
    """delta = sup over window pairs of |f(xy) + f(x sigma(y)) - 2 f(x)|."""
    c = f.carrier
    X, Y = c.window_pair_arrays()
    xy = c.compose_many(X, Y)
    x_sy = c.compose_many(X, c.involute_many(Y))
    value, idx, scanned = _combo_scan(f, [xy, x_sy, X], [1, 1, -2])
    total = X.shape[0]
    witness = None
    if idx >= 0:
        witness = (c.element_repr(X[idx]), c.element_repr(Y[idx]))
    analytic = None
    if isinstance(f, OracleFn) and f.noise is not None:
        analytic = 4.0 * f.noise_bound()
    return DefectReport(
        equation="jensen",
        delta=value,
        witness=witness,
        domain_size=total,
        exactness=_exactness(c),
        analytic_bound=analytic,
        scanned_pairs=scanned if scanned != total else None,
    )


def drygas_defect(g: BoundedFn) -> DefectReport:
    """sup over pairs of |g(yx) + g(sigma(y)x) - 2g(x) - g(y) - g(sigma(y))|."""
    c = g.carrier
    X, Y = c.window_pair_arrays()
    sy = c.involute_many(Y)
    yx = c.compose_many(Y, X)
    sy_x = c.compose_many(sy, X)
    value, idx, scanned = _combo_scan(g, [yx, sy_x, X, Y, sy], [1, 1, -2, -1, -1])
    total = X.shape[0]
    witness = None
    if idx >= 0:
        witness = (c.element_repr(X[idx]), c.element_repr(Y[idx]))
    return DefectReport(
        equation="drygas",
        delta=value,
        witness=witness,
        domain_size=total,
        exactness=_exactness(c),
        scanned_pairs=scanned if scanned != total else None,
    )


def _one_var_scan(fn_terms: Sequence[tuple[BoundedFn, complex, np.ndarray]], const: complex = 0j) -> tuple[float, int, int]:
    """Sup of |sum coeff_i * fn_i(points_i) + const| over a common index set.

    Returns (value, first argmax mapped back to the full index set, number
    of scanned positions); positions whose points leave a tabulated box are
    skipped.
    """
    mask = None
    for fn, _, pts in fn_terms:
        m = _table_mask(fn, pts)
        if m is not None:
            mask = m if mask is None else (mask & m)
    keep = None
    if mask is not None:
        keep = np.flatnonzero(mask)
        fn_terms = [(fn, coeff, pts[keep]) for fn, coeff, pts in fn_terms]
    n = fn_terms[0][2].shape[0]

    def chunk(start: int, stop: int) -> np.ndarray:
        acc = np.full(stop - start, const, dtype=np.complex128)
        for fn, coeff, pts in fn_terms:
            acc += coeff * fn.eval_many(pts[start:stop])
        return np.abs(acc)

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

    W = window_points(c)
    X, Y = c.window_pair_arrays()
    sX = c.involute_many(X)
    sY = c.involute_many(Y)
    xy = c.compose_many(X, Y)
    yx = c.compose_many(Y, X)
    x_sy = c.compose_many(X, sY)
    y_sx = c.compose_many(Y, sX)
    sy_x = c.compose_many(sY, X)
    sx_sy = c.compose_many(sX, sY)
    sq = c.square_many(W)
    w_sw = c.compose_many(W, c.involute_many(W))

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
    value, idx, _ = _one_var_scan([(h, 1, sq), (h, 1, w_sw), (h, -2, W)])
    add("eq_2_10", 1.0, value, idx, False)

    # eq 2.11: |h(x^2) - 2 h(x)| <= 3 delta / 2.
    value, idx, _ = _one_var_scan([(h, 1, sq), (h, -2, W)])
    add("eq_2_11", 1.5, value, idx, False)

    # eq 2.12: |f_even(y) - f(e)| <= delta/2.
    value, idx, _ = _one_var_scan([(f_even, 1, W)], const=-f_e)
    add("eq_2_12", 0.5, value, idx, False)

    # eq 2.13: |f(xy) + f(yx) - 2f(x) - 2f(y) + 2f(e)| <= 3 delta.
    value, idx, _ = _combo_scan(f, [xy, yx, X, Y], [1, 1, -2, -2], const=2 * f_e)
    add("eq_2_13", 3.0, value, idx, True)

    # eq 2.14: |f(yx) + f(sigma(y) x) - 2 f(x)| <= 9 delta.
    value, idx, _ = _combo_scan(f, [yx, sy_x, X], [1, 1, -2])
    add("eq_2_14", 9.0, value, idx, True)

    # eq 2.15: |f(yx) - f(sigma(x) sigma(y)) + f(y sigma(x)) - f(x sigma(y))
    #           - 2 (f(y) - f(sigma(y)))| <= 10 delta.
    value, idx, _ = _combo_scan(f, [yx, sx_sy, y_sx, x_sy, Y, sY], [1, -1, 1, -1, -2, 2])
    add("eq_2_15", 10.0, value, idx, True)

    # eq 2.16: |f_odd(yx) + f_odd(y sigma(x)) - 2 f_odd(y)| <= 5 delta.
    value, idx, _ = _combo_scan(f_odd, [yx, y_sx, Y], [1, 1, -2])
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
