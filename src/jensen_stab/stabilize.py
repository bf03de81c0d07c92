"""Constructions of the exact Jensen/Drygas solution near an approximate one.

Three independent procedures are implemented:

* the dyadic limit g(x) = lim 2^-n (f(x^(2^n)) - f(e)), the direct method
  along repeated squaring;
* the two-block partial-sum reconstruction of the nearby Drygas solution
  from even and odd parts;
* the averaged construction phi(y) = m{ x -> f_odd(yx) - f_odd(x sigma(y)) },
  whose half is the Jensen solution, with the invariant mean m realized as
  the exact uniform average on finite groups and as Folner box averages on
  lattices.

The invariant mean itself is nonconstructive; wherever a Folner average
stands in for it, the substitution error is carried explicitly in
``error_budget`` instead of being silently absorbed into the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .defect import _MinusConst, jensen_defect
from .errors import FormatError, JensenStabError, NonConvergenceError
from .funcspace import BoundedFn, EvenPart, OddPart, TableFn
from .records import Record

DEFAULT_N_MAX = 40
DEFAULT_CONV_TOL = 1e-10


@dataclass
class DyadicTrace(Record):
    """Iterates and successive differences of one pointwise limit.

    Shared by the dyadic limit and the two-block reconstruction.
    """

    values: list[complex]
    diffs: list[float]
    n_final: int


@dataclass
class MeanValue(Record):
    """An averaged value with its measured translation-invariance residual."""

    value: complex
    k_used: int
    set_size: int
    invariance_residual: float
    mode: str


@dataclass
class PhiDiagnostics(Record):
    """Error accounting for one averaged phi construction."""

    mode: str
    k_used: int
    set_size: int
    phi_error_budget: float
    odd_noise_bound: float
    boundary_ratio_max: float
    probe_invariance_residual: float


@dataclass
class StabilizationResult(Record):
    """A constructed solution g with g(e) = 0, plus its error accounting."""

    g: BoundedFn = field(metadata={"key": None})
    offset: complex
    method: str
    variant: str
    iterations_or_k: int
    convergence_trace: list[float]
    error_budget: float
    delta_used: float
    diagnostics: dict = field(default_factory=dict)


METHODS = ("mean", "dyadic", "dyadic_full", "forti_sikorska")


def _not_converged(what: str, n_max: int, diffs: list[float]) -> NonConvergenceError:
    last = f" (last step {diffs[-1]:.3e})" if diffs else ""
    return NonConvergenceError(f"{what} did not converge within n_max={n_max}{last}", trace=diffs)


# A block holds at most this many levels (a lattice meets the 2^61 guard
# before that) and, unless one level alone is larger, at most this many
# stacked points.
_BLOCK_LEVELS = 64
_BLOCK_POINTS = 1 << 13


def _iterate_levels(
    what: str,
    run: Callable[[int, int], np.ndarray],
    level_points: Callable[[int], int],
    n_max: int,
    conv_tol: float,
) -> tuple[np.ndarray, list[float], int, list[np.ndarray]]:
    """``run(n, size)`` returns levels n ... n + size - 1 as rows.

    Stops at the first level whose step from the one before is at most
    conv_tol, and returns it with the steps, its index and every level (row
    views of the blocks, not copies). Levels run in blocks: levels 0 to 2, for
    the two steps the ratio predictor needs, then up to the level where the
    ratio of the last two steps predicts a step at most conv_tol, within
    _BLOCK_LEVELS levels and, unless the block is one level, _BLOCK_POINTS
    stacked points (``level_points(k)`` for level k). A block that raises is
    replayed one level at a time, and so is every later level, so results and
    errors are those of single levels. With conv_tol = 0 or n_max < 2 every
    level runs alone.
    """
    levels: list[np.ndarray] = []
    diffs: list[float] = []
    blocks = conv_tol > 0 and n_max > 1
    while len(levels) <= n_max:
        n = len(levels)
        size = 3 if blocks and not n else 1
        if blocks and len(diffs) > 1 and 0 < diffs[-1] / diffs[-2] < 1:
            ahead = (math.log(conv_tol) - math.log(diffs[-1])) / math.log(diffs[-1] / diffs[-2])
            size = min(n_max + 1 - n, _BLOCK_LEVELS, math.ceil(ahead))
        total = level_points(n)
        for k in range(n + 1, n + size):
            total += level_points(k)
            if total > _BLOCK_POINTS:
                size = k - n
                break
        try:
            block = run(n, size)
        except JensenStabError:
            if size == 1:
                raise
            blocks = False
            continue
        rows = np.concatenate([levels[-1][None], block]) if levels else block
        steps = np.maximum.reduce(np.abs(rows[1:] - rows[:-1]), axis=1).tolist()
        if not levels:
            levels.append(block[0])
        for vals, step in zip(block[size - len(steps):], steps):
            levels.append(vals)
            diffs.append(step)
            if step <= conv_tol:
                return vals, diffs, len(diffs), levels
    raise _not_converged(what, n_max, diffs)


# ----------------------------------------------------------------------------
# Dyadic limit


def dyadic_limit(
    f: BoundedFn,
    x,
    n_max: int = DEFAULT_N_MAX,
    tol: float = DEFAULT_CONV_TOL,
) -> tuple[complex, DyadicTrace]:
    """g(x) = lim 2^-n (f(x^(2^n)) - f(e)), stopped by successive differences.

    Returns the first iterate whose step is at most ``tol`` together with
    the full trace. Raises ``NonConvergenceError`` with the trace if the
    step never falls below ``tol``, and ``LatticeOverflowError`` if a
    lattice power leaves the safe integer range first (for affine oracles
    convergence arrives long before overflow).
    """
    return _pointwise(_dyadic_iterate, f, x, n_max, tol)


def _pointwise(iterate: Callable, f: BoundedFn, x, n_max: int, tol: float) -> tuple[complex, DyadicTrace]:
    """The limit of ``iterate`` at the one element x, with the trace of its levels."""
    vals, diffs, n_final, levels = iterate(f, f.carrier.row(x), n_max, tol)
    return complex(vals[0]), DyadicTrace([complex(v[0]) for v in levels], diffs, n_final)


def _dyadic_iterate(
    target: BoundedFn,
    pts: np.ndarray,
    n_max: int,
    conv_tol: float,
) -> tuple[np.ndarray, list[float], int, list[np.ndarray]]:
    """Vectorized dyadic iteration of ``target`` at pts until a step is at most conv_tol.

    All points iterate to the same depth so that one a posteriori tail
    bound covers every point. Levels run in blocks (see ``_iterate_levels``),
    level 0 among them, each evaluated in one call at the carrier's
    ``dyadic_levels`` of pts.
    """
    c = target.carrier
    t_e = target.eval(c.neutral)
    m = pts.shape[0]
    power = c.dyadic_levels(pts)

    def run(n: int, size: int) -> np.ndarray:
        block = target.eval_many(np.concatenate([power(k) for k in range(n, n + size)])).reshape(size, m) - t_e
        # Level 0 is left unscaled: numpy multiplies a complex by 1.0 as by
        # 1 + 0j, which changes the bits of -0.0 and inf.
        block[int(not n) :] *= np.ldexp(1.0, -np.arange(n or 1, n + size))[:, None]
        return block

    # Values that overflow make the steps inf or NaN, so the loop ends in
    # NonConvergenceError; numpy's warnings would only reach stderr ahead of that.
    with np.errstate(over="ignore", invalid="ignore"):
        return _iterate_levels("dyadic limit", run, lambda k: m, n_max, conv_tol)


# ----------------------------------------------------------------------------
# Means and the phi construction


def folner_mean(h: BoundedFn, k: int | None = None) -> MeanValue:
    """Average h over the carrier's mean set and probe its invariance.

    The mean set is all of G on finite groups and the Folner box of radius
    k on lattices (see the carriers' ``mean_set``). The invariance residual
    compares the mean against the mean of the probe's left translate.
    """
    c = h.carrier
    pts, k_used, probe = c.mean_set(k)
    m0 = h.eval_many(pts).mean()
    m1 = h.eval_many(c.compose_many(probe, pts)).mean()
    return MeanValue(complex(m0), k_used, pts.shape[0], float(abs(m1 - m0)), c.mean_capability)


def phi_mean_construction(f: BoundedFn, k: int | None = None) -> tuple[TableFn, PhiDiagnostics]:
    """Tabulate phi(y) = mean over x of [f_odd(yx) - f_odd(x sigma(y))].

    The returned diagnostics carry the Folner substitution budget: a bound on
    sup_y |phi_k(y) - phi(y)| in terms of the boundary fraction of the box
    and the sup-norm of the bounded (non-additive) part of the integrand's
    source. On finite groups the average is a true invariant mean and the
    budget is zero.
    """
    c = f.carrier
    pts, k_used, _ = c.mean_set(k)
    f_e = f.eval(c.neutral)
    # Tabulate f_odd once over every point y x and x sigma(y) can reach (all
    # of G, or the box of radius k + N), so each block of window rows y below
    # only reads that table (see the carrier's ``reach``). The difference is
    # laid out in C order, as it is from two gathers, also when a block is a
    # strided window of the table, so the mean of a row has the bits of a 1-d mean.
    # Values that overflow make phi non-finite, which c.table_fn rejects with a
    # FormatError; numpy's warnings would only reach stderr ahead of it.
    reach, rows = c.reach(pts, k_used)
    with np.errstate(over="ignore", invalid="ignore"):
        table = OddPart(f).eval_many(reach)
        phi = c.table_fn(np.concatenate([np.subtract(yx, xsy, order="C").mean(axis=1) for yx, xsy in rows(table)]))

    m_bound = 0.0 if f.noise is None else f.noise.odd_part_bound()
    ratio_max = c.mean_translate_ratio(k_used)
    probe_res = folner_mean(_ProbeFn(EvenPart(f), f_e), k_used).invariance_residual
    diag = PhiDiagnostics(
        c.mean_capability, k_used, pts.shape[0], 2.0 * m_bound * ratio_max, m_bound, ratio_max, probe_res
    )
    return phi, diag


class _ProbeFn(_MinusConst):
    """f_even - f(e): a bounded probe carrying the non-additive fluctuation."""

    # Its own attribute, not inherited: perfbench's tracer patches this name apart from _MinusConst's.
    eval_many = _MinusConst.eval_many


# ----------------------------------------------------------------------------
# Two-block reconstruction of the nearby Drygas solution


def _fs_iterate(
    f: BoundedFn,
    pts: np.ndarray,
    n_max: int,
    conv_tol: float,
) -> tuple[np.ndarray, list[float], int, list[np.ndarray]]:
    """Two-block partial expressions of f at pts for n = 0, 1, ... until a step is at most conv_tol.

    Level n reads f at x^(2^n) and at 2n pair rows, for j < n the row
    (x^(2^j) sigma(x)^(2^j))^(2^(n-1-j)) and then its mirror
    (sigma(x)^(2^j) x^(2^j))^(2^(n-1-j)): the carrier's ``pair_levels`` and
    ``dyadic_levels`` of pts. Where the carrier's ``sigma_is_inverse`` holds,
    every pair row is e: no pair rows are built, f is read at e once per run,
    and all pair sums are prefix sums of one sequence (see ``_fs_pair_sums``).
    Levels run in blocks (see ``_iterate_levels``), evaluated in ``_fs_levels``.
    """
    c = f.carrier
    m = pts.shape[0]
    power = c.dyadic_levels(pts)
    points = (lambda k: 2 * m) if c.sigma_is_inverse else (lambda k: 2 * (2 * k + 1) * m)
    # Levels past the one that converges are computed too, and values that
    # overflow make the result non-finite, which table_fn rejects; numpy's
    # warnings would only reach stderr ahead of that.
    with np.errstate(over="ignore", invalid="ignore"):
        if c.sigma_is_inverse:
            (f_e,) = f.eval_many(c.row(c.neutral))
            held = np.zeros((2, 0, 1), dtype=np.complex128)

            def sums(n: int, size: int) -> np.ndarray:
                # Grown as blocks need (n_max may be huge); element k of an accumulate reads 0 ... k alone.
                nonlocal held
                if held.shape[1] < n + size:
                    top = min(n_max, max(_BLOCK_LEVELS, 2 * (n + size)))
                    terms = np.zeros((2, top + 1, 1), dtype=np.complex128)
                    terms[0, 1:, 0] = (f_e + f_e) * np.ldexp(1.0, np.arange(top))
                    terms[1, 1:, 0] = f_e - f_e
                    held = np.add.accumulate(terms, axis=1)
                return held[:, n : n + size]
        else:
            pairs = c.pair_levels(pts)
            sums = lambda n, size: _fs_pair_sums(f, [pairs(k) for k in range(n, n + size)], n, m)

        def run(n: int, size: int) -> np.ndarray:
            return _fs_levels(f, sums(n, size), [power(k) for k in range(n, n + size)], n)

        return _iterate_levels("reconstruction", run, points, n_max, conv_tol)


def _fs_pair_sums(f: BoundedFn, pair_rows: list[np.ndarray], k0: int, m: int) -> np.ndarray:
    """The even and odd pair sums of levels k0, k0 + 1, ..., shape (2, levels, m).

    ``pair_rows[i]`` holds the pair rows of level k0 + i, left and right
    alternating. Every pair row is sigma-fixed: sigma(x sigma(x)) = x sigma(x)
    and sigma(z^2) = sigma(z)^2, so f_even is f there and f is read there once.
    Where both parts of f are at most DBL_MAX / 2 in modulus this is the value
    of the halved sum (f + f o sigma) / 2 (above that the sum overflowed to
    inf); the bits can differ only in the sign of a zero part, as numpy
    divides a complex by 2 as by 2 + 0j.

    Level k sums k terms t = 0 ... k-1: the even sum 2^t times the left plus
    right rows k-1-t, the odd sum the left minus right rows t. Each sum is
    added one term at a time from +0, as np.add.accumulate does along a term
    axis front-padded with zeros to the block's last level (np.add.reduce
    may sum pairwise, which moves the last bits). When every row is e, the
    terms of level k are the first k of one sequence, so the sums of every
    level are the prefix sums of that one sequence, with the same bits.
    """
    size = len(pair_rows)
    top = k0 + size - 1
    ks = np.arange(k0, top + 1)[:, None]
    pairs = f.eval_many(np.concatenate(pair_rows)).reshape(-1, m) if top else np.zeros((0, m), dtype=np.complex128)
    left, right = pairs[0::2], pairs[1::2]
    # Row j < k of level k goes to column top - j of its even sum and to
    # column top - k + 1 + j of its odd one, so column 0 is always zero.
    t = np.arange(top + 1)
    terms = np.zeros((2, size, top + 1, m), dtype=np.complex128)
    has = t < ks
    terms[0, :, ::-1][has] = (left + right) * np.ldexp(1.0, ks - 1 - t)[has][:, None]
    terms[1][t > top - ks] = left - right
    return np.add.accumulate(terms, axis=2)[:, :, -1]


def _fs_levels(f: BoundedFn, sums: np.ndarray, xs: list[np.ndarray], k0: int) -> np.ndarray:
    """Levels k0, k0 + 1, ... of the two-block expression, one row each, from
    the points ``xs[i]`` and even and odd pair sums ``sums[:, i]`` of level k0
    + i. f is read once, at every x^(2^k) row with its involute, and the even
    and odd parts there are formed as ``EvenPart`` and ``OddPart`` form them."""
    m = xs[0].shape[0]
    size = len(xs)
    ks = np.arange(k0, k0 + size)[:, None]
    x = np.concatenate(xs)
    both = f.eval_many(np.concatenate([x, f.carrier.involute_many(x)]))
    x1, x2 = both[: x.shape[0]], both[x.shape[0] :]
    even_x = ((x1 + x2) / 2).reshape(size, m)
    odd_x = x1.reshape(size, m) - even_x
    even_block = (even_x + 0.5 * sums[0]) * np.ldexp(1.0, -2 * ks)
    odd_block = (odd_x + 0.5 * sums[1]) * np.ldexp(1.0, -ks)
    return even_block + odd_block


def forti_sikorska_reconstruct(
    f: BoundedFn,
    x,
    n_max: int = DEFAULT_N_MAX,
    tol: float = DEFAULT_CONV_TOL,
) -> tuple[complex, DyadicTrace]:
    """Reconstruct the nearby Drygas solution at x from partial expressions.

    Evaluates the two-block partial expression at increasing level n and
    stops when successive levels differ by at most ``tol``. For f within
    bounded distance of a Drygas solution g the levels converge to g(x) at
    a geometric rate.
    """
    return _pointwise(_fs_iterate, f, x, n_max, tol)


# ----------------------------------------------------------------------------
# The assembled approximants


def jensen_approximant(
    f: BoundedFn,
    method: str,
    delta: float | None = None,
    folner_k: int | None = None,
    n_max: int = DEFAULT_N_MAX,
    conv_tol: float = DEFAULT_CONV_TOL,
    phi: tuple[TableFn, PhiDiagnostics] | None = None,
) -> StabilizationResult:
    """Construct the normalized solution g (g(e) = 0) near f by one method.

    Methods: ``mean`` (g = phi/2 from the averaged construction),
    ``dyadic`` (dyadic limit of the odd part), ``dyadic_full`` (dyadic
    limit of f itself, the variant whose sharper 3 delta / 2 bound is checked
    separately), and ``forti_sikorska`` (partial-expression reconstruction,
    renormalized at e). The offset f(e) is returned alongside; stability is
    always judged on |f(x) - g(x) - offset|.

    ``phi`` is the ``(phi, diagnostics)`` pair that
    ``phi_mean_construction(f, folner_k)`` returned, for a caller that has
    already built it; ``mean`` builds it when it is not given.
    """
    if method not in METHODS:
        raise FormatError(f"unknown method {method!r}; expected one of {METHODS}")
    c = f.carrier
    if delta is None:
        delta = jensen_defect(f).delta
    offset = f.eval(c.neutral)

    if method == "mean":
        phi_fn, diag = phi if phi is not None else phi_mean_construction(f, folner_k)
        vals, variant, n_final, diffs = phi_fn.values * 0.5, "phi_half", diag.k_used, []
        budget, diagnostics = diag.phi_error_budget / 2.0, diag.to_dict()
    elif method in ("dyadic", "dyadic_full"):
        target = f if method == "dyadic_full" else OddPart(f)
        vals, diffs, n_final, _ = _dyadic_iterate(target, c.window_points(), n_max, conv_tol)
        variant = "full" if method == "dyadic_full" else "odd_part"
        budget, diagnostics = 1.5 * delta * 0.5**n_final, {"conv_tol": conv_tol}
    else:
        vals, diffs, n_final, _ = _fs_iterate(f, c.window_points(), n_max, conv_tol)
        at_e = vals[c.neutral_position]
        vals = vals - at_e
        variant = "drygas_reconstruction"
        # Tail of a geometric trace plus the renormalization shift, a posteriori.
        budget = float(4.0 * diffs[-1] + 2.0 * abs(at_e))
        diagnostics = {"conv_tol": conv_tol, "renormalization": float(abs(at_e))}
    return StabilizationResult(
        g=c.table_fn(vals), offset=offset, method=method, variant=variant, iterations_or_k=n_final,
        convergence_trace=diffs, error_budget=budget, delta_used=delta, diagnostics=diagnostics,
    )
