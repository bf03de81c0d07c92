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

from .defect import jensen_defect
from .errors import JensenStabError, NonConvergenceError
from .funcspace import BoundedFn, EvenPart, OddPart, OracleFn, TableFn, table_fn
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
    converged: bool


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
    first: np.ndarray,
    run: Callable[[int, int], np.ndarray],
    level_points: Callable[[int], int],
    n_max: int,
    conv_tol: float,
    collect_values: bool,
) -> tuple[np.ndarray, list[float], int, list[np.ndarray]]:
    """Level 0 is ``first``; ``run(n, size)`` returns levels n + 1 ... n + size as rows.

    Stops at the first level whose step from the one before is at most
    conv_tol. Levels run in blocks: up to the level where the ratio of the
    last two steps predicts a step at most conv_tol, within _BLOCK_LEVELS
    levels and, unless the block is one level, _BLOCK_POINTS stacked points
    (``level_points(k)`` for level k). A block that raises is replayed one
    level at a time, and so is every later level, so results and errors are
    those of single levels. With conv_tol = 0 every level runs alone.
    """
    prev = first
    levels = [first] if collect_values else []
    diffs: list[float] = []
    blocks = conv_tol > 0
    n = 0
    while n < n_max:
        size = 1
        if blocks and len(diffs) > 1 and 0 < diffs[-1] / diffs[-2] < 1:
            ahead = (math.log(conv_tol) - math.log(diffs[-1])) / math.log(diffs[-1] / diffs[-2])
            size = min(n_max - n, _BLOCK_LEVELS, math.ceil(ahead))
            total = level_points(n + 1)
            for k in range(n + 2, n + size + 1):
                total += level_points(k)
                if total > _BLOCK_POINTS:
                    size = k - n - 1
                    break
        try:
            block = run(n, size)
        except JensenStabError:
            if size == 1:
                raise
            blocks = False
            continue
        steps = np.maximum.reduce(np.abs(block - np.concatenate([prev[None], block[:-1]])), axis=1).tolist()
        for vals, step in zip(block, steps):
            n += 1
            if collect_values:
                levels.append(vals)
            diffs.append(step)
            if step <= conv_tol:
                return vals, diffs, n, levels
        prev = block[-1]
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
    pts = f.carrier.row(x)
    vals, diffs, n_final, levels = _dyadic_iterate(f, pts, n_max, tol, collect_values=True)
    return complex(vals[0]), DyadicTrace([complex(v[0]) for v in levels], diffs, n_final, True)


def _dyadic_iterate(
    target: BoundedFn,
    pts: np.ndarray,
    n_max: int,
    conv_tol: float,
    collect_values: bool = False,
) -> tuple[np.ndarray, list[float], int, list[np.ndarray]]:
    """Vectorized dyadic iteration of ``target`` at pts until a step is at most conv_tol.

    All points iterate to the same depth so that one a posteriori tail
    bound covers every point. With ``collect_values`` every level is kept.
    Levels run in blocks (see ``_iterate_levels``), each squared level by
    level and evaluated once.
    """
    c = target.carrier
    t_e = target.eval(c.neutral)
    m = pts.shape[0]
    cur = pts

    def run(n: int, size: int) -> np.ndarray:
        nonlocal cur
        powers = [cur]
        for _ in range(size):
            powers.append(c.square_many(powers[-1]))
        block = target.eval_many(np.concatenate(powers[1:])).reshape(size, m)
        cur = powers[-1]
        return (block - t_e) * np.ldexp(1.0, -np.arange(n + 1, n + size + 1))[:, None]

    first = target.eval_many(pts) - t_e
    return _iterate_levels("dyadic limit", first, run, lambda k: m, n_max, conv_tol, collect_values)


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


def phi_mean_construction(
    f: BoundedFn,
    k: int | None = None,
    assume_odd: bool = False,
) -> tuple[TableFn, PhiDiagnostics]:
    """Tabulate phi(y) = mean over x of [f_odd(yx) - f_odd(x sigma(y))].

    With ``assume_odd`` the function f is used directly as the odd part
    (useful for checking the construction against analytic cases). The
    returned diagnostics carry the Folner substitution budget: a bound on
    sup_y |phi_k(y) - phi(y)| in terms of the boundary fraction of the box
    and the sup-norm of the bounded (non-additive) part of the integrand's
    source. On finite groups the average is a true invariant mean and the
    budget is zero.
    """
    c = f.carrier
    pts, k_used, _ = c.mean_set(k)
    fo = f if assume_odd else OddPart(f)
    f_e = f.eval(c.neutral)
    # Tabulate f_odd once over every point y x and x sigma(y) can reach (all
    # of G, or the box of radius k + N), so each block of window rows y below
    # only gathers; the mean of a row has the bits of a 1-d mean.
    # Values that overflow make phi non-finite, which table_fn rejects with a
    # FormatError; numpy's warnings would only reach stderr ahead of it.
    reach, blocks = c.reach(pts, k_used)
    with np.errstate(over="ignore", invalid="ignore"):
        table = fo.eval_many(reach)
        phi = table_fn(c, np.concatenate([(table[yx] - table[xsy]).mean(axis=1) for yx, xsy in blocks]))

    m_bound = 0.0
    if isinstance(f, OracleFn):
        m_bound = f.noise_bound() if assume_odd else f.odd_noise_bound()
    ratio_max = c.mean_translate_ratio(k_used)
    probe_res = folner_mean(_ProbeFn(f, f_e), k_used).invariance_residual
    diag = PhiDiagnostics(
        c.mean_capability, k_used, pts.shape[0], 2.0 * m_bound * ratio_max, m_bound, ratio_max, probe_res
    )
    return phi, diag


class _ProbeFn(BoundedFn):
    """f_even - f(e): a bounded probe carrying the non-additive fluctuation."""

    def __init__(self, f: BoundedFn, f_e: complex) -> None:
        self.base = EvenPart(f)
        self.carrier = f.carrier
        self.f_e = complex(f_e)

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return self.base.eval_many(pts) - self.f_e


# ----------------------------------------------------------------------------
# Two-block reconstruction of the nearby Drygas solution


def _fs_iterate(
    f: BoundedFn,
    pts: np.ndarray,
    n_max: int,
    conv_tol: float,
    collect_values: bool = False,
) -> tuple[np.ndarray, list[float], int, list[np.ndarray]]:
    """Two-block partial expressions of f at pts for n = 0, 1, ... until a step is at most conv_tol.

    Level n reads f at x^(2^n) and at 2n pair rows, for j < n the row
    (x^(2^j) sigma(x)^(2^j))^(2^(n-1-j)) and then its mirror
    (sigma(x)^(2^j) x^(2^j))^(2^(n-1-j)). A level's pair rows are those of
    the level before squared, then the two rows j = n - 1. Levels run in
    blocks (see ``_iterate_levels``): a block squares x^(2^n) and the pair
    rows once per level, builds the new rows of all its levels with one
    involution and one composition, and evaluates them in ``_fs_levels``.
    """
    c = f.carrier
    m = pts.shape[0]
    x, rows = pts, pts[:0]

    def run(n: int, size: int) -> np.ndarray:
        nonlocal x, rows
        xs = [x]
        for _ in range(size):
            xs.append(c.square_many(xs[-1]))
        # x^(2^k) sigma(x)^(2^k) for k = n ... n + size - 1, then the mirrors.
        xk = np.concatenate(xs[:-1])
        sk = c.involute_many(xk)
        new = c.compose_many(np.concatenate([xk, sk]), np.concatenate([sk, xk]))
        stacks = [rows]
        for a in range(0, size * m, m):
            b = a + size * m
            stacks.append(np.concatenate([c.square_many(stacks[-1]), new[a : a + m], new[b : b + m]]))
        vals = _fs_levels(f, stacks[1:], xs[1:], n + 1)
        x, rows = xs[-1], stacks[-1]
        return vals

    # Levels past the one that converges are computed too, and values that
    # overflow make the result non-finite, which table_fn rejects; numpy's
    # warnings would only reach stderr ahead of that.
    with np.errstate(over="ignore", invalid="ignore"):
        first = _fs_levels(f, [rows], [x], 0)[0]
        return _iterate_levels(
            "reconstruction", first, run, lambda k: 2 * (2 * k + 1) * m, n_max, conv_tol, collect_values
        )


def _fs_levels(f: BoundedFn, pair_rows: list[np.ndarray], xs: list[np.ndarray], k0: int) -> np.ndarray:
    """Levels k0, k0 + 1, ... of the two-block expression, one row each.

    ``pair_rows[i]`` and ``xs[i]`` are the points of level k0 + i. The even
    and odd parts of f are formed as ``EvenPart`` and ``OddPart`` form them.
    Level k sums k terms t = 0 ... k-1: the even sum 2^t times the left plus
    right rows k-1-t, the odd sum the left minus right rows t. Each sum is
    added one term at a time from +0, as np.add.accumulate does along a term
    axis front-padded with zeros to the block's last level (np.add.reduce
    may sum pairwise, which moves the last bits).
    """
    c = f.carrier
    m = xs[0].shape[0]
    size = len(xs)
    top = k0 + size - 1
    ks = np.arange(k0, top + 1)[:, None]
    # f is evaluated once at all pair rows, once at their involutes, and once
    # at all x^(2^k) rows with theirs. On lattices with sigma = -id every
    # pair row is the neutral point, which the dense noise grid serves, while
    # the orbit of x is sparse and goes to the sorted store.
    pairs = np.zeros((0, m), dtype=np.complex128)
    if top:
        rows = np.concatenate(pair_rows)
        pairs = ((f.eval_many(rows) + f.eval_many(c.involute_many(rows))) / 2).reshape(-1, m)
    left, right = pairs[0::2], pairs[1::2]
    x = np.concatenate(xs)
    x1, x2 = np.split(f.eval_many(np.concatenate([x, c.involute_many(x)])), 2)
    even_x = ((x1 + x2) / 2).reshape(size, m)
    odd_x = x1.reshape(size, m) - even_x
    # Row j < k of level k goes to column top - j of its even sum and to
    # column top - k + 1 + j of its odd one, so column 0 is always zero.
    t = np.arange(top + 1)
    terms = np.zeros((2, size, top + 1, m), dtype=np.complex128)
    has = t < ks
    terms[0, :, ::-1][has] = (left + right) * np.ldexp(1.0, ks - 1 - t)[has][:, None]
    terms[1][t > top - ks] = left - right
    even_sum, odd_sum = np.add.accumulate(terms, axis=2)[:, :, -1]
    even_block = (even_x + 0.5 * even_sum) * np.ldexp(1.0, -2 * ks)
    odd_block = (odd_x + 0.5 * odd_sum) * np.ldexp(1.0, -ks)
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
    pts = f.carrier.row(x)
    vals, diffs, n_final, levels = _fs_iterate(f, pts, n_max, tol, collect_values=True)
    trace = DyadicTrace([complex(v[0]) for v in levels], diffs, n_final, True)
    return complex(vals[0]), trace


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
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    c = f.carrier
    if delta is None:
        delta = jensen_defect(f).delta
    offset = f.eval(c.neutral)

    if method == "mean":
        phi_fn, diag = phi if phi is not None else phi_mean_construction(f, folner_k)
        g = table_fn(c, phi_fn.values * 0.5)
        return StabilizationResult(
            g=g,
            offset=offset,
            method="mean",
            variant="phi_half",
            iterations_or_k=diag.k_used,
            convergence_trace=[],
            error_budget=diag.phi_error_budget / 2.0,
            delta_used=delta,
            diagnostics=diag.to_dict(),
        )

    if method in ("dyadic", "dyadic_full"):
        target = f if method == "dyadic_full" else OddPart(f)
        vals, diffs, n_final, _ = _dyadic_iterate(target, c.window_points(), n_max, conv_tol)
        budget = 1.5 * delta * 0.5**n_final
        return StabilizationResult(
            g=table_fn(c, vals),
            offset=offset,
            method=method,
            variant="full" if method == "dyadic_full" else "odd_part",
            iterations_or_k=n_final,
            convergence_trace=diffs,
            error_budget=budget,
            delta_used=delta,
            diagnostics={"conv_tol": conv_tol},
        )

    # forti_sikorska
    vals, diffs, n_final, _ = _fs_iterate(f, c.window_points(), n_max, conv_tol)
    at_e = vals[c.neutral_position]
    vals = vals - at_e
    # Tail of a geometric trace plus the renormalization shift, a posteriori.
    budget = float(4.0 * diffs[-1] + 2.0 * abs(at_e))
    return StabilizationResult(
        g=table_fn(c, vals),
        offset=offset,
        method="forti_sikorska",
        variant="drygas_reconstruction",
        iterations_or_k=n_final,
        convergence_trace=diffs,
        error_budget=budget,
        delta_used=delta,
        diagnostics={"conv_tol": conv_tol, "renormalization": float(abs(at_e))},
    )
