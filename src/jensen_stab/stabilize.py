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
    Levels run in blocks, each evaluated once and checked level by level; a
    block that raises is replayed one level at a time, so results and errors
    are those of single levels.
    """
    c = target.carrier
    t_e = target.eval(c.neutral)
    m = pts.shape[0]
    cur = pts
    prev = target.eval_many(cur) - t_e
    levels = [prev] if collect_values else []
    diffs: list[float] = []
    blocks = conv_tol > 0
    n = 0
    while n < n_max:
        size = 1
        if blocks and len(diffs) > 1 and 0 < diffs[-1] / diffs[-2] < 1:
            # Up to the level where the ratio of the last two steps predicts a step at most
            # conv_tol, and at most 64 levels (a lattice meets the 2^61 guard before that).
            ahead = (math.log(conv_tol) - math.log(diffs[-1])) / math.log(diffs[-1] / diffs[-2])
            size = min(n_max - n, 64, math.ceil(ahead))
        powers = [cur]
        try:
            for _ in range(size):
                powers.append(c.square_many(powers[-1]))
            block = target.eval_many(np.concatenate(powers[1:]))
        except JensenStabError:
            if size == 1:
                raise
            blocks = False
            continue
        cur = powers[-1]
        for j in range(size):
            n += 1
            vals = (block[j * m : (j + 1) * m] - t_e) * 0.5**n
            if collect_values:
                levels.append(vals)
            step = float(np.abs(vals - prev).max())
            diffs.append(step)
            prev = vals
            if step <= conv_tol:
                return vals, diffs, n, levels
    raise _not_converged("dyadic limit", n_max, diffs)


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
    # of G, or the box of radius k + N), so the loop below only gathers.
    # Values that overflow make phi non-finite, which table_fn rejects with a
    # FormatError; numpy's warnings would only reach stderr ahead of it.
    reach, positions = c.reach(pts, k_used)
    with np.errstate(over="ignore", invalid="ignore"):
        table = fo.eval_many(reach)
        phi = table_fn(c, [(table[yx] - table[xsy]).mean() for yx, xsy in positions])

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

    At level n, row j of ``left`` is (x^(2^j) sigma(x)^(2^j))^(2^(n-1-j)) and
    row j of ``right`` its mirror (sigma(x)^(2^j) x^(2^j))^(2^(n-1-j)), j < n.
    A level squares both stacks once, appends row n, and evaluates f_even
    once on both together; the even and odd blocks read the same rows.
    x^(2^n) is evaluated on its own: on lattices with sigma = -id every pair
    row is the neutral point, which the dense noise grid serves, while the
    dyadic orbit of x is sparse and goes to the per-point memo.
    """
    c = f.carrier
    f_even = EvenPart(f)
    f_odd = OddPart(f)
    m = pts.shape[0]
    weights = 2.0 ** np.arange(n_max)[:, None]
    xn = pts
    left = right = pts[:0]
    levels: list[np.ndarray] = []
    diffs: list[float] = []
    for n in range(n_max + 1):
        if n:
            sx = c.involute_many(xn)
            left = np.concatenate([c.square_many(left), c.compose_many(xn, sx)])
            right = np.concatenate([c.square_many(right), c.compose_many(sx, xn)])
            xn = c.square_many(xn)
        pairs = f_even.eval_many(np.concatenate([left, right])).reshape(2 * n, m)
        lp, rp = pairs[:n], pairs[n:]
        # Both sums run over k = 1..n, each added row by row from zero:
        # the even one over rows n-k with weight 2^(k-1), the odd one over
        # rows k-1. (np.add.reduce may sum one column pairwise, which moves
        # the last bits.)
        terms = np.zeros((n + 1, 2, m), dtype=np.complex128)
        np.multiply((lp + rp)[::-1], weights[:n], out=terms[1:, 0])
        np.subtract(lp, rp, out=terms[1:, 1])
        even_inner, odd_inner = np.add.accumulate(terms, axis=0)[-1]
        even_block = (f_even.eval_many(xn) + 0.5 * even_inner) * (0.25**n)
        odd_block = (f_odd.eval_many(xn) + 0.5 * odd_inner) * (0.5**n)
        vals = even_block + odd_block
        if collect_values:
            levels.append(vals)
        if n:
            step = float(np.abs(vals - prev).max())
            diffs.append(step)
            if step <= conv_tol:
                return vals, diffs, n, levels
        prev = vals
    raise _not_converged("reconstruction", n_max, diffs)


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
