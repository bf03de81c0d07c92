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

from dataclasses import dataclass, field

import numpy as np

from .carrier import EXACT_UNIFORM, FOLNER, Carrier, FiniteCarrier, LatticeCarrier
from .defect import jensen_defect
from .errors import CapabilityError, LatticeOverflowError, NonConvergenceError
from .funcspace import (
    BoundedFn,
    EvenPart,
    FiniteTableFn,
    LatticeTableFn,
    OddPart,
    OracleFn,
    window_points,
)

DEFAULT_N_MAX = 40
DEFAULT_CONV_TOL = 1e-10


@dataclass
class DyadicTrace:
    """Iterates and successive differences of one pointwise limit.

    Shared by the dyadic limit and the two-block reconstruction.
    """

    values: list[complex]
    diffs: list[float]
    n_final: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "values": [[v.real, v.imag] for v in self.values],
            "diffs": self.diffs,
            "n_final": self.n_final,
            "converged": self.converged,
        }


@dataclass
class MeanValue:
    """An averaged value with its measured translation-invariance residual."""

    value: complex
    k_used: int
    set_size: int
    invariance_residual: float
    mode: str

    def to_dict(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "k_used": self.k_used,
            "set_size": self.set_size,
            "invariance_residual": self.invariance_residual,
            "mode": self.mode,
        }


@dataclass
class PhiDiagnostics:
    """Error accounting for one averaged phi construction."""

    mode: str
    k_used: int
    set_size: int
    phi_error_budget: float
    odd_noise_bound: float
    boundary_ratio_max: float
    probe_invariance_residual: float

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "k_used": self.k_used,
            "set_size": self.set_size,
            "phi_error_budget": self.phi_error_budget,
            "odd_noise_bound": self.odd_noise_bound,
            "boundary_ratio_max": self.boundary_ratio_max,
            "probe_invariance_residual": self.probe_invariance_residual,
        }


@dataclass
class StabilizationResult:
    """A constructed solution g with g(e) = 0, plus its error accounting."""

    g: BoundedFn
    offset: complex
    method: str
    variant: str
    iterations_or_k: int
    convergence_trace: list[float]
    error_budget: float
    delta_used: float
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "variant": self.variant,
            "offset": [self.offset.real, self.offset.imag],
            "iterations_or_k": self.iterations_or_k,
            "convergence_trace": self.convergence_trace,
            "error_budget": self.error_budget,
            "delta_used": self.delta_used,
            "diagnostics": self.diagnostics,
        }


METHODS = ("mean", "dyadic", "dyadic_full", "forti_sikorska")


def _require_mean_capability(c: Carrier) -> str:
    cap = c.mean_capability
    if cap not in (EXACT_UNIFORM, FOLNER):
        raise CapabilityError(
            f"carrier {c.name} has mean capability {cap!r}: the uniform average is "
            "not translation-invariant off groups, so only the dyadic and "
            "reconstruction methods are available"
        )
    return cap


def box_translate_ratio(dim: int, k: int, shift: tuple[int, ...]) -> float:
    """|F delta (F + shift)| / |F| for the centered box F of radius k."""
    side = 2 * k + 1
    prod = 1.0
    for s in shift:
        prod *= max(0, side - abs(int(s))) / side
    return 2.0 * (1.0 - prod)


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
    lattice power leaves the integer range first (for affine oracles
    convergence arrives long before overflow).
    """
    c = f.carrier
    f_e = f.eval(c.neutral)
    cur = c.check_element(x)
    values = [f.eval(cur) - f_e]
    diffs: list[float] = []
    for n in range(1, n_max + 1):
        try:
            cur = c.compose(cur, cur)
        except LatticeOverflowError as exc:
            raise LatticeOverflowError(
                f"dyadic power overflowed at n={n} before convergence; reduce n_max "
                "(affine oracles converge long before overflow)"
            ) from exc
        val = (f.eval(cur) - f_e) * 0.5**n
        values.append(val)
        step = abs(val - values[-2])
        diffs.append(step)
        if step <= tol:
            return val, DyadicTrace(values, diffs, n, True)
    raise NonConvergenceError(
        f"dyadic limit did not converge within n_max={n_max} (last step {diffs[-1]:.3e})",
        trace=diffs,
    )


def _dyadic_window(
    target: BoundedFn,
    n_max: int,
    conv_tol: float,
) -> tuple[np.ndarray, list[float], int]:
    """Uniform vectorized dyadic iteration of ``target`` over the window.

    All window points iterate to the same depth so that one a posteriori
    tail bound covers every point.
    """
    c = target.carrier
    pts = window_points(c)
    t_e = target.eval(c.neutral)
    cur = pts
    prev = target.eval_many(cur) - t_e
    diffs: list[float] = []
    for n in range(1, n_max + 1):
        cur = c.square_many(cur)
        vals = (target.eval_many(cur) - t_e) * 0.5**n
        step = float(np.abs(vals - prev).max())
        diffs.append(step)
        prev = vals
        if step <= conv_tol:
            return vals, diffs, n
    raise NonConvergenceError(
        f"dyadic window iteration did not converge within n_max={n_max}",
        trace=diffs,
    )


# ----------------------------------------------------------------------------
# Means and the phi construction


def folner_mean(h: BoundedFn, k: int | None = None) -> MeanValue:
    """Average h over the carrier's mean set and probe its invariance.

    Finite groups use the exact uniform average over all of G (k is
    ignored); lattices average over the Folner box of radius k (defaulting
    to folner_max). The invariance residual compares the mean against the
    mean of one probe translate: the first non-neutral element on finite
    groups, the first unit vector on lattices.
    """
    c = h.carrier
    cap = _require_mean_capability(c)
    if cap == EXACT_UNIFORM:
        assert isinstance(c, FiniteCarrier)
        idx = np.arange(c.size, dtype=np.int64)
        vals = h.eval_many(idx)
        m0 = vals.mean()
        probe = next(i for i in range(c.size) if i != c.neutral) if c.size > 1 else c.neutral
        m1 = h.eval_many(c.op[probe, idx]).mean()
        return MeanValue(complex(m0), c.size, c.size, float(abs(m1 - m0)), EXACT_UNIFORM)
    assert isinstance(c, LatticeCarrier)
    k_used = c.folner_max if k is None else int(k)
    pts = c.folner_points(k_used)
    vals = h.eval_many(pts)
    m0 = vals.mean()
    shift = np.zeros((1, c.dim), dtype=np.int64)
    shift[0, 0] = 1
    m1 = h.eval_many(pts + shift).mean()
    return MeanValue(complex(m0), k_used, pts.shape[0], float(abs(m1 - m0)), FOLNER)


def phi_mean_construction(
    f: BoundedFn,
    k: int | None = None,
    assume_odd: bool = False,
) -> tuple[FiniteTableFn | LatticeTableFn, PhiDiagnostics]:
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
    cap = _require_mean_capability(c)
    fo = f if assume_odd else OddPart(f)
    f_e = f.eval(c.neutral)
    probe = _ProbeFn(f, f_e)

    if cap == EXACT_UNIFORM:
        assert isinstance(c, FiniteCarrier)
        n = c.size
        idx = np.arange(n, dtype=np.int64)
        vals = np.empty(n, dtype=np.complex128)
        for y in range(n):
            p1 = c.op[y, idx]
            p2 = c.op[idx, c.involution[y]]
            vals[y] = (fo.eval_many(p1) - fo.eval_many(p2)).mean()
        phi = FiniteTableFn(c, vals)
        probe_res = folner_mean(probe).invariance_residual
        diag = PhiDiagnostics(EXACT_UNIFORM, n, n, 0.0, 0.0, 0.0, probe_res)
        return phi, diag

    assert isinstance(c, LatticeCarrier)
    k_used = c.folner_max if k is None else int(k)
    box = c.folner_points(k_used)
    win = c.window_points()
    vals = np.empty(win.shape[0], dtype=np.complex128)
    for i, y in enumerate(win):
        row = y[None, :]
        integrand = fo.eval_many(box + row) - fo.eval_many(box - row)
        vals[i] = integrand.mean()
    phi = LatticeTableFn(c, vals)

    if assume_odd:
        m_bound = f.noise_bound() if isinstance(f, OracleFn) else 0.0
    else:
        m_bound = f.odd_noise_bound() if isinstance(f, OracleFn) else 0.0
    corner = (c.window_radius,) * c.dim
    ratio_max = box_translate_ratio(c.dim, k_used, corner)
    budget = 2.0 * m_bound * ratio_max
    probe_res = folner_mean(probe, k_used).invariance_residual
    diag = PhiDiagnostics(FOLNER, k_used, box.shape[0], budget, m_bound, ratio_max, probe_res)
    return phi, diag


class _ProbeFn(BoundedFn):
    """f_even - f(e): a bounded probe carrying the non-additive fluctuation."""

    def __init__(self, f: BoundedFn, f_e: complex) -> None:
        self.base = EvenPart(f)
        self.carrier = f.carrier
        self.f_e = complex(f_e)

    def eval(self, x) -> complex:
        return self.base.eval(x) - self.f_e

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return self.base.eval_many(pts) - self.f_e


# ----------------------------------------------------------------------------
# Two-block reconstruction of the nearby Drygas solution


class _FsPowers:
    """Memoized dyadic powers of x, sigma(x), and their pair products."""

    def __init__(self, c: Carrier, pts: np.ndarray) -> None:
        self.c = c
        self.pow_x = [pts]
        self.pair_left: dict[tuple[int, int], np.ndarray] = {}
        self.pair_right: dict[tuple[int, int], np.ndarray] = {}

    def x_pow(self, m: int) -> np.ndarray:
        while len(self.pow_x) <= m:
            self.pow_x.append(self.c.square_many(self.pow_x[-1]))
        return self.pow_x[m]

    def _pair(self, store: dict, m: int, j: int, left_first: bool) -> np.ndarray:
        key = (m, j)
        if key not in store:
            if j == 0:
                xm = self.x_pow(m)
                sm = self.c.involute_many(xm)
                store[key] = self.c.compose_many(xm, sm) if left_first else self.c.compose_many(sm, xm)
            else:
                store[key] = self.c.square_many(self._pair(store, m, j - 1, left_first))
        return store[key]

    def left(self, m: int, j: int) -> np.ndarray:
        """(x^(2^m) sigma(x)^(2^m))^(2^j)."""
        return self._pair(self.pair_left, m, j, True)

    def right(self, m: int, j: int) -> np.ndarray:
        """(sigma(x)^(2^m) x^(2^m))^(2^j)."""
        return self._pair(self.pair_right, m, j, False)


def _fs_level(f_even: BoundedFn, f_odd: BoundedFn, powers: _FsPowers, n: int) -> np.ndarray:
    """The n-th partial expression of the two-block reconstruction."""
    xn = powers.x_pow(n)
    even_acc = f_even.eval_many(xn).copy()
    inner = np.zeros_like(even_acc)
    for k in range(1, n + 1):
        inner += (2.0 ** (k - 1)) * (
            f_even.eval_many(powers.left(n - k, k - 1)) + f_even.eval_many(powers.right(n - k, k - 1))
        )
    even_block = (even_acc + 0.5 * inner) * (0.25**n)
    odd_acc = f_odd.eval_many(xn).copy()
    inner2 = np.zeros_like(odd_acc)
    for k in range(1, n + 1):
        inner2 += f_even.eval_many(powers.left(k - 1, n - k)) - f_even.eval_many(powers.right(k - 1, n - k))
    odd_block = (odd_acc + 0.5 * inner2) * (0.5**n)
    return even_block + odd_block


def _fs_iterate(
    f: BoundedFn,
    pts: np.ndarray,
    n_max: int,
    conv_tol: float,
    collect_values: bool = False,
) -> tuple[np.ndarray, list[float], int, list[np.ndarray]]:
    f_even = EvenPart(f)
    f_odd = OddPart(f)
    powers = _FsPowers(f.carrier, pts)
    prev = _fs_level(f_even, f_odd, powers, 0)
    levels = [prev] if collect_values else []
    diffs: list[float] = []
    for n in range(1, n_max + 1):
        vals = _fs_level(f_even, f_odd, powers, n)
        if collect_values:
            levels.append(vals)
        step = float(np.abs(vals - prev).max())
        diffs.append(step)
        prev = vals
        if step <= conv_tol:
            return vals, diffs, n, levels
    raise NonConvergenceError(
        f"reconstruction did not converge within n_max={n_max} (last step {diffs[-1]:.3e})",
        trace=diffs,
    )


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
    c = f.carrier
    pt = c.check_element(x)
    if isinstance(c, FiniteCarrier):
        pts = np.array([pt], dtype=np.int64)
    else:
        pts = np.array([pt], dtype=np.int64).reshape(1, c.dim)
    vals, diffs, n_final, levels = _fs_iterate(f, pts, n_max, tol, collect_values=True)
    trace = DyadicTrace([complex(v[0]) for v in levels], diffs, n_final, True)
    return complex(vals[0]), trace


# ----------------------------------------------------------------------------
# The assembled approximants


def _as_table(c: Carrier, vals: np.ndarray) -> FiniteTableFn | LatticeTableFn:
    if isinstance(c, FiniteCarrier):
        return FiniteTableFn(c, vals)
    return LatticeTableFn(c, vals)


def _neutral_position(c: Carrier) -> int:
    if isinstance(c, FiniteCarrier):
        return c.neutral
    # Lexicographic box ordering puts 0 in the middle.
    side = 2 * c.window_radius + 1
    return (side**c.dim - 1) // 2


def jensen_approximant(
    f: BoundedFn,
    method: str,
    delta: float | None = None,
    folner_k: int | None = None,
    n_max: int = DEFAULT_N_MAX,
    conv_tol: float = DEFAULT_CONV_TOL,
) -> StabilizationResult:
    """Construct the normalized solution g (g(e) = 0) near f by one method.

    Methods: ``mean`` (g = phi/2 from the averaged construction),
    ``dyadic`` (dyadic limit of the odd part), ``dyadic_full`` (dyadic
    limit of f itself, the variant whose sharper 3 delta / 2 bound is checked
    separately), and ``forti_sikorska`` (partial-expression reconstruction,
    renormalized at e). The offset f(e) is returned alongside; stability is
    always judged on |f(x) - g(x) - offset|.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    c = f.carrier
    if delta is None:
        delta = jensen_defect(f).delta
    offset = f.eval(c.neutral)

    if method == "mean":
        phi, diag = phi_mean_construction(f, folner_k)
        g = _as_table(c, phi.values * 0.5)
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
        vals, diffs, n_final = _dyadic_window(target, n_max, conv_tol)
        budget = 1.5 * delta * 0.5**n_final
        return StabilizationResult(
            g=_as_table(c, vals),
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
    pts = window_points(c)
    vals, diffs, n_final, _ = _fs_iterate(f, pts, n_max, conv_tol)
    at_e = vals[_neutral_position(c)]
    vals = vals - at_e
    # Tail of a geometric trace plus the renormalization shift, a posteriori.
    budget = float(4.0 * diffs[-1] + 2.0 * abs(at_e))
    return StabilizationResult(
        g=_as_table(c, vals),
        offset=offset,
        method="forti_sikorska",
        variant="drygas_reconstruction",
        iterations_or_k=n_final,
        convergence_trace=diffs,
        error_budget=budget,
        delta_used=delta,
        diagnostics={"conv_tol": conv_tol, "renormalization": float(abs(at_e))},
    )
