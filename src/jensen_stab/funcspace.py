"""Bounded complex-valued functions on carriers.

Functions come in two representations: tables (total on a finite carrier,
or on a lattice window) and oracles (affine formula plus a deterministic
noise term, evaluable at any lattice point, which dyadic powers require).
Even/odd parts and translates are lazy views.

All evaluation is pure and deterministic; seeded noise is derived from the
element coordinates alone, never from call order, so values are
bit-identical across runs and processes.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from typing import Sequence

import numpy as np

from .carrier import Carrier, FiniteCarrier, LatticeCarrier
from .errors import FormatError, InvalidElementError

# Absolute tolerance used by default in every numeric comparison.
DEFAULT_TOL = 1e-9

# Largest bounding-box volume kept as a dense noise cache. A query grows the
# cache only when the grown box is dense in it: at most 4 cells per queried
# point and at most this many cells overall. Sparse queries (dyadic power
# orbits, whose box doubles at every level) are served from the per-point
# memo instead; both paths draw from the same pure hash.
_DENSE_VOLUME = 1 << 17


def _require_finite_complex(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise FormatError(f"{what} must be finite, got {z!r}")
    return z


class ParityNoise:
    """Deterministic noise amplitude * (-1)^(sum of coordinates)."""

    type = "parity"

    def __init__(self, amplitude: float, seed: int = 0) -> None:
        if amplitude < 0 or not math.isfinite(amplitude):
            raise FormatError("noise amplitude must be a finite nonnegative number")
        self.amplitude = float(amplitude)
        self.seed = int(seed)  # unused; kept so files round-trip

    def value(self, pt: tuple[int, ...]) -> complex:
        return complex(self.amplitude * (1 - 2 * (sum(pt) & 1)))

    def values(self, pts: np.ndarray) -> np.ndarray:
        signs = 1 - 2 * (pts.sum(axis=1) & 1)
        return signs.astype(np.complex128) * self.amplitude

    def bound(self) -> float:
        return self.amplitude

    def odd_part_bound(self) -> float:
        # (-1)^x is even under negation, so nothing survives into the odd part.
        return 0.0

    def to_dict(self) -> dict:
        return {"type": "parity", "amplitude": self.amplitude, "seed": self.seed}


class SeededUniformNoise:
    """Hash-seeded complex noise, uniform on the disc |z| <= amplitude.

    Each point draws (re, im) from [-amplitude, amplitude]^2 via blake2b of
    (seed, coordinates, counter) and rejects draws outside the disc, so the
    modulus bound |noise| <= amplitude holds exactly.
    """

    type = "seeded_uniform"

    def __init__(self, amplitude: float, seed: int) -> None:
        if amplitude < 0 or not math.isfinite(amplitude):
            raise FormatError("noise amplitude must be a finite nonnegative number")
        self.amplitude = float(amplitude)
        self.seed = int(seed)
        self._memo: dict[tuple[int, ...], complex] = {}
        # Dense cache (lo, hi, grid): published whole, never mutated, so readers never mix two grids.
        self._dense: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _draw(self, pt: tuple[int, ...]) -> complex:
        amp = self.amplitude
        if amp == 0.0:
            return 0j
        coords = ",".join(str(c) for c in pt)
        ctr = 0
        while True:
            msg = f"{self.seed}|{coords}|{ctr}".encode()
            digest = hashlib.blake2b(msg, digest_size=16).digest()
            u = int.from_bytes(digest[:8], "little") / 2.0**64
            v = int.from_bytes(digest[8:], "little") / 2.0**64
            re = (2.0 * u - 1.0) * amp
            im = (2.0 * v - 1.0) * amp
            if re * re + im * im <= amp * amp:
                return complex(re, im)
            ctr += 1

    def value(self, pt: tuple[int, ...]) -> complex:
        got = self._memo.get(pt)
        if got is None:
            got = self._draw(pt)
            self._memo[pt] = got
        return got

    def _rebuild_grid(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Re-draws the whole box; values() calls this only for dense queries,
        # so the draws stay within 4x the points queried.
        ranges = [range(int(a), int(b) + 1) for a, b in zip(lo, hi)]
        shape = tuple(len(r) for r in ranges)
        vals = np.fromiter(
            (self._draw(pt) for pt in itertools.product(*ranges)),
            dtype=np.complex128,
            count=int(np.prod(shape)),
        )
        snapshot = (lo.copy(), hi.copy(), vals.reshape(shape))
        self._dense = snapshot
        return snapshot

    def values(self, pts: np.ndarray) -> np.ndarray:
        if self.amplitude == 0.0:
            return np.zeros(pts.shape[0], dtype=np.complex128)
        if not pts.size:
            return np.zeros(0, dtype=np.complex128)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        dense = self._dense
        if dense is None or not ((lo >= dense[0]).all() and (hi <= dense[1]).all()):
            if dense is not None:
                lo = np.minimum(lo, dense[0])
                hi = np.maximum(hi, dense[1])
            volume = float(np.prod((hi - lo + 1).astype(np.float64)))
            if volume > min(_DENSE_VOLUME, 4 * pts.shape[0]):
                return np.array([self.value(tuple(row)) for row in pts.tolist()], dtype=np.complex128)
            dense = self._rebuild_grid(lo, hi)
        grid_lo, _, grid = dense
        return grid[tuple(pts[:, j] - grid_lo[j] for j in range(pts.shape[1]))]

    def bound(self) -> float:
        return self.amplitude

    def odd_part_bound(self) -> float:
        return self.amplitude

    def to_dict(self) -> dict:
        return {"type": "seeded_uniform", "amplitude": self.amplitude, "seed": self.seed}


Noise = ParityNoise | SeededUniformNoise


def noise_from_dict(data: dict) -> Noise:
    try:
        kind = data["type"]
        amplitude = float(data["amplitude"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed noise descriptor: {data!r}") from exc
    seed = int(data.get("seed", 0))
    if kind == "parity":
        return ParityNoise(amplitude, seed)
    if kind == "seeded_uniform":
        return SeededUniformNoise(amplitude, seed)
    raise FormatError(f"unknown noise type {kind!r}")


class BoundedFn:
    """Base class: a complex-valued function on a carrier."""

    carrier: Carrier

    def eval(self, x) -> complex:
        raise NotImplementedError

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x) -> complex:
        return self.eval(x)


class FiniteTableFn(BoundedFn):
    """Total table of values over a finite carrier, indexed canonically."""

    def __init__(self, carrier: FiniteCarrier, values: Sequence[complex]) -> None:
        vals = np.asarray(values, dtype=np.complex128)
        if vals.shape != (carrier.size,):
            raise FormatError(f"table must have {carrier.size} values, got {vals.shape}")
        if not np.isfinite(vals.view(np.float64)).all():
            raise FormatError("table values must be finite")
        self.carrier = carrier
        self.values = vals
        self.values.setflags(write=False)

    def eval(self, x) -> complex:
        return complex(self.values[self.carrier.check_element(x)])

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return self.values[pts]


class LatticeTableFn(BoundedFn):
    """Values tabulated on the centered box [-R, R]^d of a lattice carrier.

    Evaluation outside the tabulated box raises ``InvalidElementError``;
    scans that need products restrict their pair domains accordingly.
    """

    def __init__(self, carrier: LatticeCarrier, values: np.ndarray, radius: int | None = None) -> None:
        r = carrier.window_radius if radius is None else int(radius)
        side = 2 * r + 1
        vals = np.asarray(values, dtype=np.complex128)
        expected = (side,) * carrier.dim
        if vals.shape == (side**carrier.dim,):
            vals = vals.reshape(expected)
        if vals.shape != expected:
            raise FormatError(f"lattice table must have shape {expected}, got {vals.shape}")
        if not np.isfinite(vals.view(np.float64)).all():
            raise FormatError("table values must be finite")
        self.carrier = carrier
        self.radius = r
        self.values = vals
        self.values.setflags(write=False)

    def eval(self, x) -> complex:
        pt = self.carrier.check_element(x)
        idx = tuple(c + self.radius for c in pt)
        for c in idx:
            if not 0 <= c <= 2 * self.radius:
                raise InvalidElementError(f"point {pt} outside the tabulated box of radius {self.radius}")
        return complex(self.values[idx])

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        shifted = pts + self.radius
        if shifted.size and (shifted.min() < 0 or shifted.max() > 2 * self.radius):
            raise InvalidElementError(f"points outside the tabulated box of radius {self.radius}")
        return self.values[tuple(shifted[:, j] for j in range(self.carrier.dim))]

    def covers(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask of points that lie inside the tabulated box."""
        return (np.abs(pts) <= self.radius).all(axis=1)


class OracleFn(BoundedFn):
    """Affine formula a . x + c on a lattice, plus optional bounded noise."""

    def __init__(
        self,
        carrier: LatticeCarrier,
        linear: Sequence[complex] | None = None,
        constant: complex = 0j,
        noise: Noise | None = None,
    ) -> None:
        if linear is None:
            lin = np.zeros(carrier.dim, dtype=np.complex128)
        else:
            lin = np.asarray(linear, dtype=np.complex128)
        if lin.shape != (carrier.dim,):
            raise FormatError(f"linear coefficients must have length {carrier.dim}")
        if not np.isfinite(lin.view(np.float64)).all():
            raise FormatError("linear coefficients must be finite")
        self.carrier = carrier
        self.linear = lin
        self.linear.setflags(write=False)
        self.constant = _require_finite_complex(constant, "constant term")
        self.noise = noise

    def eval(self, x) -> complex:
        pt = self.carrier.check_element(x)
        val = self.constant
        for a, c in zip(self.linear, pt):
            val = val + complex(a) * c
        if self.noise is not None:
            val = val + self.noise.value(pt)
        return val

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        vals = pts.astype(np.float64) @ self.linear + self.constant
        if self.noise is not None:
            vals = vals + self.noise.values(pts)
        return vals

    def noise_bound(self) -> float:
        return 0.0 if self.noise is None else self.noise.bound()

    def odd_noise_bound(self) -> float:
        """Sup-norm bound on the part of the noise that survives into f_odd."""
        return 0.0 if self.noise is None else self.noise.odd_part_bound()


class EvenPart(BoundedFn):
    """f_even(x) = (f(x) + f(sigma(x))) / 2."""

    def __init__(self, base: BoundedFn) -> None:
        self.base = base
        self.carrier = base.carrier

    def eval(self, x) -> complex:
        v1 = self.base.eval(x)
        v2 = self.base.eval(self.carrier.involute(x))
        return (v1 + v2) / 2

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        v1 = self.base.eval_many(pts)
        v2 = self.base.eval_many(self.carrier.involute_many(pts))
        return (v1 + v2) / 2


class OddPart(BoundedFn):
    """f_odd(x) = f(x) - f_even(x).

    Computed subtractively from the same two evaluations as the even part,
    so f_even(x) + f_odd(x) reproduces f(x) bit-exactly when the sum is
    evaluated left to right.
    """

    def __init__(self, base: BoundedFn) -> None:
        self.base = base
        self.carrier = base.carrier

    def eval(self, x) -> complex:
        v1 = self.base.eval(x)
        v2 = self.base.eval(self.carrier.involute(x))
        return v1 - (v1 + v2) / 2

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        v1 = self.base.eval_many(pts)
        v2 = self.base.eval_many(self.carrier.involute_many(pts))
        return v1 - (v1 + v2) / 2


class LeftTranslate(BoundedFn):
    """(y f)(x) = f(y x)."""

    def __init__(self, y, base: BoundedFn) -> None:
        self.base = base
        self.carrier = base.carrier
        self.y = self.carrier.check_element(y)

    def eval(self, x) -> complex:
        return self.base.eval(self.carrier.compose(self.y, x))

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        c = self.carrier
        if isinstance(c, FiniteCarrier):
            return self.base.eval_many(c.op[self.y, pts])
        y_row = np.asarray(self.y, dtype=np.int64)[None, :]
        return self.base.eval_many(c.compose_many(y_row, pts))


class RightTranslate(BoundedFn):
    """(f y)(x) = f(x y)."""

    def __init__(self, base: BoundedFn, y) -> None:
        self.base = base
        self.carrier = base.carrier
        self.y = self.carrier.check_element(y)

    def eval(self, x) -> complex:
        return self.base.eval(self.carrier.compose(x, self.y))

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        c = self.carrier
        if isinstance(c, FiniteCarrier):
            return self.base.eval_many(c.op[pts, self.y])
        y_row = np.asarray(self.y, dtype=np.int64)[None, :]
        return self.base.eval_many(c.compose_many(pts, y_row))


def evaluate(f: BoundedFn, x) -> complex:
    return f.eval(x)


def even_part(f: BoundedFn) -> BoundedFn:
    return EvenPart(f)


def odd_part(f: BoundedFn) -> BoundedFn:
    return OddPart(f)


def left_translate(y, f: BoundedFn) -> BoundedFn:
    return LeftTranslate(y, f)


def right_translate(f: BoundedFn, y) -> BoundedFn:
    return RightTranslate(f, y)


def window_points(carrier: Carrier) -> np.ndarray:
    """Window elements as an array: indices (finite) or points (lattice)."""
    if isinstance(carrier, FiniteCarrier):
        return carrier.window_elements()
    return carrier.window_points()


def window_values(f: BoundedFn) -> np.ndarray:
    return f.eval_many(window_points(f.carrier))


def tabulate_window(f: BoundedFn) -> FiniteTableFn | LatticeTableFn:
    """Materialize f on the carrier window as a table function."""
    vals = window_values(f)
    if isinstance(f.carrier, FiniteCarrier):
        return FiniteTableFn(f.carrier, vals)
    return LatticeTableFn(f.carrier, vals)


def sup_norm_window(f: BoundedFn) -> tuple[float, object]:
    """Max of |f| over the window, with the first witnessing element."""
    pts = window_points(f.carrier)
    mags = np.abs(f.eval_many(pts))
    i = int(np.argmax(mags))
    witness = int(pts[i]) if isinstance(f.carrier, FiniteCarrier) else tuple(int(c) for c in pts[i])
    return float(mags[i]), witness


# ----------------------------------------------------------------------------
# File interchange


def _parse_cnum(v, what: str) -> complex:
    """A finite complex number from a JSON number or an [re, im] pair of numbers."""
    pair = (v, 0.0) if isinstance(v, (int, float)) else v
    z = None
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        try:
            z = complex(float(pair[0]), float(pair[1]))
        except (TypeError, ValueError, OverflowError):
            pass
    if z is None:
        raise FormatError(f"{what} must be a number or an [re, im] pair of numbers, got {v!r}")
    return _require_finite_complex(z, what)


def _cpair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _lattice_key(pt: Sequence[int]) -> str:
    return ",".join(str(int(c)) for c in pt)


def function_from_dict(data: dict, carrier: Carrier) -> BoundedFn:
    """Build a function from its canonical JSON dict form."""
    if not isinstance(data, dict) or "kind" not in data:
        raise FormatError("function data must be a dict with a 'kind' field")
    kind = data["kind"]
    if kind == "table":
        values = data.get("values")
        if not isinstance(values, dict):
            raise FormatError("table function needs a 'values' mapping")
        if isinstance(carrier, FiniteCarrier):
            missing = [lab for lab in carrier.elements if lab not in values]
            if missing:
                raise FormatError(f"table is not total: missing {len(missing)} labels, e.g. {missing[0]!r}")
            vals = [_parse_cnum(values[lab], f"value of {lab!r}") for lab in carrier.elements]
            return FiniteTableFn(carrier, vals)
        pts = carrier.window_points()
        vals = np.empty(pts.shape[0], dtype=np.complex128)
        for i, row in enumerate(pts):
            key = _lattice_key(row)
            if key not in values:
                raise FormatError(f"table is not total on the window: missing point {key!r}")
            vals[i] = _parse_cnum(values[key], f"value at {key}")
        return LatticeTableFn(carrier, vals)
    if kind == "oracle":
        if not isinstance(carrier, LatticeCarrier):
            raise FormatError("oracle functions require a lattice carrier")
        linear = data.get("linear")
        lin = None
        if linear is not None:
            lin = [_parse_cnum(v, "linear coefficient") for v in linear]
        constant = _parse_cnum(data.get("constant", 0.0), "constant term")
        noise = None
        if data.get("noise") is not None:
            noise = noise_from_dict(data["noise"])
        return OracleFn(carrier, lin, constant, noise)
    raise FormatError(f"unknown function kind {kind!r}")


def function_to_dict(f: BoundedFn) -> dict:
    if isinstance(f, FiniteTableFn):
        values = {lab: _cpair(f.values[i]) for i, lab in enumerate(f.carrier.elements)}
        return {"kind": "table", "values": values}
    if isinstance(f, LatticeTableFn):
        pts = f.carrier.window_points()
        flat = f.eval_many(pts)
        values = {_lattice_key(row): _cpair(flat[i]) for i, row in enumerate(pts)}
        return {"kind": "table", "values": values}
    if isinstance(f, OracleFn):
        out: dict = {
            "kind": "oracle",
            "linear": [_cpair(a) for a in f.linear],
            "constant": _cpair(f.constant),
            "noise": None if f.noise is None else f.noise.to_dict(),
        }
        return out
    raise FormatError(f"cannot serialize function of type {type(f).__name__}")
