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
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Sequence

import numpy as np

from .carrier import Carrier, FiniteCarrier, LatticeCarrier
from .errors import FormatError, InvalidElementError
from .records import _cpair, _parse_cnum, _require_finite_complex

# Absolute tolerance used by default in every numeric comparison.
DEFAULT_TOL = 1e-9

# Largest bounding-box volume kept as a dense noise cache. A query grows the
# cache only when the grown box is dense in it: at most 4 cells per queried
# point and at most this many cells overall. Sparse queries (dyadic power
# orbits, whose box doubles at every level) are served from the sorted
# per-point store instead; both paths draw from the same pure hash.
_DENSE_VOLUME = 1 << 17

# Rows left after a rejection round below which drawing them one by one in
# Python costs less than the fixed numpy cost of another round.
_ROUND_MIN = 16

_blake16 = partial(hashlib.blake2b, digest_size=16)
_digest = hashlib.blake2b.digest


def _scaled(u, amp: float):
    """(2 u / 2^64 - 1) * amp for a uint64 u already held as a double: one
    coordinate of a draw. 2 (u / 2^64) is u * 2^-63 exactly. Works on floats
    and arrays alike, so both draw paths share it."""
    return (u * 2.0**-63 - 1.0) * amp


def _in_disc(re, im, amp: float):
    """Whether the draw (re, im) lies in the disc of radius amp."""
    return re * re + im * im <= amp * amp


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


def _point_keys(pts: np.ndarray) -> np.ndarray:
    """One exact, sortable key per point: the coordinate itself in 1-d, the
    bytes of the int64 row otherwise."""
    pts = np.ascontiguousarray(pts, dtype=np.int64)
    if pts.shape[1] == 1:
        return pts[:, 0]
    return pts.view(np.dtype((np.void, 8 * pts.shape[1])))[:, 0]


@dataclass(frozen=True, eq=False)
class _SortedDraws:
    """Sparse draws: ``values[i]`` is the draw at the point whose key is
    ``keys[i]``, keys ascending. Its length is the number of points drawn."""

    keys: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return self.keys.shape[0]


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
        # Both caches are published whole, never mutated, so readers never mix two versions.
        self._memo = _SortedDraws(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.complex128))
        # Dense cache (lo, hi, grid).
        self._dense: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _draw_many(self, pts: np.ndarray) -> np.ndarray:
        """The draws at the rows of the int64 point array pts, shape (N, d):
        blake2b of "seed|coordinates|counter" gives (re, im) from two
        little-endian uint64 / 2^64, and rows that fall outside the disc go to
        the next counter.

        The first round's messages, counter 0 included, come from one string
        built column by column, with no Python frame per point. A later round
        swaps only the counter suffix of the rows still rejected, and the last
        few (under ``_ROUND_MIN``) are drawn one row at a time."""
        out = np.zeros(pts.shape[0], dtype=np.complex128)
        amp = self.amplitude
        if amp == 0.0 or not pts.shape[0]:
            return out
        parts = out.view(np.float64).reshape(-1, 2)
        seed = f"{self.seed}|"
        cols = [map(str, col) for col in pts.T.tolist()]
        coords = cols[0] if len(cols) == 1 else map(",".join, zip(*cols))
        msgs = (seed + ("|0\n" + seed).join(coords) + "|0").encode().split(b"\n")
        todo = np.arange(pts.shape[0])
        ctr = 0
        while len(msgs) >= _ROUND_MIN:
            digests = b"".join(map(_digest, map(_blake16, msgs)))
            words = np.frombuffer(digests, dtype="<u8").reshape(-1, 2)
            # hi * 2^32 + lo adds two exact doubles once, so it rounds the uint64
            # to nearest even as float(int) does.
            draw = _scaled((words >> 32) * 2.0**32 + (words & 0xFFFFFFFF), amp)
            ok = _in_disc(draw[:, 0], draw[:, 1], amp)
            parts[todo[ok]] = draw[ok]
            rejected = np.flatnonzero(~ok)
            todo = todo[rejected]
            cut = len(str(ctr))
            ctr += 1
            suffix = str(ctr).encode()
            msgs = [msgs[i][:-cut] + suffix for i in rejected.tolist()]
        # The same formula on the few rows left, one row at a time.
        for i, msg in zip(todo.tolist(), msgs):
            head, c = msg[: -len(str(ctr))], ctr
            while True:
                digest = _digest(_blake16(head + str(c).encode()))
                re = _scaled(float(int.from_bytes(digest[:8], "little")), amp)
                im = _scaled(float(int.from_bytes(digest[8:], "little")), amp)
                if _in_disc(re, im, amp):
                    out[i] = complex(re, im)
                    break
                c += 1
        return out

    def value(self, pt: tuple[int, ...]) -> complex:
        # The store alone, never the dense grid: a test can then check the
        # grid against value().
        return complex(self._stored(np.array([pt], dtype=np.int64))[0])

    def _rebuild_grid(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Copies the published grid when it lies inside [lo, hi] and draws only
        # the cells around it; values() calls this only for dense queries, so
        # the draws stay within 4x the points queried.
        shape = tuple(int(b) - int(a) + 1 for a, b in zip(lo, hi))
        vals = np.empty(shape, dtype=np.complex128)
        fresh = np.ones(shape, dtype=bool)
        old = self._dense
        if old is not None and (old[0] >= lo).all() and (old[1] <= hi).all():
            block = tuple(slice(int(a - b), int(a - b) + n) for a, b, n in zip(old[0], lo, old[2].shape))
            vals[block] = old[2]
            fresh[block] = False
        vals[fresh] = self._draw_many(np.argwhere(fresh) + lo)
        snapshot = (lo.copy(), hi.copy(), vals)
        self._dense = snapshot
        return snapshot

    def _sparse(self, pts: np.ndarray) -> np.ndarray:
        """Points inside the published grid read it; the others are looked up
        in the sorted store, and its misses are drawn once each, in one call,
        and merged in."""
        if self._dense is None:
            return self._stored(pts)
        lo, hi, grid = self._dense
        # Per-column bounds, and each point's flat position in the grid with
        # its coordinates clipped into the grid, so one gather serves every point.
        inside = np.ones(pts.shape[0], dtype=bool)
        flat = 0
        for col, a, b, side in zip(pts.T, lo, hi, grid.shape):
            inside &= (col >= a) & (col <= b)
            flat = flat * side + (np.clip(col, a, b) - a)
        if not inside.any():
            return self._stored(pts)
        out = grid.ravel()[flat]
        outside = ~inside
        if outside.any():
            out[outside] = self._stored(pts[outside])
        return out

    def _stored(self, pts: np.ndarray) -> np.ndarray:
        """The draws at pts from the sorted store, after drawing its misses."""
        keys = _point_keys(pts)
        store = self._memo
        if len(store):
            at = np.searchsorted(store.keys, keys)
            miss = store.keys[np.minimum(at, len(store) - 1)] != keys
        else:
            at = np.zeros(len(keys), dtype=np.intp)
            miss = np.ones(len(keys), dtype=bool)
        if miss.any():
            new, first = np.unique(keys[miss], return_index=True)
            drawn = self._draw_many(pts[miss][first])
            if len(store):
                slots = np.searchsorted(store.keys, new)
                new, drawn = np.insert(store.keys, slots, new), np.insert(store.values, slots, drawn)
            store = self._memo = _SortedDraws(new, drawn)
            at = np.searchsorted(store.keys, keys)
        return store.values[at]

    def values(self, pts: np.ndarray) -> np.ndarray:
        if self.amplitude == 0.0:
            return np.zeros(pts.shape[0], dtype=np.complex128)
        if not pts.size:
            return np.zeros(0, dtype=np.complex128)
        # One reduction per column: min(axis=0) on an (N, d) array is far slower.
        lo = np.array([col.min() for col in pts.T])
        hi = np.array([col.max() for col in pts.T])
        dense = self._dense
        if dense is None or not ((lo >= dense[0]).all() and (hi <= dense[1]).all()):
            if dense is not None:
                lo = np.minimum(lo, dense[0])
                hi = np.maximum(hi, dense[1])
            volume = float(np.prod((hi - lo + 1).astype(np.float64)))
            if volume > min(_DENSE_VOLUME, 4 * pts.shape[0]):
                return self._sparse(pts)
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


def _number(section: dict, key: str, default: Any, kind: type) -> Any:
    """section[key] (or default) converted by ``kind``; FormatError if it cannot be."""
    v = section.get(key, default)
    try:
        # int(True), float(True) and int(2.7) would pass.
        if isinstance(v, bool) or (kind is int and isinstance(v, float) and not v.is_integer()):
            raise TypeError
        return kind(v)
    except (TypeError, ValueError, OverflowError):
        raise FormatError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {v!r}") from None


def noise_from_dict(data: dict) -> Noise:
    if not isinstance(data, dict) or "type" not in data:
        raise FormatError(f"malformed noise descriptor: {data!r}")
    kind = data["type"]
    if kind not in ("parity", "seeded_uniform"):
        raise FormatError(f"unknown noise type {kind!r}")
    noise = ParityNoise if kind == "parity" else SeededUniformNoise
    return noise(_number(data, "amplitude", None, float), _number(data, "seed", 0, int))


class BoundedFn:
    """Base class: a complex-valued function on a carrier.

    Subclasses implement ``eval_many`` on point arrays; ``eval`` runs it on
    one row, so a scalar value is bit-identical to the bulk one.
    """

    carrier: Carrier

    def eval(self, x) -> complex:
        return complex(self.eval_many(self.carrier.row(x))[0])

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

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        shifted = pts + self.radius
        if shifted.size and (shifted.min() < 0 or shifted.max() > 2 * self.radius):
            raise InvalidElementError(f"points outside the tabulated box of radius {self.radius}")
        return self.values[tuple(shifted[:, j] for j in range(self.carrier.dim))]

    def covers(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask of points that lie inside the tabulated box."""
        return self.carrier.in_box(pts, self.radius)


TableFn = FiniteTableFn | LatticeTableFn


def table_fn(c: Carrier, values) -> TableFn:
    """A table of c's kind over its window: total on a finite carrier, on the window box on a lattice."""
    if isinstance(c, FiniteCarrier):
        return FiniteTableFn(c, values)
    return LatticeTableFn(c, values)


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

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        # einsum sums each row alone, so one row gets the bits it has inside a
        # bulk call; matmul sends a single row to another BLAS routine.
        vals = np.einsum("ij,j->i", pts.astype(np.float64), self.linear) + self.constant
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

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return self.base.eval_many(self.carrier.compose_many(np.asarray(self.y, dtype=np.int64), pts))


class RightTranslate(BoundedFn):
    """(f y)(x) = f(x y)."""

    def __init__(self, base: BoundedFn, y) -> None:
        self.base = base
        self.carrier = base.carrier
        self.y = self.carrier.check_element(y)

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return self.base.eval_many(self.carrier.compose_many(pts, np.asarray(self.y, dtype=np.int64)))


def even_part(f: BoundedFn) -> BoundedFn:
    return EvenPart(f)


def odd_part(f: BoundedFn) -> BoundedFn:
    return OddPart(f)


def left_translate(y, f: BoundedFn) -> BoundedFn:
    return LeftTranslate(y, f)


def right_translate(f: BoundedFn, y) -> BoundedFn:
    return RightTranslate(f, y)


# ----------------------------------------------------------------------------
# File interchange


def function_from_dict(data: dict, carrier: Carrier) -> BoundedFn:
    """Build a function from its canonical JSON dict form."""
    if not isinstance(data, dict) or "kind" not in data:
        raise FormatError("function data must be a dict with a 'kind' field")
    kind = data["kind"]
    if kind == "table":
        values = data.get("values")
        if not isinstance(values, dict):
            raise FormatError("table function needs a 'values' mapping")
        keys = carrier.window_keys()
        missing = [key for key in keys if key not in values]
        if missing:
            raise FormatError(f"table is not total on the window: missing {len(missing)} keys, e.g. {missing[0]!r}")
        return table_fn(carrier, [_parse_cnum(values[key], f"value at {key!r}") for key in keys])
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
    if isinstance(f, (FiniteTableFn, LatticeTableFn)):
        flat = f.eval_many(f.carrier.window_points())
        return {"kind": "table", "values": {key: _cpair(v) for key, v in zip(f.carrier.window_keys(), flat)}}
    if isinstance(f, OracleFn):
        out: dict = {
            "kind": "oracle",
            "linear": [_cpair(a) for a in f.linear],
            "constant": _cpair(f.constant),
            "noise": None if f.noise is None else f.noise.to_dict(),
        }
        return out
    raise FormatError(f"cannot serialize function of type {type(f).__name__}")
