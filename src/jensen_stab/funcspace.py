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
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import FormatError, InvalidElementError
from .records import _cpair, _list, _number, _parse_cnum, _require_finite_complex, require_tolerance

if TYPE_CHECKING:
    from .carrier import Carrier, FiniteCarrier, LatticeCarrier

# Absolute tolerance used by default in every numeric comparison.
DEFAULT_TOL = 1e-9

# Rows left after a rejection round below which drawing them one by one in
# Python costs less than the fixed numpy cost of another round.
_ROUND_MIN = 16

_blake16 = partial(hashlib.blake2b, digest_size=16)


def _digests(prefix: hashlib.blake2b, msgs: list[bytes]) -> bytes:
    """The 16-byte digests of prefix's input followed by each message, joined
    in order: each message continues its own copy of the state prefix."""
    out = []
    for msg in msgs:
        state = prefix.copy()
        state.update(msg)
        out.append(state.digest())
    return b"".join(out)


def _scaled(u, amp: float):
    """(2 u / 2^64 - 1) * amp for a uint64 u already held as a double: one
    coordinate of a draw. 2 (u / 2^64) is u * 2^-63 exactly. Works on floats
    and arrays alike, so both draw paths share it."""
    return (u * 2.0**-63 - 1.0) * amp


def _in_disc(re, im, amp: float):
    """Whether the draw (re, im) lies in the disc of radius amp.

    Outside [2^-500, 2^500] the squares would overflow or underflow, so all
    three are first scaled by the power of two that brings amp into [0.5, 1).
    The scaling is exact, so the decision is that of the unscaled test
    wherever that one neither overflows nor underflows."""
    if not 2.0**-500 <= amp <= 2.0**500:
        e = -math.frexp(amp)[1]
        re, im, amp = np.ldexp(re, e), np.ldexp(im, e), math.ldexp(amp, e)
    return re * re + im * im <= amp * amp


class ParityNoise:
    """Deterministic noise amplitude * (-1)^(sum of coordinates)."""

    type = "parity"

    def __init__(self, amplitude: float, seed: int = 0) -> None:
        require_tolerance(amplitude, "noise amplitude")
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
        return {"type": self.type, "amplitude": self.amplitude, "seed": self.seed}


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

    A query is dense when its bounding box has at most 4 cells per point.
    The first dense query draws the one grid, its box, which never grows.
    Any query the grid does not hold (a dyadic power orbit, whose box
    doubles at every level) goes whole to a sorted per-point store, which
    draws the points it lacks. A draw is a function of the point alone, so
    both give the same bits.
    """

    type = "seeded_uniform"

    def __init__(self, amplitude: float, seed: int) -> None:
        require_tolerance(amplitude, "noise amplitude")
        self.amplitude = float(amplitude)
        self.seed = int(seed)
        # Both caches are published whole, never mutated, so readers never mix two versions.
        self._memo = _SortedDraws(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.complex128))
        # The one dense grid (lo, hi, grid), drawn once and never grown.
        self._dense: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _draw_many(self, pts: np.ndarray) -> np.ndarray:
        """The draws at the rows of the int64 point array pts, shape (N, d):
        blake2b of "seed|coordinates|counter" gives (re, im) from two
        little-endian uint64 / 2^64, and rows that fall outside the disc go to
        the next counter.

        BLAKE2 is a streaming hash, so the call hashes "seed|" once and each
        message "coordinates|counter" continues a copy of that state. The
        first round's messages, counter 0 included, come from one string
        built column by column, with no Python frame per point. A later round
        swaps only the counter suffix of the rows still rejected, and the last
        few (under ``_ROUND_MIN``) are drawn one row at a time."""
        out = np.zeros(pts.shape[0], dtype=np.complex128)
        amp = self.amplitude
        if amp == 0.0 or not pts.shape[0]:
            return out
        parts = out.view(np.float64).reshape(-1, 2)
        # Built per call, never kept: a hash state cannot be pickled or copied with its owner.
        prefix = _blake16(f"{self.seed}|".encode())
        cols = [map(str, col) for col in pts.T.tolist()]
        coords = cols[0] if len(cols) == 1 else map(",".join, zip(*cols))
        msgs = ("|0\n".join(coords) + "|0").encode().split(b"\n")
        todo = np.arange(pts.shape[0])
        ctr = 0
        while len(msgs) >= _ROUND_MIN:
            words = np.frombuffer(_digests(prefix, msgs), dtype="<u8").reshape(-1, 2)
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
                digest = _digests(prefix, [head + str(c).encode()])
                re = _scaled(float(int.from_bytes(digest[:8], "little")), amp)
                im = _scaled(float(int.from_bytes(digest[8:], "little")), amp)
                if _in_disc(re, im, amp):
                    out[i] = complex(re, im)
                    break
                c += 1
        return out

    def value(self, pt: tuple[int, ...]) -> complex:
        # A fresh draw, never a cache: a test can then check the grid and the
        # store against value().
        return complex(self._draw_many(np.array([pt], dtype=np.int64))[0])

    def _rebuild_grid(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Draws every cell of the box [lo, hi]; values() calls this once, for
        # its first dense query, so the draws stay within 4x the points queried.
        shape = tuple(int(b) - int(a) + 1 for a, b in zip(lo, hi))
        cells = np.indices(shape).reshape(len(shape), -1).T + lo
        snapshot = (lo.copy(), hi.copy(), self._draw_many(cells).reshape(shape))
        self._dense = snapshot
        return snapshot

    def _stored(self, pts: np.ndarray) -> np.ndarray:
        """The draws at pts from the sorted store, after drawing its misses."""
        keys = _point_keys(pts)
        store = self._memo
        miss = np.ones(len(keys), dtype=bool)
        if len(store):
            at = np.searchsorted(store.keys, keys)
            miss = store.keys[np.minimum(at, len(store) - 1)] != keys
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
        if dense is None:
            # In floats: hi - lo overflows int64 once an orbit passes 2^62.
            if float(np.prod(hi.astype(np.float64) - lo + 1)) > 4 * pts.shape[0]:
                return self._stored(pts)
            dense = self._rebuild_grid(lo, hi)
        elif not ((lo >= dense[0]).all() and (hi <= dense[1]).all()):
            return self._stored(pts)
        grid_lo, _, grid = dense
        return grid[tuple(pts[:, j] - grid_lo[j] for j in range(pts.shape[1]))]

    def bound(self) -> float:
        return self.amplitude

    def odd_part_bound(self) -> float:
        return self.amplitude

    def to_dict(self) -> dict:
        return {"type": self.type, "amplitude": self.amplitude, "seed": self.seed}


Noise = ParityNoise | SeededUniformNoise
# The noise classes by the type name their files carry.
NOISE_TYPES = {cls.type: cls for cls in (ParityNoise, SeededUniformNoise)}


def noise_from_dict(data: dict) -> Noise:
    if not isinstance(data, dict) or "type" not in data:
        raise FormatError(f"malformed noise descriptor: {data!r}")
    kind = data["type"]
    noise = NOISE_TYPES.get(kind) if isinstance(kind, str) else None
    if noise is None:
        raise FormatError(f"unknown noise type {kind!r}")
    return noise(_number(data, "amplitude", None, float), _number(data, "seed", 0, int))


class BoundedFn:
    """Base class: a complex-valued function on a carrier.

    Subclasses implement ``eval_many`` on point arrays; ``eval`` runs it on
    one row, so a scalar value is bit-identical to the bulk one. A view
    reads its ``base``; an oracle carries its bounded ``noise``.
    """

    carrier: Carrier
    base: BoundedFn | None = None
    noise: Noise | None = None

    def eval(self, x) -> complex:
        return complex(self.eval_many(self.carrier.row(x))[0])

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def reads(self, pts: np.ndarray) -> list[np.ndarray]:
        """The point arrays at which a view (a function with a ``base``) reads
        its base to evaluate itself at pts: pts itself unless it says otherwise."""
        return [pts]

    def readable(self, pts: np.ndarray) -> np.ndarray | None:
        """Mask of the points of pts at which this function can be evaluated,
        None if at all of them. A view can be read where its base can be
        read at every point it reads (an involution other than negation can
        map points of a table's box out of it); a table masks its box."""
        if self.base is None:
            return None
        mask = None
        for a in self.reads(pts):
            got = self.base.readable(a)
            if got is not None:
                mask = got if mask is None else mask & got
        return mask

    def perturbed(self, noise: Noise) -> BoundedFn:
        """This function plus the noise."""
        raise FormatError(f"cannot perturb function of type {type(self).__name__}")

    def to_dict(self) -> dict:
        """The canonical JSON dict form, which ``function_from_dict`` reads back."""
        raise FormatError(f"cannot serialize function of type {type(self).__name__}")

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

    def perturbed(self, noise: Noise) -> FiniteTableFn:
        # An overflowing sum is refused as a non-finite table, without numpy's warning.
        with np.errstate(over="ignore", invalid="ignore"):
            values = self.values + noise.values(np.arange(self.carrier.size)[:, None])
        return FiniteTableFn(self.carrier, values)

    def to_dict(self) -> dict:
        """The values keyed by the carrier's window keys."""
        flat = self.eval_many(self.carrier.window_points())
        return {"kind": "table", "values": {key: _cpair(v) for key, v in zip(self.carrier.window_keys(), flat)}}


class LatticeTableFn(BoundedFn):
    """Values tabulated on the window box [-N, N]^d of a lattice carrier.

    Evaluation outside the tabulated box raises ``InvalidElementError``;
    scans that need products restrict their pair domains accordingly.
    """

    def __init__(self, carrier: LatticeCarrier, values: np.ndarray) -> None:
        r = carrier.window_radius
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
        at = _box_index(pts, self.radius, self.carrier.dim)
        if at is None:
            raise InvalidElementError(f"points outside the tabulated box of radius {self.radius}")
        return self.values[at]

    def readable(self, pts: np.ndarray) -> np.ndarray | None:
        mask = (np.abs(pts) <= self.radius).all(axis=1)
        return None if mask.all() else mask

    to_dict = FiniteTableFn.to_dict


def _box_index(pts: np.ndarray, r: int, dim: int) -> tuple[np.ndarray, ...] | None:
    """The index of the points pts, shape (N, dim), into a (2r + 1)^dim array
    over the centred box of radius r; None when a point lies outside the box."""
    if pts.size and (pts.min() < -r or pts.max() > r):
        return None
    return tuple(pts[:, j] + r for j in range(dim))


class TabulatedFn(BoundedFn):
    """A function read from one table of its values on the centred box of
    radius r of a lattice (see ``LatticeCarrier.tabulated``).

    A call's points in the box are gathered from the table; only the others
    are read from the base. A value at a point does not depend on the call
    it is read in (an oracle's sum runs row by row, and its noise is a
    function of the point), so both give the base's bits. The table holds
    the values as the base gives them, inf and NaN included, and the view
    carries the base's noise and is readable where the base is.
    """

    def __init__(self, base: BoundedFn, box: np.ndarray) -> None:
        """box: the centred box of radius r in lexicographic order (``LatticeCarrier.box_points``)."""
        self.base = base
        self.carrier = base.carrier
        self.noise = base.noise
        self.radius = int(box[-1, 0])
        self.values = base.eval_many(box).reshape((2 * self.radius + 1,) * self.carrier.dim)
        self.values.setflags(write=False)

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        r, dim = self.radius, self.carrier.dim
        at = _box_index(pts, r, dim)
        if at is not None:
            return self.values[at]
        inside = ((pts >= -r) & (pts <= r)).all(axis=1)
        out = np.empty(pts.shape[0], dtype=np.complex128)
        out[inside] = self.values[_box_index(pts[inside], r, dim)]
        out[~inside] = self.base.eval_many(pts[~inside])
        return out


TableFn = FiniteTableFn | LatticeTableFn


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
        noise = None if self.noise is None else self.noise.values(pts)
        # einsum sums each row alone, so one row gets the bits it has inside a
        # bulk call; matmul sends a single row to another BLAS routine. Values
        # that overflow stay inf or NaN, which scans and tables refuse as
        # non-finite; numpy's warnings would only reach stderr ahead of that.
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.einsum("ij,j->i", pts.astype(np.float64), self.linear) + self.constant
            return vals if noise is None else vals + noise

    def perturbed(self, noise: Noise) -> OracleFn:
        if self.noise is not None:
            raise FormatError("oracle already carries noise; perturb the noise-free base")
        return OracleFn(self.carrier, self.linear, self.constant, noise)

    def to_dict(self) -> dict:
        return {
            "kind": "oracle",
            "linear": [_cpair(a) for a in self.linear],
            "constant": _cpair(self.constant),
            "noise": None if self.noise is None else self.noise.to_dict(),
        }


class EvenPart(BoundedFn):
    """f_even(x) = (f(x) + f(sigma(x))) / 2."""

    def __init__(self, base: BoundedFn) -> None:
        self.base = base
        self.carrier = base.carrier

    def reads(self, pts: np.ndarray) -> list[np.ndarray]:
        return [pts, self.carrier.involute_many(pts)]

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        v1, v2 = map(self.base.eval_many, self.reads(pts))
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

    reads = EvenPart.reads

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        v1, v2 = map(self.base.eval_many, self.reads(pts))
        return v1 - (v1 + v2) / 2


class LeftTranslate(BoundedFn):
    """(y f)(x) = f(y x)."""

    def __init__(self, y, base: BoundedFn) -> None:
        self.base = base
        self.carrier = base.carrier
        self.y = self.carrier.check_element(y)

    def reads(self, pts: np.ndarray) -> list[np.ndarray]:
        return [self.carrier.compose_many(np.asarray(self.y, dtype=np.int64), pts)]

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return self.base.eval_many(self.reads(pts)[0])


class RightTranslate(BoundedFn):
    """(f y)(x) = f(x y)."""

    def __init__(self, base: BoundedFn, y) -> None:
        self.base = base
        self.carrier = base.carrier
        self.y = self.carrier.check_element(y)

    def reads(self, pts: np.ndarray) -> list[np.ndarray]:
        return [self.carrier.compose_many(pts, np.asarray(self.y, dtype=np.int64))]

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return self.base.eval_many(self.reads(pts)[0])


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
        return carrier.table_fn([_parse_cnum(values[key], f"value at {key!r}") for key in keys])
    if kind == "oracle":
        linear = _list(data, "linear", None)
        lin = None if linear is None else [_parse_cnum(v, "linear coefficient") for v in linear]
        constant = _parse_cnum(data.get("constant", 0.0), "constant term")
        noise = None
        if data.get("noise") is not None:
            noise = noise_from_dict(data["noise"])
        return carrier.oracle(lin, constant, noise)
    raise FormatError(f"unknown function kind {kind!r}")
