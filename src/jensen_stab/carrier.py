"""Carriers: semigroups with neutral element and involution.

Two realizations are supported:

* ``FiniteCarrier`` -- a finite monoid or group given by a Cayley table and
  an involution table, with exhaustively checkable axioms.
* ``LatticeCarrier`` -- the lattice group Z^d under addition with the
  negation involution, evaluated on a finite window and averaged over
  Folner boxes.

Elements are plain handles: an ``int`` index for finite carriers, a tuple
of ``int`` coordinates for lattices (bare ints are accepted when d = 1).

A carrier implements its group law once, in bulk (``compose_many``,
``involute_many``, ``square_many`` on point arrays); the ``Carrier`` base
runs the scalar ``compose``, ``involute`` and ``dyadic_power`` on one row.

The window geometry (window points, pair arrays and the composed terms
the scans read, ``window_terms``) is built once per carrier object and
handed out read-only; so are a lattice's one table box for all of those
terms, with each term's positions in it, and the dyadic orbit levels of the
window (``dyadic_levels``, ``pair_levels``). All of it is held in one plain
dict per carrier, grown in place. Only arrays the carrier built and holds
are looked up, by identity, so an array from anywhere else is always
computed afresh.

Each carrier answers every question that depends on its kind: its window
and file keys, its invariant mean's averaging set and budget, the domain
that phi's integrand reaches, how exact its suprema are and how its axioms
are checked, so the scans, constructions, checks and CLI never ask which
kind they hold. It also builds the functions of its kind: ``table_fn``
(a ``FiniteTableFn`` over G, a ``LatticeTableFn`` over the window box),
``exact_solution`` (a constant table, an affine oracle), ``oracle``
(an ``OracleFn``, on a lattice only) and ``tabulated`` (f itself, or on a
lattice a ``TabulatedFn``: f read from one table of its values on a box).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import scan
from .errors import CapabilityError, FormatError, InvalidElementError, LatticeOverflowError
from .funcspace import BoundedFn, FiniteTableFn, LatticeTableFn, Noise, OracleFn, TabulatedFn
from .records import Record, _number, require_count

# Largest lattice coordinate a handle may carry; its negation fits in int64 too.
INT64_MAX = 2**63 - 1

EXACT_UNIFORM = "exact_uniform"
FOLNER = "folner"
NO_MEAN = "none"


@dataclass(frozen=True)
class AxiomViolation(Record):
    """First failing axiom of a carrier, with a concrete witness."""

    axiom: str
    witness: tuple
    detail: str


@dataclass
class ValidationReport(Record):
    """Outcome of ``validate_carrier``: pass/fail plus witnesses."""

    ok: bool
    kind: str
    size: int | None
    is_group: bool | None
    violations: list[AxiomViolation] = field(default_factory=list)


class WindowTerms(NamedTuple):
    """The window W, its pairs (x, y) in row-major order and the composed
    terms the defect scans and checks read, all read-only. sigma(x) alone is
    read by no scan, so it is not kept."""

    w: np.ndarray
    x: np.ndarray
    y: np.ndarray
    sy: np.ndarray
    xy: np.ndarray
    x_sy: np.ndarray
    yx: np.ndarray
    sy_x: np.ndarray
    y_sx: np.ndarray
    sx_sy: np.ndarray
    sq: np.ndarray
    w_sw: np.ndarray


# reach's reader: a table over its domain -> the (y x, x sigma(y)) value blocks.
Rows = Callable[[np.ndarray], Iterator[tuple[np.ndarray, np.ndarray]]]


class Carrier:
    """Base class: a semigroup with neutral element and involution.

    Subclasses implement ``check_element`` and the bulk operations on point
    arrays; the scalar operations here run those on one row, so a scalar
    call obeys the same overflow rule and raises the same errors as a bulk one.
    """

    @cached_property
    def _built(self) -> dict:
        """The values built once per carrier, by key; entries are only added."""
        return {}

    def _once(self, key: Any, build: Callable[[], Any]) -> Any:
        """The value held under key, built on first use, its arrays made read-only."""
        if key not in self._built:
            got = build()
            for a in got if isinstance(got, tuple) else (got,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            self._built[key] = got
        return self._built[key]

    def window_terms(self) -> WindowTerms:
        """The window geometry the scans read, built on the first call."""

        def build() -> WindowTerms:
            w = self.window_points()
            x, y = self.window_pair_arrays()
            sx, sy = self.involute_many(x), self.involute_many(y)
            xy, x_sy = self.compose_many(x, y), self.compose_many(x, sy)
            yx, sy_x = self.compose_many(y, x), self.compose_many(sy, x)
            # Equal over the window (an abelian carrier): y x is the array x y, sigma(y) x is x sigma(y).
            return WindowTerms(
                w=w,
                x=x,
                y=y,
                sy=sy,
                xy=xy,
                x_sy=x_sy,
                yx=xy if np.array_equal(yx, xy) else yx,
                sy_x=x_sy if np.array_equal(sy_x, x_sy) else sy_x,
                y_sx=self.compose_many(y, sx),
                sx_sy=self.compose_many(sx, sy),
                sq=self.square_many(w),
                w_sw=self.compose_many(w, self.involute_many(w)),
            )

        return self._once("terms", build)

    def _term_name(self, a: np.ndarray) -> str | None:
        """The name of a if it is one of the window terms this carrier holds."""
        return next((name for name, t in zip(WindowTerms._fields, self._built.get("terms", ())) if t is a), None)

    @property
    def sigma_is_inverse(self) -> bool:
        """True iff x sigma(x) = sigma(x) x = e for every element x, read once
        off the window: all of G on a finite carrier, and on Z^d, whose
        involutions are linear, a set that holds every unit vector."""

        def build() -> bool:
            w = self.window_points()
            sw, e = self.involute_many(w), self.row(self.neutral)
            return all(bool((self.compose_many(a, b) == e).all()) for a, b in ((w, sw), (sw, w)))

        return self._once("sigma_is_inverse", build)

    def dyadic_levels(self, pts: np.ndarray) -> Callable[[int], np.ndarray]:
        """k -> pts^(2^k), level k squared from level k - 1 (see ``_levels``)."""
        return self._levels(pts, "powers", pts, lambda k, prev: self.square_many(prev))

    def pair_levels(self, pts: np.ndarray) -> Callable[[int], np.ndarray]:
        """k -> the 2k Forti-Sikorska pair rows of level k, stacked: the rows
        of level k - 1 squared, then x^(2^(k-1)) sigma(x)^(2^(k-1)) and its
        mirror sigma(x)^(2^(k-1)) x^(2^(k-1)) for x in pts (see ``_levels``).
        Where ``sigma_is_inverse`` every row is e, so the reconstruction
        reads f at e instead and never asks for them."""
        power = self.dyadic_levels(pts)

        def step(k: int, prev: np.ndarray) -> np.ndarray:
            xk = power(k - 1)
            sk = self.involute_many(xk)
            return np.concatenate([self.square_many(prev), self.compose_many(xk, sk), self.compose_many(sk, xk)])

        return self._levels(pts, "pair_rows", pts[:0], step)

    def _levels(self, pts: np.ndarray, what: str, first: np.ndarray, step: Callable) -> Callable[[int], np.ndarray]:
        """k -> level k: level 0 is first, level k is step(k, level k - 1),
        built on first use, read-only, and appended to one list of levels.
        For a window term this carrier holds, the list is held on it under
        (what, term name) for every later caller; for any other array it lives
        as long as the returned function. A level whose step raises is not kept."""
        name = self._term_name(pts)
        got = [first] if name is None else self._once((what, name), lambda: [first])

        def level(k: int) -> np.ndarray:
            for i in range(len(got), k + 1):
                got.append(step(i, got[-1]))
                got[-1].flags.writeable = False
            return got[k]

        return level

    def reach(self, xs: np.ndarray, k_used: int) -> tuple[np.ndarray, Rows]:
        """The table domain of every y x and x sigma(y) that phi's integrand
        reaches, for y in the window and x in the mean set xs, and
        rows(table), which reads a table over that domain in blocks of window
        rows y (see ``_row_blocks``): row y holds the values at y x, and at
        x sigma(y), for x in xs. Here each block gathers by position."""
        w = self.window_points()
        n, m = w.shape[0], xs.shape[0]
        y, x = np.repeat(w, m, axis=0), np.concatenate([xs] * n)
        domain, positions = self.table_domain([self.compose_many(y, x), self.compose_many(x, self.involute_many(y))])
        yx, x_sy = (list(_row_blocks(p.reshape(n, m), m)) for p in positions)
        return domain, lambda table: ((table[a], table[b]) for a, b in zip(yx, x_sy))

    def tabulated(self, f: BoundedFn, k: int | None = None, mean: bool = False) -> BoundedFn:
        """f, read from one table wherever an experiment reads it off the
        dyadic orbits; a finite carrier's f is already a table of G."""
        return f

    def row(self, x) -> np.ndarray:
        """The one-row point array holding the element x."""
        return np.array([self.check_element(x)], dtype=np.int64)

    def compose(self, x, y):
        return self.check_element(self.compose_many(self.row(x), self.row(y))[0])

    def involute(self, x):
        return self.check_element(self.involute_many(self.row(x))[0])

    def dyadic_power(self, x, n: int):
        """x^(2^n) by n repeated squarings; n = 0 returns x itself."""
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise FormatError(f"dyadic power exponent must be an integer >= 0, got {n!r}")
        return self.check_element(self.dyadic_levels(self.row(x))(n)[0])

    def oracle(self, linear: Sequence[complex] | None, constant: complex, noise: Noise | None) -> OracleFn:
        """The oracle a . x + constant + noise, which only a lattice evaluates."""
        raise FormatError("oracle functions require a lattice carrier")


class FiniteCarrier(Carrier):
    """Finite monoid/group from a Cayley table with an involution table.

    Indices are the canonical element identity; labels exist for files and
    reports. The structure is immutable after construction and all
    operations are pure.
    """

    kind = "finite"
    # Scans cover all of G, so every supremum is exact.
    exactness = "exhaustive"

    def __init__(
        self,
        elements: Sequence[str],
        op_table: Sequence[Sequence[int]],
        involution: Sequence[int],
        neutral: int,
        name: str = "finite",
    ) -> None:
        self.name = name
        self.elements = tuple(str(x) for x in elements)
        n = len(self.elements)
        if n == 0:
            raise FormatError("carrier needs at least one element")
        if len(set(self.elements)) != n:
            raise FormatError("element labels must be distinct")
        op = _indices(op_table, (n, n), "op table")
        inv = _indices(involution, (n,), "involution table")
        if not 0 <= int(neutral) < n:
            raise FormatError("neutral index out of range")
        self.op = op
        self.involution = inv
        # The window is G in index order, so e sits at its own index.
        self.neutral = self.neutral_position = int(neutral)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def is_group(self) -> bool:
        """True iff every row and column of the op table is a permutation."""
        full = np.arange(self.size)
        return self._once("is_group", lambda: all((np.sort(t, axis=1) == full).all() for t in (self.op, self.op.T)))

    @property
    def mean_capability(self) -> str:
        # The uniform average is translation-invariant iff translations are
        # bijections, i.e. iff the carrier is a group.
        return EXACT_UNIFORM if self.is_group else NO_MEAN

    def check_element(self, x) -> int:
        if isinstance(x, (bool, float)):
            raise InvalidElementError(f"{x!r} is not an element index of {self.name}")
        try:
            xi = int(x)
        except (TypeError, ValueError):
            raise InvalidElementError(f"{x!r} is not an element index of {self.name}") from None
        if not 0 <= xi < self.size:
            raise InvalidElementError(f"index {xi} out of range for {self.name} of size {self.size}")
        return xi

    def index_of(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise InvalidElementError(f"label {label!r} not in carrier {self.name}") from None

    def label(self, x: int) -> str:
        return self.elements[self.check_element(x)]

    def compose_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return self.op[xs, ys]

    def involute_many(self, xs: np.ndarray) -> np.ndarray:
        return self.involution[xs]

    def square_many(self, xs: np.ndarray) -> np.ndarray:
        return self.op[xs, xs]

    def window_elements(self) -> np.ndarray:
        return self._once("window", lambda: np.arange(self.size, dtype=np.int64))

    window_points = window_elements

    def window_keys(self) -> list[str]:
        """File keys of the window, in window order."""
        return list(self.elements)

    def mean_set(self, k: int | None = None) -> tuple[np.ndarray, int, int]:
        """All of G, averaged exactly (k is ignored, k_used is |G|), with the
        first non-neutral element as the probe translate."""
        if not self.is_group:
            raise CapabilityError(
                f"carrier {self.name} has mean capability {self.mean_capability!r}: the uniform average is "
                "not translation-invariant off groups, so only the dyadic and "
                "reconstruction methods are available"
            )
        probe = next((i for i in range(self.size) if i != self.neutral), self.neutral)
        return self.window_elements(), self.size, probe

    def table_domain(self, arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
        """All of G, which holds every point; an element's position is its index."""
        return self.window_elements(), list(arrays)

    def mean_translate_ratio(self, k_used: int) -> float:
        # The uniform average on a finite group is exactly invariant: no Folner budget.
        return 0.0

    def window_pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All |G|^2 ordered pairs as (X, Y), row-major in index order."""
        idx = self.window_elements()
        return self._once("pairs", lambda: (np.repeat(idx, self.size), np.tile(idx, self.size)))

    def element_repr(self, x) -> str:
        return self.label(x)

    def table_fn(self, values: Sequence[complex]) -> FiniteTableFn:
        """The table of values over G in index order."""
        return FiniteTableFn(self, values)

    def exact_solution(self, constant: complex, linear: Sequence[complex] | None = None) -> FiniteTableFn:
        """The constant exact Jensen solution; a nonzero linear part is refused."""
        if linear is not None and any(a != 0 for a in linear):
            raise FormatError("finite carriers admit only constant base solutions")
        return FiniteTableFn(self, np.full(self.size, complex(constant), dtype=np.complex128))

    def _validate(self) -> ValidationReport:
        n = self.size
        op = self.op
        inv = self.involution
        e = self.neutral

        # Neutral element first: op(e, x) = op(x, e) = x.
        row_ok = np.array_equal(op[e], np.arange(n))
        col_ok = np.array_equal(op[:, e], np.arange(n))
        if not (row_ok and col_ok):
            detail = f"declared neutral {self.elements[e]!r} is not a two-sided identity"
            others = [
                i
                for i in range(n)
                if np.array_equal(op[i], np.arange(n)) and np.array_equal(op[:, i], np.arange(n))
            ]
            if not others:
                detail += "; no element acts as a two-sided identity"
            bad_x = int(np.argmax(op[e] != np.arange(n))) if not row_ok else int(np.argmax(op[:, e] != np.arange(n)))
            v = AxiomViolation("neutral", (self.elements[e], self.elements[bad_x]), detail)
            return ValidationReport(False, "finite", n, None, [v])

        # Associativity over all n^3 triples: (xy)z = x(yz).
        left = op[op, :]            # left[x, y, z] = op(op(x, y), z)
        right = op[:, op]           # right[x, y, z] = op(x, op(y, z))
        mismatch = left != right
        if mismatch.any():
            x, y, z = (int(i) for i in np.argwhere(mismatch)[0])
            v = AxiomViolation(
                "associativity",
                (self.elements[x], self.elements[y], self.elements[z]),
                f"op(op({self.elements[x]},{self.elements[y]}),{self.elements[z]}) != "
                f"op({self.elements[x]},op({self.elements[y]},{self.elements[z]}))",
            )
            return ValidationReport(False, "finite", n, None, [v])

        # Involutive: sigma(sigma(x)) = x.
        twice = inv[inv]
        if not np.array_equal(twice, np.arange(n)):
            x = int(np.argmax(twice != np.arange(n)))
            v = AxiomViolation("involutive", (self.elements[x],), "sigma(sigma(x)) != x")
            return ValidationReport(False, "finite", n, None, [v])

        # Anti-homomorphism: sigma(xy) = sigma(y) sigma(x).
        lhs = inv[op]               # sigma(op(x, y))
        rhs = op[inv, :][:, inv].T  # rhs[x, y] = op(inv[y], inv[x])
        anti_bad = lhs != rhs
        if anti_bad.any():
            x, y = (int(i) for i in np.argwhere(anti_bad)[0])
            v = AxiomViolation(
                "anti_homomorphism",
                (self.elements[x], self.elements[y]),
                "sigma(xy) != sigma(y)sigma(x)",
            )
            return ValidationReport(False, "finite", n, None, [v])

        return ValidationReport(True, "finite", n, self.is_group)

    def to_dict(self) -> dict:
        return {
            "kind": "finite",
            "elements": list(self.elements),
            "neutral": self.elements[self.neutral],
            "op": self.op.tolist(),
            "involution": self.involution.tolist(),
        }


def _indices(table: Any, shape: tuple[int, ...], what: str) -> np.ndarray:
    """table as a read-only int64 array of element indices; FormatError if it
    is ragged, has another shape, or holds anything but integers in range."""
    try:
        arr = np.asarray(table)
    except ValueError:  # ragged
        arr = None
    if arr is None or arr.shape != shape:
        raise FormatError(f"{what} must be a table of shape {shape}")
    # A float passes only when it is an integer; numpy would read true as 1.
    integral = arr.dtype.kind in "iu" or (arr.dtype.kind == "f" and bool((arr == np.floor(arr)).all()))
    if not integral or any(v.__class__ is bool for v in np.asarray(table, dtype=object).flat):
        raise FormatError(f"{what} entries must be integers")
    if arr.size and (arr.min() < 0 or arr.max() >= shape[0]):
        raise FormatError(f"{what} entry out of range")
    arr = arr.astype(np.int64)
    arr.setflags(write=False)
    return arr


class LatticeCarrier(Carrier):
    """The group Z^d under addition, sigma = negation, with a scan window.

    ``window_radius`` bounds the evaluation window [-N, N]^d used by every
    supremum scan; ``folner_max`` bounds the Folner box radius available to
    the averaging machinery.
    """

    kind = "lattice"
    # The window truncates an infinite supremum.
    exactness = "window_lower_bound"

    def __init__(self, dim: int, window_radius: int, folner_max: int, name: str | None = None) -> None:
        require_count(dim, "lattice dimension")
        require_count(window_radius, "window radius")
        if folner_max < window_radius:
            raise FormatError("folner_max must be >= window_radius")
        # Before anything is allocated, and in logarithms, so a huge dim costs
        # nothing: the pair window, (2N+1)^(2d) rows, and the reach box of
        # radius folner_max + N must each fit numpy at d int64 values a row.
        for what, side, power in (
            ("pair window", 2 * window_radius + 1, 2 * dim),
            ("reach box", 2 * (folner_max + window_radius) + 1, dim),
        ):
            if power * math.log(side) + math.log(8 * dim) > math.log(np.iinfo(np.intp).max):
                raise FormatError(f"the {what} of Z^{dim} (window {window_radius}, folner_max {folner_max}) is too large for numpy")
        self.dim = int(dim)
        self.window_radius = int(window_radius)
        self.folner_max = int(folner_max)
        self.name = name or f"Z^{dim}"
        self.neutral = (0,) * self.dim
        # Lexicographic box order puts 0 in the middle of the window.
        self.neutral_position = ((2 * self.window_radius + 1) ** self.dim - 1) // 2

    @property
    def size(self) -> None:
        return None

    @property
    def mean_capability(self) -> str:
        return FOLNER

    def check_element(self, x) -> tuple[int, ...]:
        if isinstance(x, (int, np.integer)) and self.dim == 1:
            pt: tuple[int, ...] = (int(x),)
        else:
            try:
                pt = tuple(int(c) for c in x)
            except TypeError:
                raise InvalidElementError(f"{x!r} is not a point of {self.name}") from None
        if len(pt) != self.dim:
            raise InvalidElementError(f"point {x!r} has wrong dimension for {self.name}")
        for c in pt:
            if abs(c) > INT64_MAX:
                raise LatticeOverflowError(f"coordinate {c} exceeds the fixed-width integer range")
        return pt

    def compose_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        self._guard(xs)
        self._guard(ys)
        return xs + ys

    def involute_many(self, xs: np.ndarray) -> np.ndarray:
        return -xs

    def square_many(self, xs: np.ndarray) -> np.ndarray:
        self._guard(xs)
        return 2 * xs

    @staticmethod
    def _guard(arr: np.ndarray) -> None:
        # Checked before the arithmetic: numpy int64 would wrap silently.
        if arr.size and np.abs(arr).max() > 2**61:
            raise LatticeOverflowError("lattice coordinates left the safe integer range")

    def window_points(self) -> np.ndarray:
        """All points of [-N, N]^d in lexicographic order, shape (m, d)."""
        return self._once("window", lambda: self.box_points(self.window_radius))

    def window_keys(self) -> list[str]:
        """File keys "x,y,..." of the window, in window order."""
        return [",".join(str(c) for c in row) for row in self.window_points().tolist()]

    def box_points(self, k: int) -> np.ndarray:
        """The centered box [-k, k]^d, (2k+1)^d points in lexicographic order, for any k >= 0.

        Unlike ``folner_points`` it accepts radii past ``folner_max``, such as
        the reach k + N of a phi integrand.
        """
        rng = np.arange(-k, k + 1, dtype=np.int64)
        grids = np.meshgrid(*([rng] * self.dim), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def window_pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        pts = self.window_points()
        m = pts.shape[0]
        return self._once("pairs", lambda: (np.repeat(pts, m, axis=0), np.tile(pts, (m, 1))))

    def folner_points(self, k: int) -> np.ndarray:
        """The Folner box ``box_points(k)``, for 1 <= k <= folner_max."""
        require_count(k, "Folner radius")
        if k > self.folner_max:
            raise CapabilityError(f"Folner radius {k} exceeds folner_max {self.folner_max}")
        return self.box_points(k)

    def mean_set(self, k: int | None = None) -> tuple[np.ndarray, int, np.ndarray]:
        """The Folner box of radius k (default folner_max), with the first unit
        vector as the probe translate."""
        k_used = self.folner_max if k is None else int(k)
        probe = np.zeros(self.dim, dtype=np.int64)
        probe[0] = 1
        return self.folner_points(k_used), k_used, probe

    def reach(self, xs: np.ndarray, k_used: int) -> tuple[np.ndarray, Rows]:
        """``Carrier.reach`` with y x written as a translate: the box of radius
        ``_reach_radius(k_used)`` that y x and x sigma(y) reach for x in the
        Folner box xs (all of it, in lexicographic order), and rows(table),
        which reads row y as the window of the table over the box at y, and
        at sigma(y), in blocks of window rows.

        The generic body would compose |W| |xs| points up front (4.8 M on
        int2's default Folner box) and gather by them; this one reads each
        row off ``sliding_window_view`` of the table with the same values in
        the same order. On Z^1 a block's windows start one apart, in one
        direction, so the block is a basic slice of the view and nothing is
        copied; in higher dimensions it is a copy of its rows.
        """
        if np.abs(xs).max() > k_used:
            raise InvalidElementError(f"points outside the Folner box of radius {k_used}")
        side, m = 2 * k_used + 1, xs.shape[0]
        if m != side**self.dim:
            raise InvalidElementError(f"the mean set is not the whole Folner box of radius {k_used}")
        box, blocks = self._once(("reach", k_used), lambda: self._reach_blocks(k_used))
        r = int(box[-1, 0])  # the last point of the box is (r, ..., r)

        def rows(table: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
            win = np.lib.stride_tricks.sliding_window_view(table.reshape((2 * r + 1,) * self.dim), (side,) * self.dim)
            return ((win[a].reshape(-1, m), win[b].reshape(-1, m)) for a, b in blocks)

        return box, rows

    def _reach_blocks(self, k: int) -> tuple[np.ndarray, list[tuple[Any, Any]]]:
        """The box of radius ``_reach_radius(k)`` and, for each block of window
        rows (see ``_row_blocks``), the index of their windows at y and at
        sigma(y) in a sliding-window view of a table over the box (see
        ``_window_index``)."""
        w = self.window_points()
        r = self._reach_radius(k)
        # Row y's window covers y - k ... y + k: table index y - k + r on.
        starts = [_row_blocks(a + (r - k), (2 * k + 1) ** self.dim) for a in (w, self.involute_many(w))]
        return self.box_points(r), [(_window_index(a), _window_index(b)) for a, b in zip(*starts)]

    def _reach_radius(self, k: int) -> int:
        """k + max |coordinate| of W and sigma(W): the radius of the box that
        phi's integrand reaches from the Folner box of radius k."""
        w = self.window_points()
        return k + int(max(np.abs(w).max(), np.abs(self.involute_many(w)).max()))

    def _term_box(self) -> np.ndarray:
        """The one box of all the window terms (radius 2N under sigma = -id), built once."""
        return self._once("term_box", lambda: self.box_points(max(int(np.abs(t).max()) for t in self.window_terms())))

    def tabulated(self, f: BoundedFn, k: int | None = None, mean: bool = False) -> BoundedFn:
        """f read from one table (a ``TabulatedFn``) on a centred box that
        holds every point an experiment reads off the dyadic orbits: the box
        of the window terms, which the scans read, or, when the experiment
        builds phi (``mean``) with a Folner radius k within folner_max (None
        for folner_max), the larger of that and phi's reach box. Any other k
        tabulates the term box alone, so phi still raises its own error.
        An f that cannot be read on all of the box is returned as it is."""
        r = int(self._term_box()[-1, 0])  # the last point of the box is (R, ..., R)
        k_used = self.folner_max if k is None else k
        if mean and isinstance(k_used, int) and 1 <= k_used <= self.folner_max:
            r = max(r, self._reach_radius(k_used))
        box = self.box_points(r)
        return f if f.readable(box) is not None else TabulatedFn(f, box)

    def table_domain(self, arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
        """A centred box that holds every point of the arrays, and each
        array's lexicographic flat positions in it.

        The window terms this carrier holds share one box, the box of all of
        them (radius 2N under sigma = -id), built once with each term's
        positions in it. Any other arrays get the box of radius R = max
        |coordinate| over them, computed afresh.
        """
        names = [self._term_name(a) for a in arrays]
        if None in names:
            r = max(int(np.abs(a).max()) for a in arrays)
            return self.box_points(r), [self._flat(a, r) for a in arrays]
        box = self._term_box()
        r = int(box[-1, 0])  # the last point of the box is (R, ..., R)
        return box, [self._once(("flat", name), lambda a=a: self._flat(a, r)) for a, name in zip(arrays, names)]

    @staticmethod
    def _flat(pts: np.ndarray, r: int) -> np.ndarray:
        """Positions of pts in the lexicographic order of the box of radius r."""
        pos = pts[:, 0] + r
        for j in range(1, pts.shape[1]):
            pos = pos * (2 * r + 1) + (pts[:, j] + r)
        return pos

    def mean_translate_ratio(self, k_used: int) -> float:
        """|F delta (F + w)| / |F| for the Folner box F of radius k_used and
        the farthest window translate w = (N, ..., N)."""
        side = 2 * k_used + 1
        prod = 1.0
        for _ in range(self.dim):
            prod *= max(0, side - self.window_radius) / side
        return 2.0 * (1.0 - prod)

    def table_fn(self, values: np.ndarray) -> LatticeTableFn:
        """The table of values over the window box."""
        return LatticeTableFn(self, values)

    def exact_solution(self, constant: complex, linear: Sequence[complex] | None = None) -> OracleFn:
        """The affine exact Jensen solution a . x + constant."""
        return OracleFn(self, linear, complex(constant))

    def oracle(self, linear: Sequence[complex] | None, constant: complex, noise: Noise | None) -> OracleFn:
        return OracleFn(self, linear, constant, noise)

    def _validate(self) -> ValidationReport:
        return ValidationReport(ok=True, kind="lattice", size=None, is_group=True)

    def element_repr(self, x) -> list[int]:
        return list(self.check_element(x))

    def to_dict(self) -> dict:
        return {
            "kind": "lattice",
            "dim": self.dim,
            "window": self.window_radius,
            "folner_max": self.folner_max,
        }


def _window_index(starts: np.ndarray) -> slice | tuple[np.ndarray, ...]:
    """The index, in a sliding-window view, of the windows that start at the
    rows of starts: a basic slice when they step by +1 or by -1 along its one
    axis, so that reading them copies nothing, and their read-only start
    coordinates otherwise."""
    if starts.shape[1] == 1:
        s = starts[:, 0].tolist()
        steps = {b - a for a, b in zip(s, s[1:])} or {1}
        if steps == {1}:
            return slice(s[0], s[-1] + 1)
        if steps == {-1}:
            return slice(s[0], s[-1] - 1 if s[-1] else None, -1)
    starts.flags.writeable = False
    return tuple(starts.T)


def _row_blocks(rows: np.ndarray, width: int) -> Iterator[np.ndarray]:
    """Consecutive slices of rows for phi's integrand blocks: each slice holds
    as many rows as fit in ``scan._CHUNK`` elements at width elements a row,
    and at least one."""
    step = max(1, scan._CHUNK // width)
    return (rows[i : i + step] for i in range(0, rows.shape[0], step))


def validate_carrier(c: Carrier) -> ValidationReport:
    """Exhaustively check the carrier axioms, once per carrier object.

    Finite carriers are scanned over all pairs and triples; the first
    violated axiom is reported with a witness. Lattice carriers satisfy the
    axioms structurally (addition is associative, negation is an involutive
    anti-homomorphism on an abelian group). Later calls return the same report.
    """
    return c._once("validation", c._validate)


# ----------------------------------------------------------------------------
# Bundled carriers


def _group(name: str, labels: Sequence[str], elements: list, mul: Callable[[Any, Any], Any]) -> FiniteCarrier:
    """The group of elements under mul, with elements[0] as e and sigma the
    inverse, both read off the op table."""
    op = [[elements.index(mul(a, b)) for b in elements] for a in elements]
    return FiniteCarrier(labels, op, [row.index(0) for row in op], neutral=0, name=name)


def _hamilton(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The product of the quaternions a + b i + c j + d k given as (a, b, c, d)."""
    a, b, c, d = p
    w, x, y, z = q
    return (
        a * w - b * x - c * y - d * z,
        a * x + b * w + c * z - d * y,
        a * y - b * z + c * w + d * x,
        a * z + b * y - c * x + d * w,
    )


def _m3() -> FiniteCarrier:
    # Commutative monoid {e, a, z} with a*a = z and z absorbing; it is not a
    # group, and sigma = id is an anti-homomorphism because it is abelian.
    labels = ["e", "a", "z"]
    op = [
        [0, 1, 2],
        [1, 2, 2],
        [2, 2, 2],
    ]
    inv = [0, 1, 2]
    return FiniteCarrier(labels, op, inv, neutral=0, name="M3")


def bundled_carrier(name: str) -> Carrier:
    """Construct one of the bundled carriers by name.

    Finite: z2, z6, s3, q8 (sigma = inverse) and m3 (non-group monoid,
    sigma = id). Lattice: int1 (Z, window 64, Folner up to 512) and int2
    (Z^2, window 8, Folner up to 64).
    """
    key = name.strip().lower()
    if key in ("z2", "z6"):
        n = int(key[1:])
        labels = [f"g{i}" if i else "e" for i in range(n)]
        return _group(key.upper(), labels, list(range(n)), lambda a, b: (a + b) % n)
    if key == "s3":
        # Permutations of {0,1,2} in lexicographic order, labelled by their
        # images; (xy)(i) = x(y(i)), i.e. y acts first.
        perms = sorted(itertools.permutations(range(3)))
        return _group("S3", ["".join(map(str, p)) for p in perms], perms, lambda p, q: tuple(p[i] for i in q))
    if key == "q8":
        # The units 1, -1, i, -i, j, -j, k, -k as quaternion coefficients.
        units = [tuple(s * (i == axis) for i in range(4)) for axis in range(4) for s in (1, -1)]
        return _group("Q8", ["1", "-1", "i", "-i", "j", "-j", "k", "-k"], units, _hamilton)
    if key == "m3":
        return _m3()
    if key == "int1":
        return LatticeCarrier(dim=1, window_radius=64, folner_max=512, name="Z^1")
    if key == "int2":
        return LatticeCarrier(dim=2, window_radius=8, folner_max=64, name="Z^2")
    raise FormatError(f"unknown bundled carrier {name!r}; expected one of {sorted(BUNDLED_CARRIERS)}")


BUNDLED_CARRIERS = ("z2", "z6", "s3", "q8", "m3", "int1", "int2")


# ----------------------------------------------------------------------------
# File interchange


def carrier_from_dict(data: dict, name: str | None = None) -> Carrier:
    """Build a carrier from its canonical JSON dict form."""
    if not isinstance(data, dict) or "kind" not in data:
        raise FormatError("carrier data must be a dict with a 'kind' field")
    kind = data["kind"]
    if kind == "finite":
        try:
            elements = data["elements"]
            neutral_label = data["neutral"]
            op = data["op"]
            involution = data["involution"]
        except KeyError as exc:
            raise FormatError(f"finite carrier file missing field {exc}") from exc
        if not isinstance(elements, list):
            raise FormatError(f"elements must be a list of labels, got {elements!r}")
        if neutral_label not in elements:
            raise FormatError(f"neutral label {neutral_label!r} not among elements")
        return FiniteCarrier(
            elements,
            op,
            involution,
            neutral=elements.index(neutral_label),
            name=name or "finite",
        )
    if kind == "lattice":
        keys = ("dim", "window", "folner_max")
        missing = [key for key in keys if key not in data]
        if missing:
            raise FormatError(f"lattice carrier file missing field {missing[0]!r}")
        return LatticeCarrier(*(_number(data, key, None, int) for key in keys), name=name)
    raise FormatError(f"unknown carrier kind {kind!r}")
