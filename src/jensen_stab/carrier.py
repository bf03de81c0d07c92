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
handed out read-only; a lattice also keeps the table positions and box
masks of those terms. Only arrays the carrier built and holds are looked
up, by identity, so an array from anywhere else is always computed afresh.

Each carrier answers every question that depends on its kind: its window
and file keys, its invariant mean's averaging set and budget, the domain
that phi's integrand reaches and how exact its suprema are, so the scans,
constructions, checks and CLI never ask which kind they hold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import scan
from .errors import CapabilityError, FormatError, InvalidElementError, LatticeOverflowError
from .records import Record

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


class Carrier:
    """Base class: a semigroup with neutral element and involution.

    Subclasses implement ``check_element`` and the bulk operations on point
    arrays; the scalar operations here run those on one row, so a scalar
    call obeys the same overflow rule and raises the same errors as a bulk one.
    """

    # Values built once per carrier. Each build publishes a new dict in one
    # assignment; no published dict is ever mutated.
    _built: dict = {}

    def _once(self, key: Any, build: Callable[[], Any]) -> Any:
        """The value cached under key, built on first use; its arrays are made read-only."""
        got = self._built.get(key)
        if got is None:
            got = build()
            for a in got if isinstance(got, tuple) else (got,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            self._built = {**self._built, key: got}
        return got

    def window_terms(self) -> WindowTerms:
        """The window geometry the scans read, built on the first call."""

        def build() -> WindowTerms:
            w = self.window_points()
            x, y = self.window_pair_arrays()
            sx, sy = self.involute_many(x), self.involute_many(y)
            xy, x_sy = self.compose_many(x, y), self.compose_many(x, sy)
            # On an abelian carrier y x is x y and sigma(y) x is x sigma(y): one array each.
            return WindowTerms(
                w=w,
                x=x,
                y=y,
                sy=sy,
                xy=xy,
                x_sy=x_sy,
                yx=xy if self.is_abelian else self.compose_many(y, x),
                sy_x=x_sy if self.is_abelian else self.compose_many(sy, x),
                y_sx=self.compose_many(y, sx),
                sx_sy=self.compose_many(sx, sy),
                sq=self.square_many(w),
                w_sw=self.compose_many(w, self.involute_many(w)),
            )

        return self._once("terms", build)

    def _term_name(self, a: np.ndarray) -> str | None:
        """The name of a if it is one of the window terms this carrier holds."""
        terms = self._built.get("terms")
        if terms is not None:
            for name, t in zip(terms._fields, terms):
                if t is a:
                    return name
        return None

    def row(self, x) -> np.ndarray:
        """The one-row point array holding the element x."""
        return np.array([self.check_element(x)], dtype=np.int64)

    def compose(self, x, y):
        return self.check_element(self.compose_many(self.row(x), self.row(y))[0])

    def involute(self, x):
        return self.check_element(self.involute_many(self.row(x))[0])

    def dyadic_power(self, x, n: int):
        """x^(2^n) by n repeated squarings; n = 0 returns x itself."""
        if n < 0:
            raise ValueError("dyadic power exponent must be nonnegative")
        pts = self.row(x)
        for _ in range(n):
            pts = self.square_many(pts)
        return self.check_element(pts[0])


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
        op = np.asarray(op_table, dtype=np.int64)
        if op.shape != (n, n):
            raise FormatError(f"op table must be {n}x{n}, got {op.shape}")
        if op.min() < 0 or op.max() >= n:
            raise FormatError("op table entry out of range")
        inv = np.asarray(involution, dtype=np.int64)
        if inv.shape != (n,):
            raise FormatError(f"involution table must have length {n}")
        if inv.min() < 0 or inv.max() >= n:
            raise FormatError("involution entry out of range")
        if not 0 <= int(neutral) < n:
            raise FormatError("neutral index out of range")
        self.op = op
        self.op.setflags(write=False)
        self.involution = inv
        self.involution.setflags(write=False)
        # The window is G in index order, so e sits at its own index.
        self.neutral = self.neutral_position = int(neutral)
        self._is_group: bool | None = None

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def is_group(self) -> bool:
        """True iff every row and column of the op table is a permutation."""
        if self._is_group is None:
            n = self.size
            full = np.arange(n)
            rows_ok = all(np.array_equal(np.sort(self.op[i]), full) for i in range(n))
            cols_ok = all(np.array_equal(np.sort(self.op[:, j]), full) for j in range(n))
            self._is_group = bool(rows_ok and cols_ok)
        return self._is_group

    @property
    def is_abelian(self) -> bool:
        return bool((self.op == self.op.T).all())

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

    def reach(self, xs: np.ndarray, k_used: int) -> tuple[np.ndarray, Iterator[tuple[np.ndarray, np.ndarray]]]:
        """All of G, which phi's integrand reaches, and the indices of y x and
        x sigma(y) in blocks of window rows y (see ``_row_blocks``)."""
        g = self.window_elements()
        return g, (
            (self.op[ys[:, None], xs], self.op[xs, self.involution[ys][:, None]])
            for ys in _row_blocks(g, xs.shape[0])
        )

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

    def to_dict(self) -> dict:
        return {
            "kind": "finite",
            "elements": list(self.elements),
            "neutral": self.elements[self.neutral],
            "op": self.op.tolist(),
            "involution": self.involution.tolist(),
        }


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
        if dim < 1:
            raise FormatError("lattice dimension must be positive")
        if window_radius < 1:
            raise FormatError("window radius must be positive")
        if folner_max < window_radius:
            raise FormatError("folner_max must be >= window_radius")
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

    is_abelian = True

    @property
    def is_group(self) -> bool:
        return True

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
        if k < 1:
            raise FormatError(f"Folner radius must be an integer >= 1, got {k}")
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

    def reach(self, xs: np.ndarray, k_used: int) -> tuple[np.ndarray, Iterator[tuple[np.ndarray, np.ndarray]]]:
        """The box of radius k_used + max |coordinate| of W and sigma(W) that
        y x and x sigma(y) reach for x in the Folner box xs, and their flat
        positions in it in blocks of window rows y (see ``_row_blocks``): row
        y holds the positions of xs shifted by the offset of y, and of
        sigma(y)."""
        if np.abs(xs).max() > k_used:
            raise InvalidElementError(f"points outside the Folner box of radius {k_used}")
        w = self.window_points()
        sw = self.involute_many(w)
        r = k_used + int(max(np.abs(w).max(), np.abs(sw).max()))
        base = self._flat(xs, r)
        zero = self._flat(self.row(self.neutral), r)
        offsets = (_row_blocks(self._flat(a, r) - zero, base.shape[0]) for a in (w, sw))
        return self.box_points(r), ((base + o[:, None], base + so[:, None]) for o, so in zip(*offsets))

    def table_domain(self, arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
        """The box of radius R = max |coordinate| over the arrays, which holds
        every point, and each array's lexicographic flat positions in it.

        For the window terms this carrier holds, the radius, the box and the
        positions are computed once.
        """
        names = [self._term_name(a) for a in arrays]
        r = max(self._held(name, "radius", lambda a=a: int(np.abs(a).max())) for a, name in zip(arrays, names))
        # A box is kept only at a radius the held terms alone reach.
        box = self.box_points(r) if None in names else self._once(("box", r), lambda: self.box_points(r))
        positions = [self._held(name, ("flat", r), lambda a=a: self._flat(a, r)) for a, name in zip(arrays, names)]
        return box, positions

    def in_box(self, pts: np.ndarray, r: int) -> np.ndarray:
        """Boolean mask of the points with every |coordinate| <= r (computed
        once for a window term this carrier holds)."""
        return self._held(self._term_name(pts), ("in_box", r), lambda: (np.abs(pts) <= r).all(axis=1))

    def _held(self, name: Any, what: Any, build: Callable[[], Any]) -> Any:
        """build(), cached under (what, name) unless name is None."""
        return build() if name is None else self._once((what, name), build)

    @staticmethod
    def _flat(pts: np.ndarray, r: int) -> np.ndarray:
        """Positions of pts in the lexicographic order of the box of radius r."""
        pos = pts[:, 0] + r
        for j in range(1, pts.shape[1]):
            pos = pos * (2 * r + 1) + (pts[:, j] + r)
        return pos

    def mean_translate_ratio(self, k_used: int) -> float:
        """Boundary fraction of the Folner box under the farthest window translate."""
        return box_translate_ratio(self.dim, k_used, (self.window_radius,) * self.dim)

    def element_repr(self, x) -> list[int]:
        return list(self.check_element(x))

    def to_dict(self) -> dict:
        return {
            "kind": "lattice",
            "dim": self.dim,
            "window": self.window_radius,
            "folner_max": self.folner_max,
        }


def _row_blocks(rows: np.ndarray, width: int) -> Iterator[np.ndarray]:
    """Consecutive slices of rows for phi's integrand blocks: each slice holds
    as many rows as fit in ``scan._CHUNK`` elements at width elements a row,
    and at least one."""
    step = max(1, scan._CHUNK // width)
    return (rows[i : i + step] for i in range(0, rows.shape[0], step))


def box_translate_ratio(dim: int, k: int, shift: tuple[int, ...]) -> float:
    """|F delta (F + shift)| / |F| for the centered box F of radius k."""
    side = 2 * k + 1
    prod = 1.0
    for s in shift:
        prod *= max(0, side - abs(int(s))) / side
    return 2.0 * (1.0 - prod)


def validate_carrier(c: Carrier) -> ValidationReport:
    """Exhaustively check the carrier axioms.

    Finite carriers are scanned over all pairs and triples; the first
    violated axiom is reported with a witness. Lattice carriers satisfy the
    axioms structurally (addition is associative, negation is an involutive
    anti-homomorphism on an abelian group).
    """
    if isinstance(c, LatticeCarrier):
        return ValidationReport(ok=True, kind="lattice", size=None, is_group=True)

    n = c.size
    op = c.op
    inv = c.involution
    e = c.neutral

    # Neutral element first: op(e, x) = op(x, e) = x.
    row_ok = np.array_equal(op[e], np.arange(n))
    col_ok = np.array_equal(op[:, e], np.arange(n))
    if not (row_ok and col_ok):
        detail = f"declared neutral {c.elements[e]!r} is not a two-sided identity"
        others = [
            i
            for i in range(n)
            if np.array_equal(op[i], np.arange(n)) and np.array_equal(op[:, i], np.arange(n))
        ]
        if not others:
            detail += "; no element acts as a two-sided identity"
        bad_x = int(np.argmax(op[e] != np.arange(n))) if not row_ok else int(np.argmax(op[:, e] != np.arange(n)))
        v = AxiomViolation("neutral", (c.elements[e], c.elements[bad_x]), detail)
        return ValidationReport(False, "finite", n, None, [v])

    # Associativity over all n^3 triples: (xy)z = x(yz).
    left = op[op, :]            # left[x, y, z] = op(op(x, y), z)
    right = op[:, op]           # right[x, y, z] = op(x, op(y, z))
    mismatch = left != right
    if mismatch.any():
        x, y, z = (int(i) for i in np.argwhere(mismatch)[0])
        v = AxiomViolation(
            "associativity",
            (c.elements[x], c.elements[y], c.elements[z]),
            f"op(op({c.elements[x]},{c.elements[y]}),{c.elements[z]}) != "
            f"op({c.elements[x]},op({c.elements[y]},{c.elements[z]}))",
        )
        return ValidationReport(False, "finite", n, None, [v])

    # Involutive: sigma(sigma(x)) = x.
    twice = inv[inv]
    if not np.array_equal(twice, np.arange(n)):
        x = int(np.argmax(twice != np.arange(n)))
        v = AxiomViolation("involutive", (c.elements[x],), "sigma(sigma(x)) != x")
        return ValidationReport(False, "finite", n, None, [v])

    # Anti-homomorphism: sigma(xy) = sigma(y) sigma(x).
    lhs = inv[op]               # sigma(op(x, y))
    rhs = op[inv, :][:, inv].T  # rhs[x, y] = op(inv[y], inv[x])
    anti_bad = lhs != rhs
    if anti_bad.any():
        x, y = (int(i) for i in np.argwhere(anti_bad)[0])
        v = AxiomViolation(
            "anti_homomorphism",
            (c.elements[x], c.elements[y]),
            "sigma(xy) != sigma(y)sigma(x)",
        )
        return ValidationReport(False, "finite", n, None, [v])

    return ValidationReport(True, "finite", n, c.is_group)


# ----------------------------------------------------------------------------
# Bundled carriers


def _cyclic(n: int, name: str) -> FiniteCarrier:
    labels = [f"g{i}" if i else "e" for i in range(n)]
    op = [[(i + j) % n for j in range(n)] for i in range(n)]
    inv = [(-i) % n for i in range(n)]
    return FiniteCarrier(labels, op, inv, neutral=0, name=name)


def _perm_label(p: tuple[int, ...]) -> str:
    return "".join(str(i) for i in p)


def _s3() -> FiniteCarrier:
    # Permutations of {0,1,2} in lexicographic order; product (xy)(i) = x(y(i)),
    # i.e. y acts first. Involution is the group inverse.
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    op = [[0] * n for _ in range(n)]
    inv = [0] * n
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            op[i][j] = index[tuple(p[q[k]] for k in range(3))]
        inverse = tuple(sorted(range(3), key=lambda k: p[k]))
        inv[i] = index[inverse]
    labels = [_perm_label(p) for p in perms]
    return FiniteCarrier(labels, op, inv, neutral=index[(0, 1, 2)], name="S3")


def _q8() -> FiniteCarrier:
    # Quaternion units 1, -1, i, -i, j, -j, k, -k encoded as (axis, sign)
    # with axis 0 = scalar, 1 = i, 2 = j, 3 = k.
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def enc(axis: int, sign: int) -> int:
        return 2 * axis + (0 if sign > 0 else 1)

    def dec(idx: int) -> tuple[int, int]:
        return idx // 2, 1 if idx % 2 == 0 else -1

    def mul(a: int, b: int) -> int:
        ax_a, s_a = dec(a)
        ax_b, s_b = dec(b)
        sign = s_a * s_b
        if ax_a == 0:
            return enc(ax_b, sign)
        if ax_b == 0:
            return enc(ax_a, sign)
        if ax_a == ax_b:
            return enc(0, -sign)
        # i*j = k, j*k = i, k*i = j; reversed order flips the sign.
        cyc = {(1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1),
               (2, 1): (3, -1), (3, 2): (1, -1), (1, 3): (2, -1)}
        axis, flip = cyc[(ax_a, ax_b)]
        return enc(axis, sign * flip)

    n = 8
    op = [[mul(a, b) for b in range(n)] for a in range(n)]
    inv = [0] * n
    for a in range(n):
        for b in range(n):
            if op[a][b] == 0 and op[b][a] == 0:
                inv[a] = b
    return FiniteCarrier(labels, op, inv, neutral=0, name="Q8")


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
    if key == "z2":
        return _cyclic(2, "Z2")
    if key == "z6":
        return _cyclic(6, "Z6")
    if key == "s3":
        return _s3()
    if key == "q8":
        return _q8()
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
            elements = list(data["elements"])
            neutral_label = data["neutral"]
            op = data["op"]
            involution = data["involution"]
        except KeyError as exc:
            raise FormatError(f"finite carrier file missing field {exc}") from exc
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
        try:
            return LatticeCarrier(
                dim=int(data["dim"]),
                window_radius=int(data["window"]),
                folner_max=int(data["folner_max"]),
                name=name,
            )
        except KeyError as exc:
            raise FormatError(f"lattice carrier file missing field {exc}") from exc
    raise FormatError(f"unknown carrier kind {kind!r}")
