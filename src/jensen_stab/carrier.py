"""Carriers: semigroups with neutral element and involution.

Two realizations are supported:

* ``FiniteCarrier`` -- a finite monoid or group given by a Cayley table and
  an involution table, with exhaustively checkable axioms.
* ``LatticeCarrier`` -- the lattice group Z^d under addition with the
  negation involution, evaluated on a finite window and averaged over
  Folner boxes.

Elements are plain handles: an ``int`` index for finite carriers, a tuple
of ``int`` coordinates for lattices (bare ints are accepted when d = 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CapabilityError, FormatError, InvalidElementError, LatticeOverflowError

# Fixed-width bounds for lattice coordinates. Python ints never wrap, so
# these are enforced explicitly wherever coordinates can grow.
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

EXACT_UNIFORM = "exact_uniform"
FOLNER = "folner"
NO_MEAN = "none"


@dataclass(frozen=True)
class AxiomViolation:
    """First failing axiom of a carrier, with a concrete witness."""

    axiom: str
    witness: tuple
    detail: str

    def to_dict(self) -> dict:
        return {"axiom": self.axiom, "witness": list(self.witness), "detail": self.detail}


@dataclass
class ValidationReport:
    """Outcome of ``validate_carrier``: pass/fail plus witnesses."""

    ok: bool
    kind: str
    size: int | None
    is_group: bool | None
    violations: list[AxiomViolation] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "kind": self.kind,
            "size": self.size,
            "is_group": self.is_group,
            "violations": [v.to_dict() for v in self.violations],
        }


class FiniteCarrier:
    """Finite monoid/group from a Cayley table with an involution table.

    Indices are the canonical element identity; labels exist for files and
    reports. The structure is immutable after construction and all
    operations are pure.
    """

    kind = "finite"

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
        self.neutral = int(neutral)
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

    def compose(self, x, y) -> int:
        return int(self.op[self.check_element(x), self.check_element(y)])

    def involute(self, x) -> int:
        return int(self.involution[self.check_element(x)])

    def dyadic_power(self, x, n: int) -> int:
        """x^(2^n) by n repeated squarings; n = 0 returns x itself."""
        if n < 0:
            raise ValueError("dyadic power exponent must be nonnegative")
        xi = self.check_element(x)
        for _ in range(n):
            xi = int(self.op[xi, xi])
        return xi

    # Bulk counterparts used by the scan machinery.

    def compose_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return self.op[xs, ys]

    def involute_many(self, xs: np.ndarray) -> np.ndarray:
        return self.involution[xs]

    def square_many(self, xs: np.ndarray) -> np.ndarray:
        return self.op[xs, xs]

    def window_elements(self) -> np.ndarray:
        return np.arange(self.size, dtype=np.int64)

    def window_pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All |G|^2 ordered pairs as (X, Y), row-major in index order."""
        n = self.size
        idx = np.arange(n, dtype=np.int64)
        x = np.repeat(idx, n)
        y = np.tile(idx, n)
        return x, y

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


class LatticeCarrier:
    """The group Z^d under addition, sigma = negation, with a scan window.

    ``window_radius`` bounds the evaluation window [-N, N]^d used by every
    supremum scan; ``folner_max`` bounds the Folner box radius available to
    the averaging machinery.
    """

    kind = "lattice"

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

    @property
    def size(self) -> None:
        return None

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
            if not INT64_MIN <= c <= INT64_MAX:
                raise LatticeOverflowError(f"coordinate {c} exceeds the fixed-width integer range")
        return pt

    def compose(self, x, y) -> tuple[int, ...]:
        xp = self.check_element(x)
        yp = self.check_element(y)
        out = tuple(a + b for a, b in zip(xp, yp))
        for c in out:
            if not INT64_MIN <= c <= INT64_MAX:
                raise LatticeOverflowError(f"coordinate overflow in composition: {c}")
        return out

    def involute(self, x) -> tuple[int, ...]:
        return tuple(-c for c in self.check_element(x))

    def dyadic_power(self, x, n: int) -> tuple[int, ...]:
        """x^(2^n) = 2^n * x, by repeated doubling with overflow checks."""
        if n < 0:
            raise ValueError("dyadic power exponent must be nonnegative")
        pt = self.check_element(x)
        for _ in range(n):
            pt = tuple(2 * c for c in pt)
            for c in pt:
                if not INT64_MIN <= c <= INT64_MAX:
                    raise LatticeOverflowError(
                        f"dyadic power overflowed the integer range at {c}; reduce n_max"
                    )
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
        return self._box_points(self.window_radius)

    def window_elements(self) -> list[tuple[int, ...]]:
        return [tuple(int(c) for c in row) for row in self.window_points()]

    def _box_points(self, k: int) -> np.ndarray:
        rng = np.arange(-k, k + 1, dtype=np.int64)
        grids = np.meshgrid(*([rng] * self.dim), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def window_pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        pts = self.window_points()
        m = pts.shape[0]
        x = np.repeat(pts, m, axis=0)
        y = np.tile(pts, (m, 1))
        return x, y

    def folner_points(self, k: int) -> np.ndarray:
        """The centered box [-k, k]^d, (2k+1)^d points in lexicographic order."""
        if k < 1:
            raise ValueError("Folner radius must be positive")
        if k > self.folner_max:
            raise CapabilityError(f"Folner radius {k} exceeds folner_max {self.folner_max}")
        return self._box_points(k)

    def element_repr(self, x) -> list[int]:
        return list(self.check_element(x))

    def to_dict(self) -> dict:
        return {
            "kind": "lattice",
            "dim": self.dim,
            "window": self.window_radius,
            "folner_max": self.folner_max,
        }


Carrier = FiniteCarrier | LatticeCarrier


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
