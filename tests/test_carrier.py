"""Carrier axioms, bundled structures, and the file interchange."""

from __future__ import annotations

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import jensen_stab
from jensen_stab import (
    BUNDLED_CARRIERS,
    FiniteCarrier,
    InvalidElementError,
    LatticeCarrier,
    LatticeOverflowError,
    bundled_carrier,
    carrier_from_dict,
    funcspace,
    validate_carrier,
)
from jensen_stab.errors import CapabilityError, FormatError

FINITE_NAMES = ["z2", "z6", "s3", "q8", "m3"]


@pytest.mark.parametrize("name", BUNDLED_CARRIERS)
def test_bundled_carriers_validate(name):
    report = validate_carrier(bundled_carrier(name))
    assert report.ok, report.to_dict()


def test_expected_group_flags():
    assert bundled_carrier("z2").is_group
    assert bundled_carrier("s3").is_group
    assert bundled_carrier("q8").is_group
    assert not bundled_carrier("m3").is_group
    assert bundled_carrier("m3").mean_capability == "none"
    assert bundled_carrier("s3").mean_capability == "exact_uniform"
    assert bundled_carrier("int1").mean_capability == "folner"
    # Sharing is read off the window: y x is the array x y exactly on the abelian carriers.
    terms = [bundled_carrier(n).window_terms() for n in BUNDLED_CARRIERS]
    assert [t.yx is t.xy for t in terms] == [True, True, False, False, True, True, True]


def test_compose_z2_from_table():
    z2 = bundled_carrier("z2")
    a = 1
    # read off the 2x2 Cayley table: a*a = e
    assert z2.compose(a, a) == z2.neutral
    assert z2.compose(z2.neutral, a) == a
    assert z2.compose(a, z2.neutral) == a


def test_compose_lattice_is_addition():
    z1 = bundled_carrier("int1")
    assert z1.compose(3, -5) == (-2,)
    z2d = bundled_carrier("int2")
    assert z2d.compose((1, 2), (-3, 5)) == (-2, 7)


def test_involute_examples():
    z1 = bundled_carrier("int1")
    assert z1.involute(7) == (-7,)
    for name in FINITE_NAMES:
        c = bundled_carrier(name)
        assert c.involute(c.neutral) == c.neutral


def test_s3_transpositions_self_inverse():
    s3 = bundled_carrier("s3")
    # independently recompute inverses from the permutation labels
    for i, lab in enumerate(s3.elements):
        perm = tuple(int(ch) for ch in lab)
        inverse = tuple(sorted(range(3), key=lambda k: perm[k]))
        j = s3.elements.index("".join(str(v) for v in inverse))
        assert s3.involute(i) == j
    # transpositions are their own inverses
    for lab in ("102", "210", "021"):
        i = s3.index_of(lab)
        assert s3.involute(i) == i


def test_s3_composition_convention():
    s3 = bundled_carrier("s3")
    # product (xy)(i) = x(y(i)): check every pair against tuple composition
    for i, p_lab in enumerate(s3.elements):
        p = tuple(int(ch) for ch in p_lab)
        for j, q_lab in enumerate(s3.elements):
            q = tuple(int(ch) for ch in q_lab)
            composed = tuple(p[q[k]] for k in range(3))
            assert s3.elements[s3.compose(i, j)] == "".join(str(v) for v in composed)


def test_q8_against_quaternion_relations():
    q8 = bundled_carrier("q8")
    idx = {lab: i for i, lab in enumerate(q8.elements)}
    mul = lambda a, b: q8.elements[q8.compose(idx[a], idx[b])]
    assert mul("i", "i") == "-1"
    assert mul("j", "j") == "-1"
    assert mul("k", "k") == "-1"
    assert mul("i", "j") == "k"
    assert mul("j", "i") == "-k"
    assert mul("j", "k") == "i"
    assert mul("k", "j") == "-i"
    assert mul("k", "i") == "j"
    assert mul("i", "k") == "-j"
    assert mul("-1", "-1") == "1"
    assert q8.involute(idx["i"]) == idx["-i"]


def test_dyadic_power_examples():
    z1 = bundled_carrier("int1")
    assert z1.dyadic_power(3, 4) == (48,)
    for name in FINITE_NAMES:
        c = bundled_carrier(name)
        assert c.dyadic_power(c.neutral, 5) == c.neutral
    z6 = bundled_carrier("z6")
    # verify by three explicit squarings in the table
    x = 1
    for _ in range(3):
        x = z6.compose(x, x)
    assert x == 2
    assert z6.dyadic_power(1, 3) == 2


@pytest.mark.parametrize("name", FINITE_NAMES)
def test_dyadic_power_recursion(name):
    c = bundled_carrier(name)
    for x in range(c.size):
        for n in range(4):
            a = c.dyadic_power(x, n)
            assert c.dyadic_power(x, n + 1) == c.compose(a, a)


@pytest.mark.parametrize("name", FINITE_NAMES)
def test_involution_is_involutive_and_antihom(name):
    c = bundled_carrier(name)
    for x in range(c.size):
        assert c.involute(c.involute(x)) == x
        # x sigma(x) is fixed by sigma
        prod = c.compose(x, c.involute(x))
        assert c.involute(prod) == prod
        for y in range(c.size):
            assert c.involute(c.compose(x, y)) == c.compose(c.involute(y), c.involute(x))


def test_group_translations_are_bijections():
    for name in ("z2", "z6", "s3", "q8"):
        c = bundled_carrier(name)
        full = set(range(c.size))
        for y in range(c.size):
            assert {c.compose(y, x) for x in range(c.size)} == full
            assert {c.compose(x, y) for x in range(c.size)} == full


def test_validate_rejects_corrupted_z6():
    z6 = bundled_carrier("z6")
    op = z6.op.copy()
    # flip one product entry away from the neutral row/column
    op[2, 3] = (op[2, 3] + 1) % 6
    bad = FiniteCarrier(z6.elements, op, z6.involution, z6.neutral, name="Z6corrupt")
    report = validate_carrier(bad)
    assert not report.ok
    v = report.violations[0]
    assert v.axiom == "associativity"
    # the reported witness must actually violate associativity
    labels = list(bad.elements)
    x, y, z = (labels.index(w) for w in v.witness)
    assert bad.compose(bad.compose(x, y), z) != bad.compose(x, bad.compose(y, z))


def test_validate_rejects_left_zero_semigroup():
    # xy = x admits no two-sided identity
    op = [[0, 0], [1, 1]]
    c = FiniteCarrier(["a", "b"], op, [0, 1], neutral=0, name="leftzero")
    report = validate_carrier(c)
    assert not report.ok
    assert report.violations[0].axiom == "neutral"
    assert "no element acts" in report.violations[0].detail


def test_validate_rejects_broken_involution():
    z6 = bundled_carrier("z6")
    inv = z6.involution.copy()
    inv[1] = 1  # no longer the group inverse: breaks the anti-homomorphism
    bad = FiniteCarrier(z6.elements, z6.op, inv, z6.neutral)
    report = validate_carrier(bad)
    assert not report.ok
    assert report.violations[0].axiom in ("involutive", "anti_homomorphism")


def test_validate_names_a_broken_anti_homomorphism():
    # sigma = id on S3 is involutive, but sigma(xy) = xy and sigma(y) sigma(x) = yx differ.
    s3 = bundled_carrier("s3")
    report = validate_carrier(FiniteCarrier(s3.elements, s3.op, list(range(6)), s3.neutral))
    assert not report.ok
    [v] = report.violations
    assert (v.axiom, v.witness) == ("anti_homomorphism", ("021", "102"))
    assert s3.compose(1, 2) != s3.compose(2, 1)


def test_folner_sets():
    z1 = bundled_carrier("int1")
    assert z1.folner_points(2).tolist() == [[-2], [-1], [0], [1], [2]]
    z2d = bundled_carrier("int2")
    pts = z2d.folner_points(1)
    assert pts.shape == (9, 2)
    assert set(map(tuple, pts.tolist())) == set(itertools.product((-1, 0, 1), repeat=2))


@pytest.mark.parametrize("k", [2, 8, 64])
def test_folner_boundary_ratio(k):
    z1 = bundled_carrier("int1")
    box = {tuple(p) for p in z1.folner_points(k).tolist()}
    shifted = {(x + 1,) for (x,) in box}
    ratio = len(box.symmetric_difference(shifted)) / len(box)
    assert ratio == 2 / (2 * k + 1)


def test_folner_capability_and_bounds():
    z1 = bundled_carrier("int1")
    with pytest.raises(CapabilityError):
        z1.folner_points(z1.folner_max + 1)
    with pytest.raises(ValueError):
        z1.folner_points(0)


def test_window_pair_counts():
    assert bundled_carrier("z2").window_pair_arrays()[0].shape == (4,)
    lat = LatticeCarrier(dim=1, window_radius=2, folner_max=4)
    assert lat.window_pair_arrays()[1].shape == (25, 1)
    lat2 = LatticeCarrier(dim=2, window_radius=1, folner_max=4)
    X, Y = lat2.window_pair_arrays()
    assert X.shape == Y.shape == (81, 2)


def test_window_pair_order_is_row_major():
    X, Y = bundled_carrier("z2").window_pair_arrays()
    assert X.tolist() == [0, 0, 1, 1]
    assert Y.tolist() == [0, 1, 0, 1]
    X, Y = LatticeCarrier(dim=1, window_radius=1, folner_max=1).window_pair_arrays()
    assert X.ravel().tolist() == [-1, -1, -1, 0, 0, 0, 1, 1, 1]
    assert Y.ravel().tolist() == [-1, 0, 1, -1, 0, 1, -1, 0, 1]


def test_lattice_overflow_detection():
    z1 = bundled_carrier("int1")
    with pytest.raises(LatticeOverflowError):
        z1.dyadic_power(3, 64)
    big = np.array([[2**62]], dtype=np.int64)
    with pytest.raises(LatticeOverflowError):
        z1.square_many(big)


def test_invalid_elements_rejected():
    z6 = bundled_carrier("z6")
    with pytest.raises(InvalidElementError):
        z6.compose(0, 6)
    with pytest.raises(InvalidElementError):
        z6.involute("nope")
    z1 = bundled_carrier("int1")
    with pytest.raises(InvalidElementError):
        z1.compose((1, 2), 0)
    for x in (True, 1.0):
        with pytest.raises(InvalidElementError, match=f"{x!r} is not an element index of Z6"):
            z6.check_element(x)
    with pytest.raises(InvalidElementError, match="label 'x' not in carrier Z6"):
        z6.index_of("x")
    with pytest.raises(InvalidElementError, match=r"5 is not a point of Z\^2"):
        bundled_carrier("int2").check_element(5)
    with pytest.raises(LatticeOverflowError, match=f"coordinate {2**63} exceeds the fixed-width integer range"):
        z1.check_element((2**63,))
    with pytest.raises(InvalidElementError, match="points outside the Folner box of radius 8"):
        z1.reach(np.array([[9]]), 8)


def test_carrier_roundtrip_through_dict():
    for name in FINITE_NAMES:
        c = bundled_carrier(name)
        c2 = carrier_from_dict(c.to_dict(), name=c.name)
        assert np.array_equal(c.op, c2.op)
        assert np.array_equal(c.involution, c2.involution)
        assert c.neutral == c2.neutral
        assert c.elements == c2.elements
    z1 = bundled_carrier("int1")
    z1b = carrier_from_dict(z1.to_dict())
    assert (z1b.dim, z1b.window_radius, z1b.folner_max) == (1, 64, 512)


def test_malformed_carrier_dicts_rejected():
    with pytest.raises(FormatError):
        carrier_from_dict({"kind": "finite", "elements": ["e"], "neutral": "x", "op": [[0]], "involution": [0]})
    with pytest.raises(FormatError):
        carrier_from_dict({"kind": "lattice", "dim": 1, "window": 8, "folner_max": 4})
    with pytest.raises(FormatError):
        carrier_from_dict({"kind": "weird"})
    with pytest.raises(FormatError):
        FiniteCarrier(["e", "a"], [[0, 1], [1, 2]], [0, 1], 0)
    # Each of these once escaped as a TypeError or ValueError, or was truncated silently.
    lattice = {"kind": "lattice", "dim": 1, "window": 8, "folner_max": 16}
    for key in ("dim", "window", "folner_max"):
        for bad in (None, "x", "16", 1.7, True, [1]):
            with pytest.raises(FormatError):
                carrier_from_dict({**lattice, key: bad})
        with pytest.raises(FormatError, match="missing field"):
            carrier_from_dict({k: v for k, v in lattice.items() if k != key})
    assert carrier_from_dict({**lattice, "dim": 1.0}).dim == 1
    z2 = bundled_carrier("z2").to_dict()
    for key, bad in (
        ("op", [[0, 1], [1]]),
        ("op", [[0, 1], [1, 0.5]]),
        ("op", [[0, 1], [1, True]]),
        ("op", [[0, 1], [1, None]]),
        ("op", [[0, 1], [1, "0"]]),
        ("op", [[0, 1], [1, float("nan")]]),
        ("op", [[0, 1], [1, float("inf")]]),
        ("involution", [0, 1.5]),
        ("elements", "ea"),
        ("elements", None),
    ):
        with pytest.raises(FormatError):
            carrier_from_dict({**z2, key: bad})
    again = carrier_from_dict({**z2, "op": [[0.0, 1.0], [1.0, 0.0]]})
    assert again.op.dtype == np.int64 and again.op.tolist() == [[0, 1], [1, 0]]


class _RuntimeNames(ast.NodeVisitor):
    """The names a module reads when it runs: imported names, names and
    attributes, leaving out annotations and imports for type checkers only."""

    def __init__(self) -> None:
        self.names: set[str] = set()

    def visit_If(self, node: ast.If) -> None:
        if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
            self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for child in (*node.decorator_list, node.args, *node.body):
            self.visit(child)

    def visit_arg(self, node: ast.arg) -> None:
        pass

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        for child in (node.target, node.value):
            if child is not None:
                self.visit(child)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.names |= {a.name for a in node.names}

    visit_Import = visit_ImportFrom

    def visit_Name(self, node: ast.Name) -> None:
        self.names.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.names.add(node.attr)
        self.generic_visit(node)


def test_modules_never_ask_which_kind_of_carrier_they_hold():
    # Every kind decision lives on the carrier and every function answers for
    # itself, so a new carrier or function class edits no other module.
    src = Path(jensen_stab.__file__).parent
    carrier_classes = {"FiniteCarrier", "LatticeCarrier"}
    function_classes = {"FiniteTableFn", "LatticeTableFn", "OracleFn"}
    # Every function class of funcspace, and the union of the two tables.
    bounded = {name for name, v in vars(funcspace).items() if isinstance(v, type) and issubclass(v, funcspace.BoundedFn)}
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    for module, tree in trees.items():
        visitor = _RuntimeNames()
        visitor.visit(tree)
        if module not in ("carrier", "__init__"):
            assert not visitor.names & carrier_classes, module
        if module in ("harness", "stabilize", "defect", "verify", "cli"):
            assert not visitor.names & (function_classes | {"EXACT_UNIFORM", "FOLNER"}), module
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named = {getattr(n, "id", None) for n in ast.walk(node.args[1])}
                assert not named & (carrier_classes | {"Carrier"} | bounded | {"TableFn"}), (module, node.lineno)
    assert not [n for n in ast.walk(trees["cli"]) if isinstance(n, ast.Constant) and n.value == "none"]


def test_scalar_operations_are_defined_once():
    # Scalar calls run the bulk kernels on one row, so no class keeps a second copy.
    src = Path(jensen_stab.__file__).parent
    owners: dict[str, set[str]] = {}
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    names = {item.name} if isinstance(item, ast.FunctionDef) else set()
                    if isinstance(item, ast.Assign):
                        names = {t.id for t in item.targets if isinstance(t, ast.Name)}
                    for name in names:
                        owners.setdefault(name, set()).add(node.name)
    assert owners["eval"] == {"BoundedFn"}
    for op in ("compose", "involute", "dyadic_power"):
        assert owners[op] == {"Carrier"}, op


_TWO = [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: FiniteCarrier([], [], [], 0), "carrier needs at least one element"),
        (lambda: FiniteCarrier(["e", "e"], _TWO, [0, 1], 0), "element labels must be distinct"),
        (lambda: FiniteCarrier(["e", "a"], _TWO, [0, 1], 2), "neutral index out of range"),
        (lambda: FiniteCarrier(["e", "a"], [[0, 1], [1, 0.5]], [0, 1], 0), "op table entries must be integers"),
        (lambda: FiniteCarrier(["e", "a"], _TWO, [0, 2], 0), "involution table entry out of range"),
        (lambda: LatticeCarrier(1, 8, 4), "folner_max must be >= window_radius"),
        # Lattices numpy cannot build: more than 64 axes, and arrays past its byte limit.
        (lambda: LatticeCarrier(70, 1, 1), r"the pair window of Z\^70 .* is too large for numpy"),
        (
            lambda: carrier_from_dict({"kind": "lattice", "dim": 1, "window": 1, "folner_max": 1e18}),
            r"the reach box of Z\^1 .* is too large for numpy",
        ),
        (lambda: LatticeCarrier(10**11, 1, 1), r"the pair window of Z\^100000000000 .* is too large for numpy"),
        (
            lambda: carrier_from_dict({"kind": "finite", "elements": "ea", "neutral": "e", "op": _TWO, "involution": [0, 1]}),
            "elements must be a list of labels",
        ),
        (
            lambda: carrier_from_dict({"kind": "finite", "elements": ["e", "a"], "neutral": "b", "op": _TWO, "involution": [0, 1]}),
            "neutral label 'b' not among elements",
        ),
        (lambda: carrier_from_dict({"kind": "torus"}), "unknown carrier kind 'torus'"),
        (
            lambda: carrier_from_dict({"kind": "finite", "elements": ["e"], "neutral": "e", "op": [[0]]}),
            "finite carrier file missing field 'involution'",
        ),
        (lambda: bundled_carrier("z7"), "unknown bundled carrier 'z7'"),
        (lambda: bundled_carrier("z2").exact_solution(1.0, [0.0, 2.0]), "finite carriers admit only constant base solutions"),
        (lambda: bundled_carrier("s3").oracle([1.0], 0.0, None), "oracle functions require a lattice carrier"),
    ],
)
def test_malformed_carrier_input_is_a_format_error(build, match):
    with pytest.raises(FormatError, match=match):
        build()


@pytest.mark.parametrize("name", ["z6", "int1"])
@pytest.mark.parametrize("n", [-1, 1.5, True, "2"])
def test_dyadic_power_exponent_must_be_a_nonnegative_integer(name, n):
    with pytest.raises(FormatError, match="dyadic power exponent must be an integer >= 0"):
        bundled_carrier(name).dyadic_power(1, n)
