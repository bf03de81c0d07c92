"""Carrier axioms, bundled structures, and the file interchange."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from jensen_stab import (
    BUNDLED_CARRIERS,
    FiniteCarrier,
    InvalidElementError,
    LatticeCarrier,
    LatticeOverflowError,
    bundled_carrier,
    carrier_from_dict,
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
