"""The window geometry each carrier builds once: its terms, their shared
table box and positions, and dyadic orbit levels."""

from __future__ import annotations

import copy
import json
import pickle

import numpy as np
import pytest

from jensen_stab import (
    FiniteTableFn,
    LatticeCarrier,
    LatticeOverflowError,
    LatticeTableFn,
    OracleFn,
    SeededUniformNoise,
    bundled_carrier,
    drygas_defect,
    inequality_suite,
    jensen_defect,
    perturb,
    phi_mean_construction,
)
from jensen_stab.carrier import WindowTerms
from jensen_stab.funcspace import BoundedFn
from jensen_stab.stabilize import _dyadic_iterate, _fs_iterate

CARRIERS = ["z2", "s3", "int1", "int2"]


@pytest.mark.parametrize("name", CARRIERS)
def test_window_terms_are_built_once_and_read_only(name):
    c = bundled_carrier(name)
    t = c.window_terms()
    assert c.window_terms() is t
    assert c.window_points() is t.w
    x, y = c.window_pair_arrays()
    assert x is t.x and y is t.y
    x, y, w = x.copy(), y.copy(), t.w.copy()
    sx, sy = c.involute_many(x), c.involute_many(y)
    want = {
        "sy": sy,
        "xy": c.compose_many(x, y),
        "x_sy": c.compose_many(x, sy),
        "yx": c.compose_many(y, x),
        "sy_x": c.compose_many(sy, x),
        "y_sx": c.compose_many(y, sx),
        "sx_sy": c.compose_many(sx, sy),
        "sq": c.square_many(w),
        "w_sw": c.compose_many(w, c.involute_many(w)),
    }
    assert set(want) | {"w", "x", "y"} == set(t._fields)
    for key, value in want.items():
        assert np.array_equal(getattr(t, key), value), key
    # Equal terms share one array, and so their positions, on abelian carriers only.
    assert (t.yx is t.xy) == (t.sy_x is t.x_sy) == (name in ("z2", "int1", "int2"))
    for a in t:
        with pytest.raises(ValueError):
            a[0] = a[0]
    domain, positions = c.table_domain([t.xy, t.x])
    domain2, positions2 = c.table_domain([t.xy, t.x])
    for a, b in zip([domain, *positions], [domain2, *positions2]):
        assert a is b
        with pytest.raises(ValueError):
            a[0] = a[0]



@pytest.mark.parametrize("name", CARRIERS)
def test_carrier_with_built_geometry_copies_and_pickles(name):
    c = bundled_carrier(name)
    c.table_domain([c.window_terms().xy])
    for twin in (copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert np.array_equal(twin.window_terms().sq, c.window_terms().sq)

def _functions(c, seed):
    """f, a window table g on c, and the (phi, diagnostics) pair where c has a mean."""
    rng = np.random.default_rng(seed)
    if c.size:
        f = FiniteTableFn(c, rng.normal(size=c.size) + 1j * rng.normal(size=c.size))
        return f, [f], phi_mean_construction(f)
    f = OracleFn(c, [0.5 + 0.25j] * c.dim, 1.0, SeededUniformNoise(0.1, seed))
    m = c.window_points().shape[0]
    g = LatticeTableFn(c, rng.normal(size=m) + 0j)
    return f, [f, g], phi_mean_construction(f)


def _reports(c, seed):
    f, scanned, phi = _functions(c, seed)
    out = [jensen_defect(fn).to_dict() for fn in scanned]
    out += [drygas_defect(fn).to_dict() for fn in [*scanned, phi[0]]]
    out += [r.to_dict() for r in inequality_suite(f, phi=phi)]
    return json.dumps(out)


@pytest.mark.parametrize("name", CARRIERS)
def test_scans_over_cached_geometry_equal_scans_over_fresh_copies(name, monkeypatch):
    cached = bundled_carrier(name)
    first, second = _reports(cached, 3), _reports(cached, 3)
    fresh = bundled_carrier(name)
    terms = fresh.window_terms()
    monkeypatch.setattr(fresh, "window_terms", lambda: WindowTerms(*(a.copy() for a in terms)))
    assert _reports(fresh, 3) == first == second


def test_arrays_the_carrier_does_not_hold_get_no_cached_results():
    c = bundled_carrier("int2")
    t = c.window_terms()
    _reports(c, 5)
    keys = set(c._built)
    assert all("in_box" not in repr(key) for key in keys)
    box3, box9 = (LatticeTableFn(LatticeCarrier(2, r, r), np.zeros((2 * r + 1) ** 2, dtype=complex)) for r in (3, 9))
    for a in (t.xy.copy(), t.x[::-1], t.x[:7], np.ascontiguousarray(t.yx[::2])):
        _, [pos] = c.table_domain([a])
        r = int(np.abs(a).max())
        want = (a[:, 0] + r) * (2 * r + 1) + a[:, 1] + r
        assert np.array_equal(pos, want)
        assert np.array_equal(box3.readable(a), (np.abs(a) <= 3).all(axis=1))
    # A freed array's id is often reused by the next array of its size, and
    # read-only arrays look like the carrier's own.
    for shift in range(1, 6):
        a = t.xy + shift
        a.flags.writeable = False
        _, [pos] = c.table_domain([a])
        r = int(np.abs(a).max())
        assert np.array_equal(pos, (a[:, 0] + r) * (2 * r + 1) + a[:, 1] + r)
        assert np.array_equal(box9.readable(a), (np.abs(a) <= 9).all(axis=1))
        assert np.array_equal(c.compose_many(a, t.y), a + t.y)
        assert np.array_equal(c.involute_many(a), -a)
        assert np.array_equal(c.square_many(a), 2 * a)
        del a
    assert set(c._built) == keys


def test_reconstruction_on_a_primed_carrier_equals_a_fresh_one():
    # The pair stacks start as empty views pts[:0] that are freed and replaced
    # level by level, so any result keyed by id() would go stale here.
    primed, fresh = bundled_carrier("int2"), bundled_carrier("int2")
    _reports(primed, 7)
    runs = []
    for c in (primed, fresh):
        f = OracleFn(c, [1.0, -2.0], 1.0, SeededUniformNoise(0.1, 11))
        vals, diffs, n, _ = _fs_iterate(f, c.window_points(), 40, 1e-10)
        runs.append((vals.tobytes(), diffs, n))
    assert runs[0] == runs[1]


def _power_rows(c, pts, k):
    """pts^(2^k) by k squarings on c."""
    for _ in range(k):
        pts = c.square_many(pts)
    return pts


def _pair_rows(c, pts, k):
    """The 2k pair rows of level k: row 2j is (x^(2^j) sigma(x)^(2^j))^(2^(k-1-j)), row 2j + 1 its mirror."""
    rows = [pts[:0]]
    for j in range(k):
        xj = _power_rows(c, pts, j)
        sj = c.involute_many(xj)
        rows += [_power_rows(c, c.compose_many(a, b), k - 1 - j) for a, b in ((xj, sj), (sj, xj))]
    return np.concatenate(rows)


@pytest.mark.parametrize("name", ["z2", "s3", "q8", "m3", "int1", "int2"])
def test_held_orbit_levels_are_the_repeated_squares_and_read_only(name):
    c, fresh = bundled_carrier(name), bundled_carrier(name)
    w = c.window_terms().w
    power, pairs = c.dyadic_levels(w), c.pair_levels(w)
    for k in range(13):
        assert np.array_equal(power(k), _power_rows(fresh, fresh.window_points(), k)), k
        assert np.array_equal(pairs(k), _pair_rows(fresh, fresh.window_points(), k)), k
    # A second reader gets the held arrays themselves.
    again, again_pairs = c.dyadic_levels(w), c.pair_levels(w)
    for k in range(1, 13):
        for held, a in ((power(k), again(k)), (pairs(k), again_pairs(k))):
            assert held is a
            with pytest.raises(ValueError):
                a[0] = a[0]
    # Any other array gets its levels afresh, and the carrier keeps nothing for them.
    keys = set(c._built)
    other = w.copy()
    assert np.array_equal(c.pair_levels(other)(5), pairs(5))
    assert c.dyadic_levels(other)(5) is not power(5)
    assert set(c._built) == keys


def _iterations(c, seed):
    if c.size:
        f = perturb(c.exact_solution(1 - 2j), "seeded_uniform", 0.3, seed=seed)
    else:
        f = OracleFn(c, [0.5 - 1j, 2.0][: c.dim], 1.0, SeededUniformNoise(0.2, seed))
    out = []
    for run in (_dyadic_iterate, _fs_iterate):
        vals, diffs, n, levels = run(f, c.window_points(), 40, 1e-10)
        out.append((vals.tobytes(), diffs, n, [a.tobytes() for a in levels]))
    return out


@pytest.mark.parametrize("name", ["z2", "q8", "m3", "int1", "int2"])
def test_iterations_on_a_primed_carrier_equal_those_on_a_fresh_one(name):
    primed = bundled_carrier(name)
    primed.window_terms()
    first, second = _iterations(primed, 4), _iterations(primed, 4)
    assert first == second == _iterations(bundled_carrier(name), 4)


class _Root(BoundedFn):
    """2 x + sign(x) sqrt(|x|) on Z^1: no two levels are equal, so conv_tol = 0 runs to the guard."""

    def __init__(self, carrier):
        self.carrier = carrier
        self.calls = 0

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        self.calls += 1
        x = pts[:, 0].astype(np.float64)
        return (2.0 * x + np.sign(x) * np.sqrt(np.abs(x))).astype(np.complex128)


def test_a_held_level_that_meets_the_overflow_guard_raises_each_time_and_is_not_kept():
    # The window reaches 64 = 2^6: level 56 is 2^62, and squaring it trips the
    # 2^61 guard. Each loop evaluates f(e) once and levels 0 to 56 one by one.
    c = bundled_carrier("int1")
    w = c.window_terms().w
    for _ in range(2):
        for run, calls in ((_dyadic_iterate, 1 + 57), (_fs_iterate, 1 + 57)):
            f = _Root(c)
            with pytest.raises(LatticeOverflowError):
                run(f, w, 80, 0.0)
            assert f.calls == calls
    assert int(np.abs(c.dyadic_levels(w)(56)).max()) == 2**62
    # Levels 0 to 56 are held; the one that raised is not. On Z with
    # sigma = -id every pair row is e, so none is built or held.
    assert len(c._built["powers", "w"]) == 57
    assert ("pair_rows", "w") not in c._built
