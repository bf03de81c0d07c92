"""The window geometry each carrier builds once: its terms, table positions and box masks."""

from __future__ import annotations

import copy
import json
import pickle

import numpy as np
import pytest

from jensen_stab import (
    FiniteTableFn,
    LatticeTableFn,
    OracleFn,
    SeededUniformNoise,
    bundled_carrier,
    drygas_defect,
    inequality_suite,
    jensen_defect,
    phi_mean_construction,
)
from jensen_stab.carrier import WindowTerms
from jensen_stab.stabilize import _fs_iterate

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
    """f, a window table g and a wider table on c, and phi where c has a mean."""
    rng = np.random.default_rng(seed)
    if c.size:
        f = FiniteTableFn(c, rng.normal(size=c.size) + 1j * rng.normal(size=c.size))
        return f, [f], phi_mean_construction(f)[0]
    f = OracleFn(c, [0.5 + 0.25j] * c.dim, 1.0, SeededUniformNoise(0.1, seed))
    m = c.window_points().shape[0]
    g = LatticeTableFn(c, rng.normal(size=m) + 0j)
    wide_r = 2 * c.window_radius - 1
    wide = LatticeTableFn(c, rng.normal(size=(2 * wide_r + 1) ** c.dim) + 0j, radius=wide_r)
    return f, [f, g, wide], phi_mean_construction(f)[0]


def _reports(c, seed):
    f, scanned, phi = _functions(c, seed)
    out = [jensen_defect(fn).to_dict() for fn in scanned]
    out += [drygas_defect(fn).to_dict() for fn in [*scanned, phi]]
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
    built = c._built
    for a in (t.xy.copy(), t.x[::-1], t.x[:7], np.ascontiguousarray(t.yx[::2])):
        _, [pos] = c.table_domain([a])
        r = int(np.abs(a).max())
        want = (a[:, 0] + r) * (2 * r + 1) + a[:, 1] + r
        assert np.array_equal(pos, want)
        assert np.array_equal(c.in_box(a, 3), (np.abs(a) <= 3).all(axis=1))
    # A freed array's id is often reused by the next array of its size, and
    # read-only arrays look like the carrier's own.
    for shift in range(1, 6):
        a = t.xy + shift
        a.flags.writeable = False
        _, [pos] = c.table_domain([a])
        r = int(np.abs(a).max())
        assert np.array_equal(pos, (a[:, 0] + r) * (2 * r + 1) + a[:, 1] + r)
        assert np.array_equal(c.in_box(a, 9), (np.abs(a) <= 9).all(axis=1))
        assert np.array_equal(c.compose_many(a, t.y), a + t.y)
        assert np.array_equal(c.involute_many(a), -a)
        assert np.array_equal(c.square_many(a), 2 * a)
        del a
    assert c._built is built


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
