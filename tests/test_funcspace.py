"""Function representations, even/odd decomposition, translates, files."""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jensen_stab
from jensen_stab import (
    FiniteTableFn,
    InvalidElementError,
    LatticeTableFn,
    OracleFn,
    ParityNoise,
    SeededUniformNoise,
    bundled_carrier,
    function_from_dict,
)
from jensen_stab.errors import FormatError
from jensen_stab.funcspace import (
    _ROUND_MIN,
    NOISE_TYPES,
    EvenPart,
    LeftTranslate,
    OddPart,
    RightTranslate,
    noise_from_dict,
)


def test_evaluate_examples():
    s3 = bundled_carrier("s3")
    const = FiniteTableFn(s3, [5.0] * 6)
    assert const.eval(2) == 5.0

    z1 = bundled_carrier("int1")
    affine = OracleFn(z1, [2.0], 5.0)
    assert affine.eval(3) == 11.0

    noisy = OracleFn(z1, [2.0], 5.0, ParityNoise(0.1))
    assert noisy.eval(4) == 2.0 * 4 + 5.0 + 0.1
    assert noisy.eval(3) == 2.0 * 3 + 5.0 - 0.1


def test_oracle_evaluable_outside_window():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.1, 3))
    far = 2**40 * 3
    assert abs(f.eval(far) - (2.0 * far + 5.0)) <= 0.1


def test_even_odd_linear_and_constant():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [1.0], 0.0)
    pts = z1.window_points()
    assert np.abs(EvenPart(f).eval_many(pts)).max() == 0.0
    assert np.array_equal(OddPart(f).eval_many(pts), f.eval_many(pts))

    g = OracleFn(z1, None, 7.25)
    assert np.abs(EvenPart(g).eval_many(pts) - 7.25).max() == 0.0
    assert np.abs(OddPart(g).eval_many(pts)).max() == 0.0


def test_even_odd_quadratic_table():
    lat = bundled_carrier("int1")
    pts = lat.window_points()
    vals = np.array([x * x + x for (x,) in pts], dtype=np.complex128)
    f = LatticeTableFn(lat, vals)
    fe = EvenPart(f).eval_many(pts)
    fo = OddPart(f).eval_many(pts)
    for i, (x,) in enumerate(pts):
        assert fe[i] == x * x
        assert fo[i] == x


INT1_PROBES = [(-64,), (-3,), (0,), (7,), (64,)]


@pytest.mark.parametrize(
    "name, noise, probes",
    [
        pytest.param("int1", None, INT1_PROBES, id="None"),
        pytest.param("int1", ParityNoise(0.3), INT1_PROBES, id="noise1"),
        pytest.param("int1", SeededUniformNoise(0.25, 11), INT1_PROBES, id="noise2"),
        # off the window, where a0 x0 + a1 x1 rounds differently in another order
        pytest.param("int2", None, [(2**20 + 1, -3), (-100, 37), (9, -4000), (123457, 65)], id="int2"),
    ],
)
def test_decomposition_is_bit_exact(name, noise, probes):
    c = bundled_carrier(name)
    f = OracleFn(c, [2.0 + 1.0j, -0.7 + 0.3j][: c.dim], 5.0 - 3.0j, noise)
    pts = c.window_points()
    vals = f.eval_many(pts)
    fe = EvenPart(f).eval_many(pts)
    fo = OddPart(f).eval_many(pts)
    # left-to-right: (f - f_even) - f_odd vanishes bit-exactly
    assert np.all((vals - fe) - fo == 0)
    # scalar path agrees with the vector path bit for bit
    at = np.array(probes, dtype=np.int64)
    for x, v, e, o in zip(probes, f.eval_many(at), EvenPart(f).eval_many(at), OddPart(f).eval_many(at)):
        assert f.eval(x) == v
        assert EvenPart(f).eval(x) == e
        assert OddPart(f).eval(x) == o


def test_even_odd_symmetry():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.5, 4))
    pts = z1.window_points()
    neg = -pts
    fe = EvenPart(f)
    fo = OddPart(f)
    # evenness is exact: same two values, commuted addition
    assert np.all(fe.eval_many(pts) == fe.eval_many(neg))
    # oddness holds to rounding (odd part is the subtractive complement)
    assert np.abs(fo.eval_many(pts) + fo.eval_many(neg)).max() < 1e-13


def test_translates_on_lattice():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [3.0], 1.0, SeededUniformNoise(0.2, 5))
    pts = z1.window_points()
    lt = LeftTranslate(3, f)
    rt = RightTranslate(f, 3)
    assert np.array_equal(lt.eval_many(pts), f.eval_many(pts + 3))
    assert np.array_equal(rt.eval_many(pts), f.eval_many(pts + 3))
    ident = LeftTranslate(z1.neutral, f)
    assert np.array_equal(ident.eval_many(pts), f.eval_many(pts))


def test_translates_on_s3_worked_example():
    s3 = bundled_carrier("s3")
    f = FiniteTableFn(s3, np.arange(6, dtype=float) + 1)
    y = s3.index_of("102")  # the transposition swapping 0 and 1
    x = s3.index_of("210")  # the transposition swapping 0 and 2
    # tuple composition, y acting first: p[q[i]]
    p = (1, 0, 2)
    q = (2, 1, 0)
    composed = "".join(str(p[q[i]]) for i in range(3))
    assert composed == "201"
    assert LeftTranslate(y, f).eval(x) == f.eval(s3.index_of("201"))
    # right translate composes the other way round
    composed_r = "".join(str(q[p[i]]) for i in range(3))
    assert RightTranslate(f, y).eval(x) == f.eval(s3.index_of(composed_r))


def test_oracle_determinism_across_processes():
    code = (
        "from jensen_stab import OracleFn, SeededUniformNoise, bundled_carrier\n"
        "z1 = bundled_carrier('int1')\n"
        "f = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.1, 42))\n"
        "vals = [f.eval(x) for x in (-3, 0, 12345, 2**40)]\n"
        "print(repr([(v.real, v.imag) for v in vals]))\n"
    )
    # The child imports the same jensen_stab as this process, however pytest found it.
    env = {**os.environ, "PYTHONPATH": str(Path(jensen_stab.__file__).resolve().parents[1])}
    runs = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.1, 42))
    local = repr([(v.real, v.imag) for v in (f.eval(-3), f.eval(0), f.eval(12345), f.eval(2**40))])
    assert runs[0].strip() == local


def test_seeded_noise_is_deterministic_and_bounded():
    n1 = SeededUniformNoise(0.05, 42)
    n2 = SeededUniformNoise(0.05, 42)
    pts = [(i,) for i in range(-300, 301)] + [(2**40,), (-(2**50),)]
    for pt in pts:
        v1 = n1.value(pt)
        assert v1 == n2.value(pt)
        assert abs(v1) <= 0.05
    other = SeededUniformNoise(0.05, 43)
    assert any(n1.value(pt) != other.value(pt) for pt in pts)


@pytest.mark.parametrize("amp", [5e-324, 1e-300, 1e-200, 1e155, 1e300])
def test_seeded_noise_stays_in_its_disc_at_extreme_amplitudes(amp):
    # re^2 + im^2 <= amp^2 overflows above about 1.3e154 and underflows below
    # about 1e-160, where it accepted every draw in the square.
    pts = np.arange(-2000, 2001, dtype=np.int64)[:, None]
    noise = SeededUniformNoise(amp, 3)
    for got in (noise._draw_many(pts), noise._draw_many(pts[: _ROUND_MIN - 1]), [noise.value((7,))]):
        assert all(abs(v) <= amp for v in got)
    if 1e-250 < amp < 1e305:
        # Scaling the amplitude by a power of two scales every draw by it
        # while no coordinate leaves the normal range.
        ref = SeededUniformNoise(math.ldexp(amp, -math.frexp(amp)[1]), 3)._draw_many(pts)
        assert noise._draw_many(pts).tobytes() == np.ldexp(ref.view(np.float64), math.frexp(amp)[1]).tobytes()


def test_the_sparse_store_reads_points_inside_the_grid_from_it(monkeypatch):
    drawn = []
    real_draw = SeededUniformNoise._draw_many

    def counted(self, rows):
        drawn.extend(map(tuple, rows.tolist()))
        return real_draw(self, rows)

    monkeypatch.setattr(SeededUniformNoise, "_draw_many", counted)
    grid = np.arange(-20, 21, dtype=np.int64)[:, None]
    orbit = np.concatenate([grid[::4], 2 ** np.arange(6, 40, dtype=np.int64)[:, None]])
    noise = SeededUniformNoise(0.1, 9)
    noise.values(grid)
    drawn.clear()
    got = noise.values(orbit)  # too sparse for the grid: served from the store
    assert drawn == [(int(v),) for v in orbit[11:, 0]]
    assert len(noise._memo) == len(orbit)
    assert got.tobytes() == np.array([noise.value((int(v),)) for v in orbit[:, 0]]).tobytes()


def test_seeded_noise_dense_and_sparse_paths_agree():
    z1 = bundled_carrier("int1")
    window = z1.window_points()
    orbits = [window]
    for _ in range(12):
        orbits.append(z1.square_many(orbits[-1]))
    sparse = orbits[3:]  # from x^8 on, each level's box has over 4 cells per point
    pts = np.concatenate([window, *sparse])

    def box(noise):
        return None if noise._dense is None else (noise._dense[0].tolist(), noise._dense[1].tolist())

    def pointwise(noise):
        return np.array([noise.value((int(v),)) for v in pts[:, 0]])

    def dense_query(noise):
        return noise.values(window)

    def sparse_query(noise):
        out = []
        for level in sparse:
            before = box(noise)
            out.append(noise.values(level))
            assert box(noise) == before
        return np.concatenate(out)

    for order in itertools.permutations((pointwise, dense_query, sparse_query)):
        noise = SeededUniformNoise(0.1, 9)
        got = {way: way(noise) for way in order}
        batched = np.concatenate([got[dense_query], got[sparse_query]])
        assert got[pointwise].tobytes() == batched.tobytes(), [way.__name__ for way in order]
    # 2-d grid path
    g = SeededUniformNoise(0.1, 9)
    pts2 = np.array([[i, j] for i in range(-5, 6) for j in range(-5, 6)], dtype=np.int64)
    grid_vals = g.values(pts2)
    fresh2 = SeededUniformNoise(0.1, 9)
    assert np.array_equal(grid_vals, np.array([fresh2.value((int(a), int(b))) for a, b in pts2]))


def _blake2b_draw(seed: int, amp: float, pt: tuple[int, ...]) -> tuple[complex, int]:
    """One point's draw by the formula, with the counter that accepted it."""
    coords = ",".join(str(c) for c in pt)
    ctr = 0
    while True:
        digest = hashlib.blake2b(f"{seed}|{coords}|{ctr}".encode(), digest_size=16).digest()
        re = (2.0 * (int.from_bytes(digest[:8], "little") / 2.0**64) - 1.0) * amp
        im = (2.0 * (int.from_bytes(digest[8:], "little") / 2.0**64) - 1.0) * amp
        if re * re + im * im <= amp * amp:
            return complex(re, im), ctr
        ctr += 1


def test_bulk_draws_match_the_blake2b_formula_bit_for_bit():
    rng = np.random.default_rng(4)
    edge = 2**61
    line = np.concatenate([
        rng.integers(-(10**15), 10**15, (1400, 1)),
        np.arange(-60, 61)[:, None],
        np.array([[edge], [-edge], [edge - 1]]),
    ])
    plane = np.concatenate([
        rng.integers(-9999, 9999, (600, 2)),
        np.array([[0, 0], [-1, 7], [edge, -edge], [-edge, 3], [5, edge - 1]]),
    ])
    assert line.dtype == plane.dtype == np.int64
    for amp, seed in ((0.1, 7), (2.5, 1234)):
        for pts in (line, plane):
            want = [_blake2b_draw(seed, amp, tuple(pt)) for pt in pts.tolist()]
            got = SeededUniformNoise(amp, seed)._draw_many(pts)
            assert got.tobytes() == np.array([z for z, _ in want], dtype=np.complex128).tobytes()
            # Some first draws fall outside the disc, some points need a third counter.
            assert max(ctr for _, ctr in want) >= 2
            # Under _ROUND_MIN rows every row is drawn one at a time; a row that
            # needs a third counter is among them.
            few = [i for i, (_, ctr) in enumerate(want) if ctr >= 2][:1] + list(range(_ROUND_MIN - 2))
            got_few = SeededUniformNoise(amp, seed)._draw_many(pts[few])
            assert got_few.tobytes() == np.array([want[i][0] for i in few], dtype=np.complex128).tobytes()
    assert SeededUniformNoise(0.0, 7)._draw_many(line).tobytes() == bytes(16 * len(line))
    assert SeededUniformNoise(0.1, 7)._draw_many(line[:0]).shape == (0,)


@pytest.mark.parametrize("dim", [1, 2])
def test_sparse_store_matches_per_point_draws_in_any_call_order(dim):
    rng = np.random.default_rng(dim)
    edge = 2**61
    grid = bundled_carrier("int2").box_points(4)[:, :dim]  # dense: under 4 cells a point
    far = np.concatenate([
        rng.integers(-edge, edge, (40, dim)),
        np.array([[edge] * dim, [-edge] * dim, [edge - 1, -edge + 3][:dim], [-7, 5][:dim]]),
    ])
    near = rng.integers(-2000, -5, (30, dim))
    queries = [
        grid,
        far,
        np.concatenate([far[:7], near, grid[::3], far[:7], near[:2]]),  # repeats within a call, some in the grid
        near[::-1],
    ]

    def per_point(rows):
        return np.array([SeededUniformNoise(0.1, 3)._draw_many(rows[i : i + 1])[0] for i in range(len(rows))])

    want = [per_point(q).tobytes() for q in queries]
    for order in itertools.permutations(range(len(queries))):
        noise = SeededUniformNoise(0.1, 3)
        stored = set()
        for i in order:
            dense = noise._dense
            got = noise.values(queries[i])
            assert got.tobytes() == want[i], order
            lo, hi = (np.full(dim, 1), np.full(dim, 0)) if dense is None else dense[:2]
            if noise._dense is dense and not ((lo <= queries[i]) & (queries[i] <= hi)).all():
                # The grid did not serve the call whole, so the store holds all of its points.
                stored |= {tuple(p) for p in queries[i].tolist()}
        assert len(noise._memo) == len(stored), order
        assert noise.value(tuple(far[3])) == complex(per_point(far[3:4])[0])


def test_grid_growth_draws_each_cell_once(monkeypatch):
    draws = []
    real_draw = SeededUniformNoise._draw_many

    def counted(self, rows):
        draws.extend(map(tuple, rows))
        return real_draw(self, rows)

    monkeypatch.setattr(SeededUniformNoise, "_draw_many", counted)
    z1 = bundled_carrier("int1")
    x, y = z1.window_pair_arrays()
    box = np.arange(-576, 577, dtype=np.int64)[:, None]
    noise = SeededUniformNoise(0.1, 9)
    noise.values(x + y)
    got = noise.values(box)
    assert len(draws) == box.shape[0] == 1153
    assert len(set(draws)) == len(draws)
    assert got.tobytes() == np.array([noise.value((int(v),)) for v in box[:, 0]]).tobytes()
    # 2-d: the old block sits off-centre in the grown box
    z2 = bundled_carrier("int2")
    draws.clear()
    noise2 = SeededUniformNoise(0.1, 9)
    noise2.values(z2.box_points(3))
    shifted = z2.box_points(7) + np.array([1, -2])
    got2 = noise2.values(shifted)
    assert len(draws) == len(set(draws)) == 15 * 15
    assert got2.tobytes() == np.array([noise2.value((int(a), int(b))) for a, b in shifted]).tobytes()


def test_lattice_table_bounds():
    z1 = bundled_carrier("int1")
    vals = np.zeros(129, dtype=np.complex128)
    t = LatticeTableFn(z1, vals)
    assert t.eval(0) == 0
    with pytest.raises(InvalidElementError):
        t.eval(65)
    with pytest.raises(InvalidElementError):
        t.eval_many(np.array([[70]], dtype=np.int64))


def test_function_file_roundtrip():
    s3 = bundled_carrier("s3")
    f = FiniteTableFn(s3, np.arange(6) * (1 + 2j))
    d = f.to_dict()
    f2 = function_from_dict(d, s3)
    assert np.array_equal(f.values, f2.values)

    z1 = bundled_carrier("int1")
    o = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.1, 42))
    d2 = o.to_dict()
    o2 = function_from_dict(d2, z1)
    pts = z1.window_points()
    assert np.array_equal(o.eval_many(pts), o2.eval_many(pts))

    t = LatticeTableFn(z1, np.arange(129, dtype=np.complex128))
    t2 = function_from_dict(t.to_dict(), z1)
    assert np.array_equal(t.values, t2.values)


def test_only_tables_and_oracles_serialize():
    z1 = bundled_carrier("int1")
    o = OracleFn(z1, [2.0], 5.0)
    for view in (EvenPart(o), OddPart(o), LeftTranslate(3, o)):
        with pytest.raises(FormatError, match="cannot serialize function of type"):
            view.to_dict()


def test_oracle_file_accepts_bare_reals():
    z1 = bundled_carrier("int1")
    f = function_from_dict(
        {"kind": "oracle", "linear": [2.0], "constant": [5.0, 0.0], "noise": None}, z1
    )
    assert f.eval(3) == 11.0


def test_each_noise_type_round_trips_through_its_file_form():
    for name, cls in NOISE_TYPES.items():
        noise = cls(0.25, 3)
        back = noise_from_dict(noise.to_dict())
        assert type(back) is cls and back.to_dict() == noise.to_dict() == {"type": name, "amplitude": 0.25, "seed": 3}


@pytest.mark.parametrize("kind", ["bogus", "none", ["parity"], None])
def test_unknown_noise_types_are_refused(kind):
    # "none" is a config's word for no noise, not a noise a file can carry.
    with pytest.raises(FormatError, match="unknown noise type"):
        noise_from_dict({"type": kind, "amplitude": 0.1})


def test_malformed_functions_rejected():
    s3 = bundled_carrier("s3")
    with pytest.raises(FormatError):
        function_from_dict({"kind": "table", "values": {"e": [0, 0]}}, s3)
    with pytest.raises(FormatError):
        function_from_dict({"kind": "oracle", "linear": [1.0]}, s3)
    with pytest.raises(FormatError):
        FiniteTableFn(s3, [float("nan")] * 6)
    z1 = bundled_carrier("int1")
    with pytest.raises(FormatError):
        OracleFn(z1, [float("inf")], 0.0)
    for bad in ([1, "a"], [1, None], "1", [float("nan"), 0.0], float("inf")):
        with pytest.raises(FormatError):
            function_from_dict({"kind": "table", "values": {lab: bad for lab in s3.elements}}, s3)
        with pytest.raises(FormatError):
            function_from_dict({"kind": "oracle", "linear": [1.0], "constant": bad}, z1)
    for linear in (2.0, "2", {"x": 2.0}):
        with pytest.raises(FormatError):
            function_from_dict({"kind": "oracle", "linear": linear}, z1)
    for noise in (
        {"type": "seeded_uniform", "amplitude": True, "seed": 2.7},
        {"type": "seeded_uniform", "amplitude": True, "seed": 2},
        {"type": "seeded_uniform", "amplitude": 0.1, "seed": 2.7},
        {"type": "seeded_uniform", "amplitude": 0.1, "seed": True},
        {"type": "parity", "amplitude": None},
        {"type": "parity", "seed": 0},
    ):
        with pytest.raises(FormatError):
            function_from_dict({"kind": "oracle", "linear": [1.0], "noise": noise}, z1)


def test_window_points_orders():
    z1 = bundled_carrier("int1")
    pts = z1.window_points()
    assert pts[0, 0] == -64 and pts[-1, 0] == 64
    s3 = bundled_carrier("s3")
    assert s3.window_points().tolist() == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda c: noise_from_dict([0.1]), "malformed noise descriptor"),
        (lambda c: function_from_dict({"values": {}}, c), "function data must be a dict with a 'kind' field"),
        (lambda c: function_from_dict({"kind": "table", "values": [1.0]}, c), "table function needs a 'values' mapping"),
        (lambda c: function_from_dict({"kind": "table", "values": {}}, c), "table is not total on the window"),
        (lambda c: function_from_dict({"kind": "spline"}, c), "unknown function kind 'spline'"),
        (lambda c: OracleFn(c, [1.0, 2.0]), "linear coefficients must have length 1"),
        (lambda c: OracleFn(c, [1.0], 0.0, ParityNoise(0.1)).perturbed(ParityNoise(0.1)), "oracle already carries noise"),
        (lambda c: EvenPart(OracleFn(c, [1.0])).perturbed(ParityNoise(0.1)), "cannot perturb function of type EvenPart"),
        (lambda c: FiniteTableFn(bundled_carrier("s3"), [1.0] * 5), r"table must have 6 values, got \(5,\)"),
        (lambda c: LatticeTableFn(c, np.zeros(5)), r"lattice table must have shape \(129,\), got \(5,\)"),
        (lambda c: LatticeTableFn(c, np.full(129, np.nan)), "table values must be finite"),
    ],
)
def test_malformed_function_input_is_a_format_error(build, match):
    with pytest.raises(FormatError, match=match):
        build(bundled_carrier("int1"))


_TABULATED_NOISE = {
    "seeded": lambda: SeededUniformNoise(0.2, 7),
    "parity": lambda: ParityNoise(0.3),
    # With a linear part of 1e306, values overflow to inf and NaN inside the box and out of it.
    "overflowing": lambda: SeededUniformNoise(1.5e308, 7),
}


@pytest.mark.parametrize("noise", sorted(_TABULATED_NOISE))
@pytest.mark.parametrize("name", ["int1", "int2"])
def test_a_tabulated_oracle_reads_the_oracle_bits_in_and_out_of_its_box(name, noise):
    c = bundled_carrier(name)
    linear = [1e306, -1e306][: c.dim] if noise == "overflowing" else [1.5, -0.5 + 1j][: c.dim]

    def make():
        # A fresh oracle each time, so no noise cache is shared with the view.
        return OracleFn(c, linear, 2j, _TABULATED_NOISE[noise]())

    view = c.tabulated(make(), mean=True)
    r = view.radius
    assert r == c.folner_max + c.window_radius
    assert view.noise is view.base.noise
    assert view.readable(c.box_points(r + 5)) is None
    inside = c.box_points(r)[::5]
    outside = c.box_points(2) + (r + 3)
    mixed = np.concatenate([inside[:4], outside[:3], inside[-4:], c.row(c.neutral)])
    ref = make()
    for pts in (inside, outside, mixed, c.row(c.neutral), inside[:0]):
        assert view.eval_many(pts).tobytes() == ref.eval_many(pts).tobytes()
    assert view.eval(c.neutral) == ref.eval(c.neutral)
    # The table keeps inf and NaN as the oracle gives them; it is read-only.
    assert np.isfinite(view.values).all() == (noise != "overflowing")
    assert not view.values.flags.writeable


def test_tabulated_is_f_itself_where_f_is_already_a_table():
    s3 = bundled_carrier("s3")
    f = FiniteTableFn(s3, np.arange(6) + 1j)
    assert s3.tabulated(f, mean=True) is f
    z1 = bundled_carrier("int1")
    g = LatticeTableFn(z1, np.ones(129))
    # A window table cannot be read on the box of the window terms.
    assert z1.tabulated(g) is g
