"""Property-based checks of the algebraic and numeric invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from jensen_stab import (
    LatticeCarrier,
    OracleFn,
    SeededUniformNoise,
    bundled_carrier,
    dyadic_limit,
    jensen_defect,
    perturb,
)
from jensen_stab.funcspace import EvenPart, LeftTranslate, OddPart, RightTranslate

GROUPS = ("z2", "z6", "s3", "q8")

amplitudes = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**31)
small_pts = st.integers(min_value=-40, max_value=40)


@given(name=st.sampled_from(GROUPS), amp=amplitudes, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_perturbed_defect_bounded_by_4eps(name, amp, seed):
    c = bundled_carrier(name)
    f = perturb(c.exact_solution(2 - 1j), "seeded_uniform", amp, seed)
    assert jensen_defect(f).delta <= 4 * amp + 1e-9


@given(amp=amplitudes, seed=seeds)
@settings(max_examples=30, deadline=None)
def test_lattice_perturbed_defect_bounded(amp, seed):
    c = LatticeCarrier(dim=1, window_radius=16, folner_max=32)
    f = perturb(c.exact_solution(5.0, [2.0]), "seeded_uniform", amp, seed)
    assert jensen_defect(f).delta <= 4 * amp + 1e-9


@given(a_re=st.floats(-5, 5), c_im=st.floats(-5, 5), amp=amplitudes, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_decomposition_bit_exact_for_random_oracles(a_re, c_im, amp, seed):
    c = LatticeCarrier(dim=1, window_radius=16, folner_max=32)
    f = OracleFn(c, [complex(a_re, 1.0)], complex(2.0, c_im), SeededUniformNoise(amp, seed))
    pts = c.window_points()
    vals = f.eval_many(pts)
    fe = EvenPart(f).eval_many(pts)
    fo = OddPart(f).eval_many(pts)
    assert np.all((vals - fe) - fo == 0)
    assert np.all(fe == EvenPart(f).eval_many(-pts))


@given(seed=seeds, amp=amplitudes)
@settings(max_examples=25, deadline=None)
def test_odd_part_of_noise_is_bounded_by_amplitude(seed, amp):
    c = LatticeCarrier(dim=1, window_radius=32, folner_max=64)
    f = OracleFn(c, [1.0], 0.0, SeededUniformNoise(amp, seed))
    fo = OddPart(f).eval_many(c.window_points())
    linear = c.window_points()[:, 0].astype(np.complex128)
    assert np.abs(fo - linear).max() <= amp + 1e-12


@given(name=st.sampled_from(GROUPS), x=st.integers(0, 7), n=st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_dyadic_power_recursion_property(name, x, n):
    c = bundled_carrier(name)
    x = x % c.size
    a = c.dyadic_power(x, n)
    assert c.dyadic_power(x, n + 1) == c.compose(a, a)


@given(x=small_pts, n=st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_lattice_dyadic_power_is_scaling(x, n):
    c = bundled_carrier("int1")
    assert c.dyadic_power(x, n) == (x * 2**n,)


@given(y=small_pts, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_translate_identities(y, seed):
    c = LatticeCarrier(dim=1, window_radius=16, folner_max=64)
    f = OracleFn(c, [2.0], 1.0, SeededUniformNoise(0.2, seed))
    pts = c.window_points()
    assert np.array_equal(LeftTranslate(y, f).eval_many(pts), f.eval_many(pts + y))
    assert np.array_equal(RightTranslate(f, y).eval_many(pts), f.eval_many(pts + y))
    e = c.neutral
    assert np.array_equal(LeftTranslate(e, f).eval_many(pts), f.eval_many(pts))


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_window_monotonicity_property(seed):
    f32 = OracleFn(LatticeCarrier(1, 8, 16), [2.0], 5.0, SeededUniformNoise(0.5, seed))
    f64 = OracleFn(LatticeCarrier(1, 16, 32), [2.0], 5.0, SeededUniformNoise(0.5, seed))
    assert jensen_defect(f32).delta <= jensen_defect(f64).delta + 1e-9


@given(seed=seeds, x=st.integers(-20, 20))
@settings(max_examples=20, deadline=None)
def test_dyadic_diffs_bounded_by_true_delta(seed, x):
    c = LatticeCarrier(dim=1, window_radius=8, folner_max=16)
    eps = 0.3
    f = OracleFn(c, [2.0], 5.0, SeededUniformNoise(eps, seed))
    _, trace = dyadic_limit(f, x)
    for i, step in enumerate(trace.diffs):
        # |h(u^2) - 2h(u)| <= 4 eps for affine-plus-bounded oracles
        assert step <= 0.5 ** (i + 1) * 4 * eps + 1e-15


@given(seed=seeds)
@settings(max_examples=10, deadline=None)
def test_oracle_reproducibility(seed):
    c = LatticeCarrier(dim=1, window_radius=16, folner_max=32)
    f1 = OracleFn(c, [2.0], 5.0, SeededUniformNoise(0.4, seed))
    f2 = OracleFn(c, [2.0], 5.0, SeededUniformNoise(0.4, seed))
    pts = c.window_points()
    assert np.array_equal(f1.eval_many(pts), f2.eval_many(pts))
    far = np.array([[2**35 + 7]], dtype=np.int64)
    assert f1.eval_many(far)[0] == f2.eval_many(far)[0]
