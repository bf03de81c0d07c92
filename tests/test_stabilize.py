"""The three constructions: dyadic limit, averaged phi, reconstruction."""

from __future__ import annotations

import numpy as np
import pytest

from jensen_stab import (
    BUNDLED_CARRIERS,
    CapabilityError,
    Carrier,
    FormatError,
    FiniteCarrier,
    FiniteTableFn,
    InvalidElementError,
    LatticeCarrier,
    LatticeOverflowError,
    LatticeTableFn,
    NonConvergenceError,
    OracleFn,
    ParityNoise,
    SeededUniformNoise,
    bundled_carrier,
    carrier_from_dict,
    dyadic_limit,
    folner_mean,
    forti_sikorska_reconstruct,
    jensen_approximant,
    jensen_defect,
    perturb,
    phi_mean_construction,
    validate_carrier,
)
from jensen_stab import scan, stabilize
from jensen_stab.funcspace import BoundedFn, EvenPart, OddPart


class QuadraticFn(BoundedFn):
    """q x^2 + a x + c on Z^1, plus optional noise: an exact Drygas source."""

    def __init__(self, carrier, quad, lin=0.0, const=0.0, noise=None):
        self.carrier = carrier
        self.quad = complex(quad)
        self.lin = complex(lin)
        self.const = complex(const)
        self.noise = noise

    def eval(self, x) -> complex:
        (v,) = self.carrier.check_element(x)
        out = self.quad * v * v + self.lin * v + self.const
        if self.noise is not None:
            out = out + self.noise.value((v,))
        return out

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        v = pts[:, 0].astype(np.float64)
        out = self.quad * v * v + self.lin * v + self.const
        if self.noise is not None:
            out = out + self.noise.values(pts)
        return out


def test_dyadic_limit_exact_jensen_is_fixed_point():
    s3 = bundled_carrier("s3")
    f = FiniteTableFn(s3, [3 + 2j] * 6)
    for x in range(6):
        val, trace = dyadic_limit(f, x)
        assert val == 0
        assert all(v == 0 for v in trace.values)

    z1 = bundled_carrier("int1")
    g = OracleFn(z1, [2.0], 5.0)
    val, trace = dyadic_limit(g, 1)
    assert val == 2.0
    assert trace.n_final == 1


def test_dyadic_limit_constant_is_zero():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, None, 9.0)
    val, _ = dyadic_limit(f, 17)
    assert val == 0.0


def test_dyadic_cauchy_bound():
    z1 = bundled_carrier("int1")
    eps = 0.25
    for noise in (ParityNoise(eps), SeededUniformNoise(eps, 13)):
        f = OracleFn(z1, [2.0], 5.0, noise)
        for x in (1, -7, 33):
            _, trace = dyadic_limit(f, x)
            for i, step in enumerate(trace.diffs):
                m = i + 1
                # |g_m - g_{m-1}| = 2^-m |h(u^2) - 2h(u)| <= 2^-m * 4 eps
                assert step <= 0.5**m * 4 * eps + 1e-15


def test_dyadic_nonconvergence_carries_trace():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.5, 3))
    with pytest.raises(NonConvergenceError) as exc:
        dyadic_limit(f, 3, n_max=2, tol=1e-12)
    assert len(exc.value.trace) == 2


def test_dyadic_overflow_is_reported():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.5, 3))
    with pytest.raises(LatticeOverflowError):
        dyadic_limit(f, 3, n_max=80, tol=0.0)


def test_overflowing_oracle_values_end_in_nonconvergence_without_warnings():
    # 1e300 * 2^n overflows to inf after a few levels, and the odd part then
    # subtracts inf from inf; pytest turns numpy's RuntimeWarnings into errors.
    f = OracleFn(LatticeCarrier(1, 4, 4), [1e300], 0.0, SeededUniformNoise(0.5, 3))
    for construct in (
        lambda: jensen_approximant(f, "dyadic"),
        lambda: jensen_approximant(f, "dyadic_full"),
        lambda: dyadic_limit(f, 3),
    ):
        with pytest.raises(NonConvergenceError):
            construct()


def test_zero_levels_is_a_nonconvergence_with_an_empty_trace():
    s3 = bundled_carrier("s3")
    f = perturb(s3.exact_solution(1 - 2j), "seeded_uniform", 0.3, seed=5)
    for method in ("dyadic", "dyadic_full", "forti_sikorska"):
        with pytest.raises(NonConvergenceError) as exc:
            jensen_approximant(f, method, n_max=0)
        assert exc.value.trace == []
    for construct in (dyadic_limit, forti_sikorska_reconstruct):
        with pytest.raises(NonConvergenceError):
            construct(f, 1, n_max=0)


def test_folner_mean_examples():
    s3 = bundled_carrier("s3")
    const = FiniteTableFn(s3, [4 - 1j] * 6)
    m = folner_mean(const)
    assert m.value == 4 - 1j
    assert m.k_used == 6
    assert m.invariance_residual <= 1e-15

    indicator = FiniteTableFn(s3, [0, 0, 1.0, 0, 0, 0])
    assert abs(folner_mean(indicator).value - 1 / 6) <= 1e-15

    z1 = bundled_carrier("int1")
    alternating = OracleFn(z1, None, 0.0, ParityNoise(1.0))
    for k in (8, 64):
        m = folner_mean(alternating, k)
        # alternating sum over a symmetric box leaves one survivor
        assert abs(abs(m.value) - 1 / (2 * k + 1)) <= 1e-15


def test_folner_mean_capability_error():
    m3 = bundled_carrier("m3")
    f = FiniteTableFn(m3, [1.0, 2.0, 3.0])
    with pytest.raises(CapabilityError):
        folner_mean(f)
    with pytest.raises(CapabilityError):
        phi_mean_construction(f)


def test_phi_constant_is_zero():
    s3 = bundled_carrier("s3")
    f = FiniteTableFn(s3, [3 + 2j] * 6)
    phi, diag = phi_mean_construction(f)
    assert np.abs(phi.values).max() == 0.0
    assert diag.phi_error_budget == 0.0


def test_phi_additive_is_exact_for_every_k():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [1.5], 0.0)
    pts = z1.window_points()
    for k in (16, 64, 512):
        phi, _ = phi_mean_construction(f, k)
        # integrand is constant in x: phi(y) = 2 a y exactly
        assert np.abs(phi.eval_many(pts) - 3.0 * pts[:, 0]).max() == 0.0


class _IdentityInvolutionLattice(LatticeCarrier):
    """Z with sigma = id, a valid involution of an abelian group."""

    def involute_many(self, xs: np.ndarray) -> np.ndarray:
        return xs


def test_phi_reads_the_carriers_involution():
    # With sigma = id the odd part of every function is 0 and the points y x
    # and x sigma(y) coincide, so phi is 0 at every y; with sigma = -id it
    # would be 2 a y.
    c = _IdentityInvolutionLattice(1, 8, 64)
    phi, _ = phi_mean_construction(OracleFn(c, [1.5], 0.0))
    assert np.abs(phi.values).max() == 0.0


def test_phi_boundary_bound_vs_brute_force():
    z1 = bundled_carrier("int1")
    a, eps, seed = 1.0, 0.3, 6
    q = OracleFn(z1, [a], 0.0, SeededUniformNoise(eps, seed))
    k = 32
    phi, diag = phi_mean_construction(q, k)
    # independent brute-force box sums of the odd part a x + (noise(x) - noise(-x)) / 2
    noise = SeededUniformNoise(eps, seed)

    def odd(z):
        return a * z + (noise.value((z,)) - noise.value((-z,))) / 2

    for y in (-16, -3, 0, 5, 16):
        total = 0j
        for x in range(-k, k + 1):
            total += odd(y + x) - odd(x - y)
        brute = total / (2 * k + 1)
        assert abs(phi.eval(y) - brute) <= 1e-12
        # boundary-term count of the box average; the odd part of the noise is bounded by eps
        assert abs(phi.eval(y) - 2 * a * y) <= 2 * eps * (2 * abs(y)) / (2 * k + 1) + 1e-12
    assert diag.phi_error_budget == 2 * eps * z1.mean_translate_ratio(k)


def _phi_per_translate(f, k):
    """phi as one oracle loop per translate y, with no table of f_odd."""
    c = f.carrier
    pts = c.window_points() if c.size else c.folner_points(k)
    fo = OddPart(f)
    win = c.window_points()
    vals = np.empty(win.shape[0], dtype=np.complex128)
    for i, y in enumerate(win):
        integrand = fo.eval_many(c.compose_many(y, pts)) - fo.eval_many(c.compose_many(pts, c.involute_many(y)))
        vals[i] = integrand.mean()
    return vals


PHI_CASES = [("s3", None), ("q8", None), ("z6", None), ("int1", 512), ("int2", 16)]


def _assert_phi_matches_the_per_translate_loop(c, k):
    if c.size:
        def make():
            return perturb(c.exact_solution(1 - 2j), "seeded_uniform", 0.3, seed=11)
    else:
        def make():
            return OracleFn(c, [1.5, -0.5 + 1j][: c.dim], 2j, SeededUniformNoise(0.2, 11))
    phi, diag = phi_mean_construction(make(), k)
    assert phi.values.ravel().tobytes() == _phi_per_translate(make(), k).tobytes()
    if not c.size:
        assert diag.k_used == k


@pytest.mark.parametrize("name, k", PHI_CASES)
def test_phi_matches_the_per_translate_oracle_loop(name, k):
    c = bundled_carrier(name)
    _assert_phi_matches_the_per_translate_loop(c, k)
    if not c.size:
        for r in range(1, c.folner_max + 1):
            assert np.array_equal(c.box_points(r), c.folner_points(r))


class _SigmaIdLattice(LatticeCarrier):
    """Z^d with sigma = id, an involution of an abelian group other than the inverse."""

    def involute_many(self, xs):
        return xs


@pytest.mark.parametrize(
    "cls, dim, window, folner_max, k",
    [
        (LatticeCarrier, 1, 16, 64, 32),
        (LatticeCarrier, 2, 3, 8, 5),
        (_SigmaIdLattice, 1, 8, 16, 12),
        (_SigmaIdLattice, 2, 3, 6, 4),
    ],
)
def test_lattice_reach_fast_path_matches_the_generic_reach(monkeypatch, cls, dim, window, folner_max, k):
    # Three window rows a block, so both reaches run several blocks.
    monkeypatch.setattr(scan, "_CHUNK", 3 * (2 * k + 1) ** dim)
    generic_cls = type("GenericReach", (cls,), {"reach": Carrier.reach})
    built = []
    for c in (cls(dim, window, folner_max), generic_cls(dim, window, folner_max)):
        f = OracleFn(c, [1.5, -0.5 + 1j][:dim], 2j, SeededUniformNoise(0.2, 11))
        domain, blocks = c.reach(c.mean_set(k)[0], k)
        built.append((domain, [b for pair in blocks for b in pair], phi_mean_construction(f, k)))
    (domain, blocks, (phi, diag)), (g_domain, g_blocks, (g_phi, g_diag)) = built
    assert np.array_equal(domain, g_domain)
    assert len(blocks) == len(g_blocks) > 2
    assert all(np.array_equal(a, b) for a, b in zip(blocks, g_blocks))
    assert phi.values.tobytes() == g_phi.values.tobytes()
    assert diag.to_dict() == g_diag.to_dict()


@pytest.mark.parametrize("name", ["s3", "q8", "m3"])
def test_reach_composes_y_on_the_left_of_x_and_sigma_y_on_the_right(name):
    # On a non-abelian carrier y x differs from x y, which phi's integrand on
    # a finite group (identically 0) cannot tell apart.
    c = bundled_carrier(name)
    w, xs = c.window_points(), c.window_points()
    domain, blocks = c.reach(xs, c.size)
    start = 0
    for yx, xsy in blocks:
        rows = w[start : start + yx.shape[0]]
        start += yx.shape[0]
        assert np.array_equal(domain[yx], c.op[rows[:, None], xs[None, :]])
        assert np.array_equal(domain[xsy], c.op[xs[None, :], c.involution[rows][:, None]])
    assert start == w.shape[0]


@pytest.mark.parametrize("name, k", [("int1", 64), ("int2", 8)])
def test_phi_probe_residual_matches_a_per_point_loop(name, k):
    # |mean h(e1 + x) - mean h(x)| over the Folner box, h = f_even - f(e).
    c = bundled_carrier(name)
    f = OracleFn(c, [1.5, -0.5 + 1j][: c.dim], 2j, SeededUniformNoise(0.2, 11))
    f_e = f.eval(c.neutral)

    def h(x):
        return (f.eval(x) + f.eval(tuple(-v for v in x))) / 2 - f_e

    box = [tuple(x) for x in c.folner_points(k).tolist()]
    e1 = (1,) + (0,) * (c.dim - 1)
    m0 = np.mean(np.array([h(x) for x in box]))
    m1 = np.mean(np.array([h(tuple(a + b for a, b in zip(e1, x))) for x in box]))
    residual = phi_mean_construction(f, k)[1].probe_invariance_residual
    assert residual == float(abs(m1 - m0)) > 0


@pytest.mark.parametrize("name, k", PHI_CASES)
def test_phi_in_small_blocks_matches_the_per_translate_oracle_loop(monkeypatch, name, k):
    c = bundled_carrier(name)
    # Two window rows a block, so a lattice window (odd in size) ends on a one-row block.
    width = c.size or (2 * k + 1) ** c.dim
    monkeypatch.setattr(scan, "_CHUNK", 2 * width + 1)
    rows = [yx.shape[0] for yx, _ in c.reach(c.mean_set(k)[0], k)[1]]
    assert sum(rows) == c.window_points().shape[0]
    assert set(rows) == ({2} if c.size else {1, 2}) and rows[-1] == (2 if c.size else 1)
    _assert_phi_matches_the_per_translate_loop(c, k)


def test_forti_sikorska_constant_trace():
    s3 = bundled_carrier("s3")
    c = 3 + 2j
    f = FiniteTableFn(s3, [c] * 6)
    val, trace = forti_sikorska_reconstruct(f, 1)
    # hand expansion: level n value is 2^-n c
    for n, v in enumerate(trace.values):
        assert v == c * 0.5**n
    assert abs(val) <= 1e-9


def test_forti_sikorska_exact_drygas():
    z1 = bundled_carrier("int1")
    f = QuadraticFn(z1, 1.0, 1.0)  # x^2 + x, sigma = -id: exact Drygas
    for x in (-5, 1, 7):
        val, trace = forti_sikorska_reconstruct(f, x)
        assert val == f.eval(x)
        # x sigma(x) = 0 collapses the inner sums: exact at every level
        assert all(v == f.eval(x) for v in trace.values)


def test_forti_sikorska_noisy_drygas_geometric():
    z1 = bundled_carrier("int1")
    f = QuadraticFn(z1, 3 + 1j, 2.0, 0.0, SeededUniformNoise(0.5, 3))
    exact = QuadraticFn(z1, 3 + 1j, 2.0)
    for x in (2, -9):
        val, trace = forti_sikorska_reconstruct(f, x)
        errs = [abs(v - exact.eval(x)) for v in trace.values]
        assert errs[-1] <= 1e-9
        # geometric decay: halving (with slack) every level on average
        assert errs[10] <= errs[0] * 0.75**10


def _fs_per_pair(f, pts, n_max=stabilize.DEFAULT_N_MAX, tol=stabilize.DEFAULT_CONV_TOL):
    """Two-block levels with one f_even evaluation per pair array and block, from memoized powers."""
    c = f.carrier
    fe, fo = EvenPart(f), OddPart(f)
    pow_x = [pts]
    pairs = {}

    def x_pow(m):
        while len(pow_x) <= m:
            pow_x.append(c.square_many(pow_x[-1]))
        return pow_x[m]

    def pair(m, j, left_first):
        """(x^(2^m) sigma(x)^(2^m))^(2^j), or its mirror."""
        key = (m, j, left_first)
        if key not in pairs:
            if j == 0:
                xm = x_pow(m)
                sm = c.involute_many(xm)
                pairs[key] = c.compose_many(xm, sm) if left_first else c.compose_many(sm, xm)
            else:
                pairs[key] = c.square_many(pair(m, j - 1, left_first))
        return pairs[key]

    def level(n):
        xn = x_pow(n)
        inner = np.zeros(pts.shape[0], dtype=np.complex128)
        for k in range(1, n + 1):
            inner += 2.0 ** (k - 1) * (fe.eval_many(pair(n - k, k - 1, True)) + fe.eval_many(pair(n - k, k - 1, False)))
        even_block = (fe.eval_many(xn) + 0.5 * inner) * (0.25**n)
        inner2 = np.zeros(pts.shape[0], dtype=np.complex128)
        for k in range(1, n + 1):
            inner2 += fe.eval_many(pair(k - 1, n - k, True)) - fe.eval_many(pair(k - 1, n - k, False))
        odd_block = (fo.eval_many(xn) + 0.5 * inner2) * (0.5**n)
        return even_block + odd_block

    levels, diffs = [level(0)], []
    for n in range(1, n_max + 1):
        levels.append(level(n))
        diffs.append(float(np.abs(levels[-1] - levels[-2]).max()))
        if diffs[-1] <= tol:
            return levels, diffs, n
    raise NonConvergenceError("the reference loop did not converge", trace=diffs)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _twisted_s3():
    """S3 with sigma(x) = a x^-1 a for the transposition a = (0 1).

    An involutive anti-automorphism other than the inverse: on every bundled
    carrier x^(2^j) sigma(x)^(2^j) is the neutral point or one element for all
    j, here the pair rows differ from row to row and from their mirrors.
    """
    s3 = bundled_carrier("s3")
    a = s3.elements.index("102")
    twist = [int(s3.op[s3.op[a, s3.involution[x]], a]) for x in range(s3.size)]
    c = FiniteCarrier(s3.elements, s3.op, twist, neutral=s3.neutral, name="S3 twisted")
    assert validate_carrier(c).ok
    return c


@pytest.mark.parametrize("name", ["z2", "z6", "s3", "q8", "m3", "s3_twisted", "int1", "int2"])
def test_fs_pair_rows_are_sigma_fixed(name):
    # sigma(x sigma(x)) = x sigma(x) and sigma(z^2) = sigma(z)^2, so every pair
    # row is its own involute, and _fs_levels reads f there once, as f_even.
    c = _twisted_s3() if name == "s3_twisted" else bundled_carrier(name)
    w = c.window_points()
    pairs = c.pair_levels(w)
    for k in range(13):
        rows = pairs(k)
        assert rows.shape[0] == 2 * k * w.shape[0]
        assert np.array_equal(c.involute_many(rows), rows)


@pytest.mark.parametrize(
    "name, noise",
    [("z2", "seeded"), ("z6", "seeded"), ("s3", "seeded"), ("q8", "seeded"), ("m3", "seeded"),
     ("s3_twisted", "seeded"), ("int1", "parity"), ("int1", "seeded"), ("int2", "seeded")],
)
def test_fs_matches_the_per_pair_reference_loop(name, noise):
    c = _twisted_s3() if name == "s3_twisted" else bundled_carrier(name)
    if c.size:
        def make():
            return perturb(c.exact_solution(1 - 2j), "seeded_uniform", 0.3, seed=5)
    else:
        def make():
            amp = ParityNoise(0.2) if noise == "parity" else SeededUniformNoise(0.2, 5)
            return OracleFn(c, [1.5, -0.5 + 1j][: c.dim], 2j, amp)
    pts = c.window_points()
    vals, diffs, n_final, levels = stabilize._fs_iterate(
        make(), pts, stabilize.DEFAULT_N_MAX, stabilize.DEFAULT_CONV_TOL
    )
    ref_levels, ref_diffs, ref_n = _fs_per_pair(make(), pts)
    assert (n_final, diffs) == (ref_n, ref_diffs)
    assert _same_bits(vals, ref_levels[-1])
    assert len(levels) == len(ref_levels)
    assert all(_same_bits(a, b) for a, b in zip(levels, ref_levels))
    # One point (of order 3 on s3): each row sum runs down a single column.
    val, trace = forti_sikorska_reconstruct(make(), pts[-2])
    ref_levels, ref_diffs, ref_n = _fs_per_pair(make(), pts[-2:-1])
    assert (trace.n_final, trace.diffs) == (ref_n, ref_diffs)
    assert trace.values == [complex(v[0]) for v in ref_levels]
    assert val == trace.values[-1]


def _dyadic_per_level(target, pts, n_max=stabilize.DEFAULT_N_MAX, tol=stabilize.DEFAULT_CONV_TOL):
    """The dyadic iteration one level at a time: square, evaluate, compare."""
    c = target.carrier
    t_e = target.eval(c.neutral)
    cur = pts
    levels, diffs = [target.eval_many(cur) - t_e], []
    for n in range(1, n_max + 1):
        cur = c.square_many(cur)
        levels.append((target.eval_many(cur) - t_e) * 0.5**n)
        diffs.append(float(np.abs(levels[-1] - levels[-2]).max()))
        if diffs[-1] <= tol:
            return levels, diffs, n
    raise NonConvergenceError("the reference loop did not converge", trace=diffs)


def _assert_dyadic_matches(target, pts, n_max=stabilize.DEFAULT_N_MAX, tol=stabilize.DEFAULT_CONV_TOL):
    vals, diffs, n_final, levels = stabilize._dyadic_iterate(target, pts, n_max, tol)
    ref_levels, ref_diffs, ref_n = _dyadic_per_level(target, pts, n_max, tol)
    assert (n_final, diffs) == (ref_n, ref_diffs)
    assert _same_bits(vals, ref_levels[-1])
    assert len(levels) == len(ref_levels)
    assert all(_same_bits(a, b) for a, b in zip(levels, ref_levels))


@pytest.mark.parametrize(
    "name, noise",
    [("z2", "seeded"), ("s3_twisted", "seeded"), ("int1", "parity"), ("int1", "seeded"), ("int2", "seeded")],
)
def test_dyadic_blocks_match_the_level_by_level_loop(name, noise):
    c = _twisted_s3() if name == "s3_twisted" else bundled_carrier(name)
    if c.size:
        f = perturb(c.exact_solution(1 - 2j), "seeded_uniform", 0.3, seed=5)
    else:
        amp = ParityNoise(0.2) if noise == "parity" else SeededUniformNoise(0.2, 5)
        f = OracleFn(c, [1.5, -0.5 + 1j][: c.dim], 2j, amp)
    pts = c.window_points()
    for target in (f, OddPart(f)):
        _assert_dyadic_matches(target, pts)
        _assert_dyadic_matches(target, pts[-2:-1])
    counted = _CountingFn(f)
    n_final = stabilize._dyadic_iterate(counted, pts, stabilize.DEFAULT_N_MAX, stabilize.DEFAULT_CONV_TOL)[2]
    if n_final > 4:  # levels ran in blocks
        assert counted.calls < n_final


class _RootFn(BoundedFn):
    """2 x + sqrt(|x|) on Z^1: every dyadic step is 2^-1/2 times the one before."""

    def __init__(self, carrier, calls):
        self.carrier = carrier
        self.calls = calls

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        self.calls.append(pts.copy())
        x = pts[:, 0].astype(np.float64)
        return (2.0 * x + np.sqrt(np.abs(x))).astype(np.complex128)


def test_a_block_that_meets_the_overflow_guard_is_replayed_level_by_level():
    z1 = bundled_carrier("int1")
    pts = np.array([[3]], dtype=np.int64)
    ref_calls, calls = [], []
    # Squaring 3 * 2^60 trips the 2^61 guard: the reference loop evaluates
    # f(e) and levels 0 to 60, then raises. The blocked loop evaluates f(e),
    # then levels 0 to 2 as one block; the block predicted after level 2 runs
    # past the guard, evaluates nothing, and levels 3 to 61 are replayed one
    # by one.
    with pytest.raises(LatticeOverflowError):
        _dyadic_per_level(_RootFn(z1, ref_calls), pts, n_max=80, tol=1e-300)
    with pytest.raises(LatticeOverflowError):
        stabilize._dyadic_iterate(_RootFn(z1, calls), pts, 80, 1e-300)
    assert len(ref_calls) == 62
    assert len(calls) == 60
    assert _same_bits(calls[0], ref_calls[0])
    assert _same_bits(calls[1], np.concatenate(ref_calls[1:4]))
    assert all(_same_bits(a, b) for a, b in zip(calls[2:], ref_calls[4:]))
    # Converging at the last level below the guard gives the same levels.
    with pytest.raises(NonConvergenceError) as exc:
        _dyadic_per_level(_RootFn(z1, []), pts, n_max=60, tol=0.0)
    _assert_dyadic_matches(_RootFn(z1, []), pts, n_max=80, tol=exc.value.trace[-1])


def test_a_block_that_leaves_a_table_is_replayed_until_it_converges():
    z1 = bundled_carrier("int1")
    # Levels at x = 1 read g(2^n) / 2^n = 3, 2.5, 2.05, 2.04: the steps 0.5 and
    # 0.45 predict a long block, which leaves the box of radius 64 at 2^7.
    vals = 2.0 * np.arange(-64, 65, dtype=np.complex128)
    for x, level in ((1, 3.0), (2, 2.5), (4, 2.05), (8, 2.04)):
        vals[64 + x] = x * level
    g = LatticeTableFn(z1, vals)
    pts = np.array([[1]], dtype=np.int64)
    with pytest.raises(InvalidElementError):
        g.eval_many(z1.square_many(np.array([[64]], dtype=np.int64)))
    _assert_dyadic_matches(g, pts, tol=0.02)
    assert stabilize._dyadic_iterate(g, pts, stabilize.DEFAULT_N_MAX, 0.02)[2] == 3


def test_dyadic_with_zero_tolerance_runs_single_levels():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.5, 3))
    pts = z1.window_points()
    with pytest.raises(NonConvergenceError) as ref:
        _dyadic_per_level(f, pts, n_max=12, tol=0.0)
    counted = _CountingFn(f)
    with pytest.raises(NonConvergenceError) as got:
        stabilize._dyadic_iterate(counted, pts, 12, 0.0)
    assert got.value.trace == ref.value.trace
    assert counted.calls == 13
    _assert_dyadic_matches(OracleFn(z1, [2.0], 5.0), pts, tol=0.0)


class _CountingFn(BoundedFn):
    """Counts the eval_many calls that reach the wrapped function."""

    def __init__(self, base):
        self.base = base
        self.carrier = base.carrier
        self.calls = 0

    def eval(self, x) -> complex:
        return self.base.eval(x)

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        self.calls += 1
        return self.base.eval_many(pts)


def _assert_fs_matches(f, pts, n_max=stabilize.DEFAULT_N_MAX, tol=stabilize.DEFAULT_CONV_TOL):
    vals, diffs, n_final, levels = stabilize._fs_iterate(f, pts, n_max, tol)
    ref_levels, ref_diffs, ref_n = _fs_per_pair(f, pts, n_max, tol)
    assert (n_final, diffs) == (ref_n, ref_diffs)
    assert _same_bits(vals, ref_levels[-1])
    assert len(levels) == len(ref_levels)
    assert all(_same_bits(a, b) for a, b in zip(levels, ref_levels))


@pytest.mark.parametrize("name", ["s3", "int1", "int1w8"])
def test_fs_makes_a_bounded_number_of_evaluations_per_level(name):
    c = LatticeCarrier(1, 8, 64) if name == "int1w8" else bundled_carrier(name)
    if c.size:
        base = perturb(c.exact_solution(1 - 2j), "seeded_uniform", 0.3, seed=5)
    else:
        base = OracleFn(c, [1.5], 2j, SeededUniformNoise(0.2, 5))
    f = _CountingFn(base)
    res = jensen_approximant(f, "forti_sikorska", delta=0.0)
    # A per-pair evaluation would make about 2 n^2 calls over n levels; a
    # block makes two (pair rows, x^(2^k) rows with their involutes) and
    # level 0 one. On int1 (129 window points) the point cap keeps the
    # late blocks to one level; with 17 points they hold many.
    n = res.iterations_or_k
    assert n >= 10
    assert f.calls <= 2 * n + 1
    if name != "int1":
        assert f.calls < n


def test_fs_blocks_stay_within_the_point_cap(monkeypatch):
    c = _twisted_s3()
    f = perturb(c.exact_solution(1 - 2j), "seeded_uniform", 0.3, seed=5)
    m = c.size
    cap = 400  # level k stacks 2 (2k + 1) m = 12 (2k + 1) points: one level alone exceeds it from k = 17
    blocks = []
    fs_levels = stabilize._fs_levels
    counted = _PointCountingFn(f)

    def spy(fn, sums, xs, k0):
        # The block's pair rows are read before the call, its orbit within it.
        out = fs_levels(fn, sums, xs, k0)
        blocks.append((k0, len(xs), counted.points))
        return out

    monkeypatch.setattr(stabilize, "_fs_levels", spy)
    monkeypatch.setattr(stabilize, "_BLOCK_POINTS", cap)
    _assert_fs_matches(counted, c.window_points())
    assert blocks[0][:2] == (0, 3)
    assert [k0 for k0, _, _ in blocks] == list(np.cumsum([0] + [size for _, size, _ in blocks[:-1]]))
    stacked = [sum(2 * (2 * k + 1) * m for k in range(k0, k0 + size)) for k0, size, _ in blocks]
    read = np.diff([0] + [points for _, _, points in blocks])
    for (k0, size, _), points, total in zip(blocks, read, stacked):
        # f is read once at the 2k sigma-fixed pair rows of level k and once
        # at its x^(2^k) row with its involute: (2k + 2) m of the 2 (2k + 1) m.
        assert points == sum((2 * k + 2) * m for k in range(k0, k0 + size))
        assert total <= cap or size == 1
    assert any(size > 1 for _, size, _ in blocks)
    assert any(total > cap for total in stacked)


class _PointCountingFn(_CountingFn):
    """Also counts the points that reach the wrapped function."""

    points = 0

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        self.points += pts.shape[0]
        return super().eval_many(pts)


def _seeded(c, seed=5):
    """A seeded perturbation of 1 - 2j on a finite carrier, of an affine oracle on a lattice."""
    if c.size:
        return perturb(c.exact_solution(1 - 2j), "seeded_uniform", 0.3, seed=seed)
    return OracleFn(c, [1.5, -0.5 + 1j][: c.dim], 2j, SeededUniformNoise(0.2, seed))


def test_sigma_is_inverse_is_read_off_the_window():
    assert [bundled_carrier(n).sigma_is_inverse for n in BUNDLED_CARRIERS] == [True] * 4 + [False, True, True]
    assert not _twisted_s3().sigma_is_inverse
    # Z2 with a zero adjoined: sigma = id inverts e and g, but 0 has no inverse.
    c = carrier_from_dict(
        {"kind": "finite", "elements": ["e", "g", "0"], "neutral": "e",
         "op": [[0, 1, 2], [1, 0, 2], [2, 2, 2]], "involution": [0, 1, 2]}
    )
    assert validate_carrier(c).ok
    assert not c.sigma_is_inverse
    # Z with sigma = id: x sigma(x) = 2x, so the reconstruction reads its pair rows.
    z = _IdentityInvolutionLattice(1, 8, 64)
    assert not z.sigma_is_inverse
    _assert_fs_matches(_seeded(z), z.window_points())


@pytest.mark.parametrize("name, held", [("q8", False), ("int2", False), ("m3", True)])
def test_fs_holds_pair_rows_only_where_sigma_is_not_the_inverse(name, held):
    c = bundled_carrier(name)
    c.window_terms()
    jensen_approximant(_seeded(c), "forti_sikorska")
    assert ("powers", "w") in c._built
    assert any(isinstance(key, tuple) and key[0] == "pair_rows" for key in c._built) == held


class _RecordingFn(_CountingFn):
    """Also keeps a copy of every point array that reaches the wrapped function."""

    def __init__(self, base):
        super().__init__(base)
        self.reads = []

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        self.reads.append(pts.copy())
        return super().eval_many(pts)


@pytest.mark.parametrize("name", ["z2", "q8", "int1", "int2"])
def test_fs_reads_f_only_at_e_and_the_orbit_where_sigma_is_the_inverse(name):
    c = bundled_carrier(name)
    pts = c.window_points()
    m = pts.shape[0]
    f = _RecordingFn(_seeded(c))
    n_final = stabilize._fs_iterate(f, pts, stabilize.DEFAULT_N_MAX, stabilize.DEFAULT_CONV_TOL)[2]
    power = c.dyadic_levels(pts)
    # The run reads f at e alone once; then each block, levels 0 to 2 first,
    # reads the x^(2^k) rows of its levels with their involutes.
    assert np.array_equal(f.reads[0], c.row(c.neutral))
    k, sizes = 0, []
    for orbit in f.reads[1:]:
        sizes.append(orbit.shape[0] // (2 * m))
        xs = np.concatenate([power(j) for j in range(k, k + sizes[-1])])
        assert np.array_equal(orbit, np.concatenate([xs, c.involute_many(xs)]))
        k += sizes[-1]
    assert sizes[0] == 3
    assert k > n_final
    # A level stacks 2m points, so blocks hold many levels even on int2's 289 points.
    assert max(sizes[1:]) > 1


@pytest.mark.parametrize("name", ["z6", "q8", "s3", "m3"])
def test_fs_levels_past_weight_2_to_the_53_match_the_per_pair_reference_loop(name):
    c = bundled_carrier(name)
    pts = c.window_points()
    with pytest.raises(NonConvergenceError) as ref:
        _fs_per_pair(_seeded(c), pts, n_max=80, tol=1e-300)
    with pytest.raises(NonConvergenceError) as got:
        stabilize._fs_iterate(_seeded(c), pts, 80, 1e-300)
    assert got.value.trace == ref.value.trace
    assert len(got.value.trace) == 80


class _OddRootFn(_RootFn):
    """2 x + sign(x) sqrt(|x|) on Z^1: odd, and every reconstruction step is 2^-1/2 times the one before."""

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        self.calls.append(pts.copy())
        x = pts[:, 0].astype(np.float64)
        return (2.0 * x + np.sign(x) * np.sqrt(np.abs(x))).astype(np.complex128)


def test_an_fs_block_that_meets_the_overflow_guard_is_replayed_level_by_level():
    z1 = bundled_carrier("int1")
    pts = np.array([[3]], dtype=np.int64)
    ref_calls, calls = [], []
    # Squaring 3 * 2^60 trips the 2^61 guard: the reference loop evaluates
    # levels 0 to 60, then raises. The blocked loop reads f(e) once, then
    # levels 0 to 2 as one block; the block predicted after level 2 runs past
    # the guard, evaluates nothing, and levels 3 to 61 are replayed one by one.
    with pytest.raises(LatticeOverflowError) as ref:
        _fs_per_pair(_OddRootFn(z1, ref_calls), pts, n_max=80, tol=1e-300)
    with pytest.raises(LatticeOverflowError) as got:
        stabilize._fs_iterate(_OddRootFn(z1, calls), pts, 80, 1e-300)
    assert str(got.value) == str(ref.value)
    evaluated = np.unique(np.concatenate(calls))
    assert np.array_equal(evaluated, np.unique(np.concatenate(ref_calls)))
    assert evaluated.max() == 3 * 2**60
    orbit = [3 * 2**k for k in range(61)]
    assert [a[:, 0].tolist() for a in calls] == (
        [[0], [*orbit[:3], *(-x for x in orbit[:3])]] + [[x, -x] for x in orbit[3:]]
    )
    # Converging at the last level below the guard gives the same levels.
    with pytest.raises(NonConvergenceError) as exc:
        _fs_per_pair(_OddRootFn(z1, []), pts, n_max=60, tol=0.0)
    _assert_fs_matches(_OddRootFn(z1, []), pts, n_max=80, tol=exc.value.trace[-1])


def test_an_fs_block_that_leaves_a_table_is_replayed_until_it_converges():
    z1 = bundled_carrier("int1")
    # An odd table: f_even = 0, and the levels at x = 1 read g(2^n) / 2^n =
    # 3, 2.5, 2.05, 2.04. The steps 0.5 and 0.45 predict a long block, which
    # leaves the box of radius 64 at 2^7.
    vals = 2.0 * np.arange(-64, 65, dtype=np.complex128)
    for x, level in ((1, 3.0), (2, 2.5), (4, 2.05), (8, 2.04)):
        vals[64 + x], vals[64 - x] = x * level, -x * level
    g = LatticeTableFn(z1, vals)
    pts = np.array([[1]], dtype=np.int64)
    with pytest.raises(InvalidElementError):
        g.eval_many(z1.square_many(np.array([[64]], dtype=np.int64)))
    _assert_fs_matches(g, pts, tol=0.02)
    assert stabilize._fs_iterate(g, pts, stabilize.DEFAULT_N_MAX, 0.02)[2] == 3


@pytest.mark.parametrize("name", ["int1", "s3_twisted"])
def test_fs_with_zero_tolerance_runs_single_levels(name):
    if name == "int1":
        c = bundled_carrier(name)
        f = OracleFn(c, [2.0], 5.0, SeededUniformNoise(0.5, 3))
    else:
        c = _twisted_s3()
        f = perturb(c.exact_solution(1 - 2j), "seeded_uniform", 0.3, seed=5)
    pts = c.window_points()
    with pytest.raises(NonConvergenceError) as ref:
        _fs_per_pair(f, pts, n_max=12, tol=0.0)
    counted = _CountingFn(f)
    with pytest.raises(NonConvergenceError) as got:
        stabilize._fs_iterate(counted, pts, 12, 0.0)
    assert got.value.trace == ref.value.trace
    # Levels 0 to 12 one call each, and f(e) once per run or the pair rows once per level.
    assert counted.calls == 13 + (1 if c.sigma_is_inverse else 12)


def test_an_exact_solution_stops_at_level_1_after_the_first_block():
    z1 = bundled_carrier("int1")
    pts = z1.window_points()
    # Level 1 repeats level 0, so one block (levels 0 to 2) ends the run
    # with the level-by-level trace.
    for target in (OracleFn(z1, [2.0], 5.0), OddPart(QuadraticFn(z1, 1.0, 1.0))):
        f = _RecordingFn(target)
        assert stabilize._dyadic_iterate(f, pts, stabilize.DEFAULT_N_MAX, stabilize.DEFAULT_CONV_TOL)[1:3] == ([0.0], 1)
        assert len(f.reads) == 1
        _assert_dyadic_matches(target, pts)
    exact = QuadraticFn(z1, 1.0, 1.0)  # exact Drygas
    f = _RecordingFn(exact)
    assert stabilize._fs_iterate(f, pts, stabilize.DEFAULT_N_MAX, stabilize.DEFAULT_CONV_TOL)[1:3] == ([0.0], 1)
    assert len(f.reads) == 2  # f(e), then levels 0 to 2
    _assert_fs_matches(exact, pts)


@pytest.mark.parametrize("n_max, tol", [(1, stabilize.DEFAULT_CONV_TOL), (12, 0.0)])
def test_one_level_or_zero_tolerance_runs_single_levels(n_max, tol):
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.5, 3))
    pts = z1.window_points()
    xs = [z1.dyadic_levels(pts)(k) for k in range(n_max + 1)]
    for iterate, reference, reads in (
        (stabilize._dyadic_iterate, _dyadic_per_level, xs),
        (stabilize._fs_iterate, _fs_per_pair, [z1.row(z1.neutral)] + [np.concatenate([x, -x]) for x in xs]),
    ):
        with pytest.raises(NonConvergenceError) as ref:
            reference(f, pts, n_max=n_max, tol=tol)
        recorded = _RecordingFn(f)
        with pytest.raises(NonConvergenceError) as got:
            iterate(recorded, pts, n_max, tol)
        assert got.value.trace == ref.value.trace
        assert len(recorded.reads) == len(reads)
        assert all(np.array_equal(a, b) for a, b in zip(recorded.reads, reads))


def test_a_run_that_converges_in_the_predicted_block_makes_two_block_calls():
    c = bundled_carrier("z6")
    pts = c.window_points()
    m = pts.shape[0]
    # Besides f(e), read once per run, levels 0 to 2 and then the block the
    # ratio of their steps predicts, which holds the level that converges.
    for iterate, f, at_e, per_level in (
        (stabilize._dyadic_iterate, _seeded(c), 0, m),
        (stabilize._fs_iterate, c.exact_solution(1 - 2j), 1, 2 * m),
    ):
        recorded = _RecordingFn(f)
        n_final = iterate(recorded, pts, stabilize.DEFAULT_N_MAX, stabilize.DEFAULT_CONV_TOL)[2]
        blocks = recorded.reads[at_e:]
        assert len(blocks) == 2
        assert blocks[0].shape[0] == 3 * per_level
        assert 3 < n_final < (blocks[0].shape[0] + blocks[1].shape[0]) // per_level
    _assert_dyadic_matches(_seeded(c), pts)
    _assert_fs_matches(c.exact_solution(1 - 2j), pts)


def test_jensen_approximant_exact_fixed_points():
    s3 = bundled_carrier("s3")
    f = FiniteTableFn(s3, [3 + 2j] * 6)
    for method in ("mean", "dyadic", "dyadic_full", "forti_sikorska"):
        res = jensen_approximant(f, method)
        assert np.abs(res.g.eval_many(s3.window_points())).max() <= 1e-9
        assert res.offset == 3 + 2j
        assert res.g.eval(s3.neutral) == 0

    z1 = bundled_carrier("int1")
    g = OracleFn(z1, [2.0], 5.0)
    pts = z1.window_points()
    target = g.eval_many(pts) - 5.0
    for method in ("mean", "dyadic", "dyadic_full", "forti_sikorska"):
        res = jensen_approximant(g, method, folner_k=64)
        assert np.abs(res.g.eval_many(pts) - target).max() <= 1e-9
        assert res.g.eval(z1.neutral) == 0


def test_jensen_approximant_parity_example():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, ParityNoise(0.1))
    pts = z1.window_points()
    for method in ("mean", "dyadic"):
        res = jensen_approximant(f, method, folner_k=512)
        assert res.offset == 5.1  # f(0) = 5 + 0.1
        assert np.abs(res.g.eval_many(pts) - 2.0 * pts[:, 0]).max() <= 1e-12


def test_jensen_approximant_z2_example():
    z2 = bundled_carrier("z2")
    f = FiniteTableFn(z2, [0.0, 1.0])
    res = jensen_approximant(f, "mean")
    assert res.offset == 0.0
    assert np.abs(res.g.values).max() == 0.0  # f_odd vanishes since sigma = id
    res_d = jensen_approximant(f, "dyadic")
    assert np.abs(res_d.g.values).max() == 0.0


def test_dyadic_window_trace_bound():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.2, 17))
    delta = jensen_defect(f).delta
    res = jensen_approximant(f, "dyadic_full", delta=delta)
    for i, step in enumerate(res.convergence_trace):
        m = i + 1
        assert step <= 0.5**m * 1.5 * delta + 1e-12
    assert res.error_budget == 1.5 * delta * 0.5**res.iterations_or_k


def test_an_unknown_method_is_a_format_error():
    f = bundled_carrier("z2").exact_solution(1.0)
    with pytest.raises(FormatError, match="unknown method 'fourier'"):
        jensen_approximant(f, "fourier")


def test_method_budgets_nonnegative_and_parity_mean_exact():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, ParityNoise(0.1))
    res = jensen_approximant(f, "mean", folner_k=512)
    # the parity noise is even, nothing survives into f_odd: zero budget
    assert res.error_budget == 0.0
    res2 = jensen_approximant(f, "dyadic")
    assert res2.error_budget >= 0.0


def test_dyadic_solution_homogeneity():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.2, 23))
    res = jensen_approximant(f, "dyadic_full")
    g = res.g
    for x in range(-32, 33):
        assert abs(g.eval(2 * x) - 2 * g.eval(x)) <= 1e-9


def test_mean_solution_is_odd_within_budget():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.2, 29))
    res = jensen_approximant(f, "mean", folner_k=512)
    pts = z1.window_points()
    odd_dev = np.abs(res.g.eval_many(pts) + res.g.eval_many(-pts)).max()
    assert odd_dev <= 2 * res.error_budget + 1e-9


def test_translated_mean_invariance():
    from jensen_stab import folner_mean, perturb
    from jensen_stab.funcspace import LeftTranslate, RightTranslate

    # finite group: the uniform average of any translate equals the average
    s3 = bundled_carrier("s3")
    f = perturb(FiniteTableFn(s3, [1 + 1j] * 6), "seeded_uniform", 0.3, seed=2)
    fo = OddPart(f)
    z = 3
    probe = _combination(fo, s3, z)
    m0 = folner_mean(probe).value
    for y in range(6):
        my = folner_mean(RightTranslate(probe, y)).value
        assert abs(my - m0) <= 1e-14
        my_left = folner_mean(LeftTranslate(y, probe)).value
        assert abs(my_left - m0) <= 1e-14

    # lattice: translates move the mean by at most the boundary fraction
    z1 = bundled_carrier("int1")
    g = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.3, 2))
    go = OddPart(g)
    probe_l = _combination(go, z1, 4)
    k = 128
    m0 = folner_mean(probe_l, k).value
    for y in (1, 5, -9):
        my = folner_mean(RightTranslate(probe_l, y), k).value
        # probe is bounded by 4 * eps; the translate moves 2|y| boundary points
        assert abs(my - m0) <= (4 * 0.3) * (2 * abs(y)) / (2 * k + 1) + 1e-12


class _Combination(BoundedFn):
    """h(x) = fo(x sigma(z)) + fo(x z) - 2 fo(x): bounded for small-defect f."""

    def __init__(self, fo, carrier, z):
        self.fo = fo
        self.carrier = carrier
        self.z = z

    def eval(self, x):
        c = self.carrier
        return (
            self.fo.eval(c.compose(x, c.involute(self.z)))
            + self.fo.eval(c.compose(x, self.z))
            - 2 * self.fo.eval(x)
        )

    def eval_many(self, pts):
        c = self.carrier
        if hasattr(c, "op"):
            sz = c.involute(self.z)
            return (
                self.fo.eval_many(c.op[pts, sz])
                + self.fo.eval_many(c.op[pts, self.z])
                - 2 * self.fo.eval_many(pts)
            )
        z_row = np.asarray(c.check_element(self.z), dtype=np.int64)[None, :]
        return (
            self.fo.eval_many(pts - z_row)
            + self.fo.eval_many(pts + z_row)
            - 2 * self.fo.eval_many(pts)
        )


def _combination(fo, carrier, z):
    return _Combination(fo, carrier, z)
