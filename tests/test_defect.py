"""Defect scans and the intermediate inequality chain.

Derived expectations are recomputed here by independent brute force
(plain Python loops over the same pair domains) before being compared to
the library's scans.
"""

from __future__ import annotations

import numpy as np
import pytest

from jensen_stab import (
    FiniteTableFn,
    LatticeCarrier,
    LatticeTableFn,
    OracleFn,
    ParityNoise,
    SeededUniformNoise,
    bundled_carrier,
    drygas_defect,
    identity_checks,
    inequality_suite,
    jensen_approximant,
    jensen_defect,
    phi_mean_construction,
)
from jensen_stab import defect
from jensen_stab.funcspace import EvenPart, LeftTranslate, OddPart, RightTranslate


def brute_force_jensen(f, carrier):
    """Finite tables through the Cayley table; 1-d oracles through their formula."""
    if carrier.size:
        elements = range(carrier.size)
        mul = lambda x, y: int(carrier.op[x, y])
        sigma = lambda y: int(carrier.involution[y])
        val = lambda x: complex(f.values[x])
    else:
        elements = range(-carrier.window_radius, carrier.window_radius + 1)
        mul = lambda x, y: x + y
        sigma = lambda y: -y
        val = lambda x: complex(f.linear[0]) * x + f.constant + f.noise.value((x,))
    best = -1.0
    witness = None
    for x in elements:
        for y in elements:
            r = abs(val(mul(x, y)) + val(mul(x, sigma(y))) - 2 * val(x))
            if r > best:
                best, witness = r, (x, y)
    return best, witness


def test_z2_worked_example():
    z2 = bundled_carrier("z2")
    f = FiniteTableFn(z2, [0.0, 1.0])
    # enumerate all four pairs by hand: residual at (e, a) is |1 + 1 - 0| = 2
    expected, _ = brute_force_jensen(f, z2)
    assert expected == 2.0
    report = jensen_defect(f)
    assert report.delta == 2.0
    assert report.witness == ("e", "g1")
    assert report.domain_size == 4
    assert report.exactness == "exhaustive"


def test_constants_solve_jensen():
    for name in ("z6", "s3", "q8", "m3"):
        c = bundled_carrier(name)
        f = FiniteTableFn(c, [3.25 - 1.5j] * c.size)
        assert jensen_defect(f).delta == 0.0


def test_parity_defect_closed_form():
    z1 = bundled_carrier("int1")
    eps = 0.1
    f = OracleFn(z1, [1.0], 0.0, ParityNoise(eps))
    # closed form: sup |2 eps (-1)^x ((-1)^y - 1)| = 4 eps
    brute, _ = brute_force_jensen(f, LatticeCarrier(1, 8, 8))
    assert abs(brute - 4 * eps) < 1e-12
    report = jensen_defect(f)
    assert abs(report.delta - 4 * eps) < 1e-12
    assert report.analytic_bound == 4 * eps
    assert report.delta <= report.analytic_bound + 1e-9
    assert report.exactness == "window_lower_bound"


def test_defect_witness_attains_delta():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.1, 21))
    report = jensen_defect(f)
    (x,), (y,) = report.witness
    xy = z1.compose(x, y)
    xsy = z1.compose(x, -y)
    combo = f.eval(xy) + f.eval(xsy) - 2 * f.eval(x)
    # modulus through the same numpy path as the scan: bit-identical
    assert float(np.abs(np.complex128(combo))) == report.delta


def test_drygas_examples():
    small = LatticeCarrier(dim=1, window_radius=8, folner_max=16)
    pts = small.window_points()
    quad = LatticeTableFn(small, np.array([x * x for (x,) in pts], dtype=np.complex128))
    # (y+x)^2 + (x-y)^2 - 2x^2 - 2y^2 = 0, confirmed by the restricted scan
    assert drygas_defect(quad).delta == 0.0

    lin = OracleFn(small, [1.0], 0.0)
    assert drygas_defect(lin).delta == 0.0

    c = 2.5
    const = OracleFn(small, None, c)
    report = drygas_defect(const)
    assert abs(report.delta - 2 * abs(c)) < 1e-12


def test_drygas_restricts_table_pairs():
    small = LatticeCarrier(dim=1, window_radius=4, folner_max=8)
    pts = small.window_points()
    tab = LatticeTableFn(small, np.array([float(x) for (x,) in pts], dtype=np.complex128))
    report = drygas_defect(tab)
    assert report.scanned_pairs is not None
    assert report.scanned_pairs < report.domain_size
    assert report.delta <= 1e-12


class _ShearLattice(LatticeCarrier):
    """Z^2 with sigma(a, b) = (a, a - b): an involutive automorphism of an
    abelian group that maps the centred box of radius r into radius 2r."""

    def involute_many(self, xs: np.ndarray) -> np.ndarray:
        return np.stack([xs[:, 0], xs[:, 0] - xs[:, 1]], axis=1)


@pytest.mark.parametrize("part", [EvenPart, OddPart], ids=["even_part", "odd_part"])
def test_views_of_a_table_skip_pairs_whose_involutes_leave_the_box(part):
    c = _ShearLattice(2, 3, 6)
    rng = np.random.default_rng(11)
    g = LatticeTableFn(c, rng.normal(size=49) + 1j * rng.normal(size=49))
    view = part(g)
    report = jensen_defect(view)
    # Brute force over the window pairs whose three points and their
    # involutes all lie in the table's box of radius 3.
    best, scanned = -1.0, 0
    for x in c.window_points().tolist():
        for y in c.window_points().tolist():
            pts = np.array([[x[0] + y[0], x[1] + y[1]], [x[0] + y[0], x[1] + y[0] - y[1]], x])
            if np.abs(np.concatenate([pts, c.involute_many(pts)])).max() > 3:
                continue
            v = view.eval_many(pts)
            best = max(best, abs(v[0] + v[1] - 2 * v[2]))
            scanned += 1
    assert 0 < scanned < report.domain_size
    assert report.scanned_pairs == scanned
    assert abs(report.delta - best) <= 1e-12


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", ["int1", "int2"])
def test_translates_of_a_table_skip_pairs_whose_reads_leave_the_box(name, side):
    c = bundled_carrier(name)
    w, r = c.window_points(), c.window_radius
    y = np.array([3, -2][: c.dim])
    rng = np.random.default_rng(13)
    g = LatticeTableFn(c, rng.normal(size=w.shape[0]) + 1j * rng.normal(size=w.shape[0]))
    view = LeftTranslate(y, g) if side == "left" else RightTranslate(g, y)
    report = jensen_defect(view)
    # Brute force, one window point x at a time: the pairs (x, v) whose three
    # reads y + x + v, y + x - v and y + x all lie in the table's box.
    best, scanned = -1.0, 0
    for x in w:
        reads = [y + x + w, y + x - w, np.broadcast_to(y + x, w.shape)]
        keep = np.logical_and.reduce([(np.abs(a) <= r).all(axis=1) for a in reads])
        if keep.any():
            v = [g.eval_many(a[keep]) for a in reads]
            best = max(best, float(np.abs(v[0] + v[1] - 2 * v[2]).max()))
        scanned += int(keep.sum())
    assert 0 < scanned < report.domain_size
    assert report.scanned_pairs == scanned
    assert report.delta == best
    # A translate of the exact dyadic solution of an affine f is exact again:
    # its inequality chain scans, and holds, where its reads stay in the box.
    exact = jensen_approximant(OracleFn(c, [2.0, -1.0][: c.dim], 1.0), "dyadic").g
    view = LeftTranslate(y, exact) if side == "left" else RightTranslate(exact, y)
    records = inequality_suite(view)
    assert all(rec.status == "evaluated" and rec.holds for rec in records[:-1])


@pytest.mark.parametrize("name", ["int1", "int2"])
def test_a_masked_pair_scan_names_its_first_witnessing_pair(name):
    c = bundled_carrier(name)
    t, r = c.window_terms(), c.window_radius
    rng = np.random.default_rng(3)
    g, h = (LatticeTableFn(c, rng.normal(size=t.w.shape[0]) + 1j * rng.normal(size=t.w.shape[0])) for _ in range(2))
    report = jensen_defect(g)
    # Brute force over the pairs in window order whose three reads stay in the box.
    keep = np.logical_and.reduce([(np.abs(a) <= r).all(axis=1) for a in (t.xy, t.x_sy, t.x)])
    vals = np.abs(g.eval_many(t.xy[keep]) + g.eval_many(t.x_sy[keep]) - 2 * g.eval_many(t.x[keep]))
    i = np.flatnonzero(keep)[np.argmax(vals)]
    assert report.delta == vals.max()
    assert report.witness == (c.element_repr(t.x[i]), c.element_repr(t.y[i]))
    assert report.scanned_pairs == keep.sum()
    # The stacked scan gives each table the report it gets alone, and one table is its one row.
    assert defect.jensen_defects([g, h]) == [report, jensen_defect(h)]
    assert defect.jensen_defects([g]) == [report]


def test_stacked_rows_scan_only_the_pairs_every_row_can_read():
    c = _ShearLattice(2, 3, 6)
    rng = np.random.default_rng(5)
    g = LatticeTableFn(c, rng.normal(size=49) + 1j * rng.normal(size=49))
    even = EvenPart(g)
    alone = jensen_defect(even)
    assert alone.scanned_pairs < jensen_defect(g).scanned_pairs  # the view reads less of the box
    stacked = defect.jensen_defects([even, g])
    assert stacked[0] == alone
    assert stacked[1].scanned_pairs == alone.scanned_pairs


def test_identity_checks_skip_window_points_whose_involutes_leave_the_box():
    c = _ShearLattice(2, 3, 6)
    rng = np.random.default_rng(12)
    g = LatticeTableFn(c, rng.normal(size=49) + 1j * rng.normal(size=49))
    records = {r.name: r for r in identity_checks([g], np.stack([g.eval_many(c.window_points())]), [0.0], n_list=(1,))[0]}
    # Brute force: g_even(x) for the window points x whose involute stays in
    # the box, and g(x sigma(x)) for those whose product does.
    g_e = g.eval((0, 0))
    even, prods = [], []
    for x in c.window_points().tolist():
        sx = c.involute(x)
        if max(map(abs, sx)) <= 3:
            even.append(abs((g.eval(x) + g.eval(sx)) / 2 - g_e))
        prod = c.compose(x, sx)
        if max(map(abs, prod)) <= 3:
            prods.append(abs(g.eval(prod) - g_e))
    assert 0 < len(even) < 49
    assert records["even_part_constant"].points_checked == len(even)
    assert abs(records["even_part_constant"].measured_sup - max(even)) <= 1e-12
    assert records["sigma_product"].points_checked == len(prods)
    assert abs(records["sigma_product"].measured_sup - max(prods)) <= 1e-12


@pytest.mark.parametrize("name", ["int1", "shear"])
def test_repeated_table_scans_reuse_the_held_positions(monkeypatch, name):
    c = bundled_carrier("int1") if name == "int1" else _ShearLattice(2, 3, 6)
    size = c.window_points().shape[0]
    g = LatticeTableFn(c, np.arange(size) * (1 - 0.5j))
    first = jensen_defect(g)
    assert first.scanned_pairs < first.domain_size  # the mask applies
    first_even = jensen_defect(EvenPart(g))
    calls = []
    flat = LatticeCarrier._flat

    def counted(pts, r):
        calls.append(pts.shape)
        return flat(pts, r)

    monkeypatch.setattr(LatticeCarrier, "_flat", staticmethod(counted))
    for _ in range(3):
        assert jensen_defect(g).delta == first.delta
        assert jensen_defect(EvenPart(g)) == first_even
    assert calls == []


def test_scans_mask_their_table_domain_and_not_the_pair_terms(monkeypatch):
    # Each scan learns which positions it can read from the mask of the table
    # domain it evaluates, never from its full pair terms (83,521 rows here).
    # One tabulation asks for one domain: the Jensen scan's, then the suite's,
    # which holds its five function tuples.
    c = bundled_carrier("int2")
    f = OracleFn(c, [0.5, -0.25j], 1.0, SeededUniformNoise(0.1, 4))
    domains, masked = [0], []
    table_domain, table_rows = LatticeCarrier.table_domain, defect._table_rows

    def recorded_domain(self, arrays):
        got = table_domain(self, arrays)
        domains.append(got[0].shape[0])
        return got

    def recorded_rows(fns, pts):
        masked.append((pts.shape[0], domains[-1]))
        return table_rows(fns, pts)

    monkeypatch.setattr(LatticeCarrier, "table_domain", recorded_domain)
    monkeypatch.setattr(defect, "_table_rows", recorded_rows)
    inequality_suite(f, delta=jensen_defect(f).delta)
    assert (len(domains) - 1, len(masked)) == (2, 6)
    assert all(n <= domain for n, domain in masked)


def test_window_monotonicity():
    eps = 0.2
    f_small = OracleFn(LatticeCarrier(1, 32, 64), [2.0], 5.0, SeededUniformNoise(eps, 7))
    f_big = OracleFn(LatticeCarrier(1, 64, 128), [2.0], 5.0, SeededUniformNoise(eps, 7))
    d_small = jensen_defect(f_small).delta
    d_big = jensen_defect(f_big).delta
    assert d_small <= d_big + 1e-9


def test_suite_on_exact_solution_is_flat():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [2.0], 5.0)
    records = inequality_suite(f)
    for r in records:
        if r.status == "not_evaluated":
            continue
        assert r.measured_sup <= 1e-9, r.name
        assert r.holds


def test_suite_z2_eq_2_12_is_half_delta():
    z2 = bundled_carrier("z2")
    f = FiniteTableFn(z2, [0.0, 1.0])
    records = {r.name: r for r in inequality_suite(f)}
    assert records["eq_2_12"].delta == 2.0
    assert records["eq_2_12"].measured_sup == 1.0  # |f(a) - f(e)| with sigma = id
    assert records["eq_2_12"].holds
    assert records["eq_2_9"].measured_sup == 1.0


def test_suite_parity_bounds():
    z1 = bundled_carrier("int1")
    f = OracleFn(z1, [1.0], 0.0, ParityNoise(0.1))
    records = {r.name: r for r in inequality_suite(f)}
    delta = records["eq_2_9"].delta
    assert abs(delta - 0.4) < 1e-12
    # f_odd is exactly linear for parity noise, so eq 2.16 is flat
    assert records["eq_2_16"].measured_sup <= 2.0
    assert records["eq_2_16"].measured_sup <= 5 * delta
    # the even fluctuation is the noise itself
    assert abs(records["eq_2_12"].measured_sup - 0.2) < 1e-12
    for r in records.values():
        assert r.holds, r.name


def test_suite_evaluates_phi_record():
    s3 = bundled_carrier("s3")
    vals = [3 + 2j] * 6
    f = FiniteTableFn(s3, np.array(vals) + np.array([0.05, -0.02, 0.01, 0.0, -0.04, 0.03]))
    records_no_phi = {r.name: r for r in inequality_suite(f)}
    assert records_no_phi["eq_2_21"].status == "not_evaluated"
    assert records_no_phi["eq_2_21"].measured_sup is None

    records = {r.name: r for r in inequality_suite(f, phi=phi_mean_construction(f))}
    assert records["eq_2_21"].status == "evaluated"
    assert records["eq_2_21"].holds


def test_suite_holds_for_seeded_runs():
    z1 = bundled_carrier("int1")
    for seed in (0, 1, 2):
        f = OracleFn(z1, [2.0], 5.0, SeededUniformNoise(0.1, seed))
        for r in inequality_suite(f):
            assert r.holds, (seed, r.name, r.measured_sup, r.bound)
