import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bepower import (
    DesignSpec,
    SCENARIOS,
    power_curve,
    scan_intersections,
    scan_se_peak,
    scenario_design,
    scenario_summary,
    smallest_crossing,
)
from scipy.optimize import brentq

from bepower import diagnostics, tost
from bepower.curve import _g
from bepower.diagnostics import (SCENARIO_COMBOS, _block_bounds, _grid_scan,
                                 _integer_grid)
from bepower.qrng import CLAMP_HIGH, CLAMP_LOW, sobol_stream
from bepower.special import inv_norm, t_quantile
from bepower.tost import (_K, _KNOTS, _g_in, _knot_index, _knot_table,
                          _mapped, _screen, _t_band, _threshold, _trial)

FIXTURE_U = (0.184, 0.231, 0.449)


class TestScanIntersections:
    def test_multi_crossing_fixture(self, motivating):
        # this point is inside the rejection region at the grid start,
        # leaves it, and re-enters: three crossings, the middle two
        # frozen from high-precision root finding
        r = scan_intersections(FIXTURE_U, motivating, 100)
        assert len(r.crossings) == 3
        assert r.crossings[0] == 2.0
        assert r.crossings[1] == pytest.approx(2.20383372399273, abs=1e-5)
        assert r.crossings[2] == pytest.approx(3.492117957622574, abs=1e-5)
        assert r.departure_n == 3
        assert r.duration == 1
        interior = [c for c in r.crossings if 2.0 < c < 4.0]
        assert len(interior) == 2

    def test_leaving_root_is_brents(self, motivating):
        # the root where the point leaves the region is Brent's, as
        # scipy's brentq computes it on the same bracket
        z3 = inv_norm(FIXTURE_U[2])

        def g(n):
            return float(_g(FIXTURE_U[0], FIXTURE_U[1], z3, motivating, n))

        r = scan_intersections(FIXTURE_U, motivating, 100)
        assert r.crossings[1] == brentq(g, 2.0, 3.0, xtol=1e-6)

    def test_departure_without_reentry_in_grid(self, motivating):
        # truncating the grid before the re-entry keeps the departure
        # but leaves the duration unknown
        r = scan_intersections(FIXTURE_U, motivating, 3)
        assert r.departure_n == 3
        assert r.duration is None

    def test_always_rejecting_point(self, motivating):
        r = scan_intersections((1e-8, 1e-8, 0.5), motivating, 50)
        assert r.crossings == (2.0,)
        assert r.departure_n is None and r.duration is None

    def test_single_entry_point(self, motivating):
        r = scan_intersections((0.5, 0.5, 0.5), motivating, 100)
        assert len(r.crossings) == 1
        assert 4.0 < r.crossings[0] < 100.0
        assert r.departure_n is None and r.duration is None

    def test_first_crossing_matches_curve_solver(self, motivating):
        # on single-crossing points the scan's first element and the
        # curve solver locate the same root; brackets coincide below 4,
        # so there the match is exact to the bit
        pts = sobol_stream(3, 256, seed=33).points
        n_small = 0
        for i in range(256):
            r = scan_intersections(pts[i], motivating, 120)
            if len(r.crossings) != 1:
                continue
            cp = smallest_crossing(pts[i], motivating)
            if r.crossings[0] < 4.0:
                assert r.crossings[0] == cp.crossing_n
                n_small += 1
            elif math.isfinite(cp.crossing_n):
                assert abs(r.crossings[0] - cp.crossing_n) <= 1e-5
        assert n_small >= 1  # the exact branch was exercised

    def test_departure_iff_multiple_crossings(self, motivating):
        pts = sobol_stream(3, 128, seed=34).points
        for i in range(128):
            r = scan_intersections(pts[i], motivating, 100)
            assert (r.departure_n is not None) == (len(r.crossings) >= 2)
            if r.duration is not None:
                assert r.departure_n is not None
                assert r.duration >= 1

    def test_spec_validation(self, motivating):
        off_center = DesignSpec(25.0, 18.0, 15.0, -19.2, 19.2)
        with pytest.raises(ValueError, match="strictly between"):
            scan_intersections((0.5, 0.5, 0.5), off_center, 50)
        for n_max in (10.5, math.nan, True):
            with pytest.raises(ValueError, match="n_max must be"):
                scan_intersections((0.5, 0.5, 0.5), motivating, n_max)
            with pytest.raises(ValueError, match="n_max must be"):
                scan_se_peak((0.5, 0.5, 0.5), motivating, n_max)
        # NaN raised "df must be positive", inf reported the grid ends as
        # crossings, and -1 passed
        for tol in (math.nan, math.inf, -1.0, 0.0):
            with pytest.raises(ValueError,
                               match="tol must be positive and finite"):
                scan_intersections(FIXTURE_U, motivating, 100, tol=tol)


class TestAlphaHalfScan:
    def test_crossings_are_where_d_bar_meets_a_limit(self):
        # at alpha = 0.5 a point rejects exactly where margin > 0, so each
        # crossing is within the root tolerance of a sign change of margin
        spec = DesignSpec(-14.0, 18.0, 15.0, -19.2, 19.2, alpha=0.5)
        pts = sobol_stream(3, 64, seed=8).points
        located = 0
        for u in pts:
            for c in scan_intersections(u, spec, 60).crossings:
                if c == 2.0:
                    continue
                n = np.array([c - 2e-6, c + 2e-6])
                margin = _mapped(u[0], u[1], inv_norm(u[2]), spec, n, n)[1]
                assert (margin[0] > 0.0) != (margin[1] > 0.0)
                located += 1
        assert located >= 8


class TestScanSePeak:
    def test_fixture_peaks_at_four(self, motivating):
        assert scan_se_peak(FIXTURE_U, motivating, 100).argmax_n == 4

    def test_upper_tail_variances_peak_at_start(self, motivating):
        assert scan_se_peak((0.9, 0.9, 0.5), motivating, 100).argmax_n == 2


def full_grid_matrices(points, spec, n1_grid, n2_grid):
    """In-rejection flags g <= 0 and se over points x grid, with every
    cell evaluated on its own, as the scans did before the block screen:
    the column's t band decides a cell where it can, else the cell's own
    t quantile."""
    se, margin, nu = _mapped(points[:, 0][:, None], points[:, 1][:, None],
                             inv_norm(points[:, 2])[:, None], spec,
                             n1_grid[None, :].astype(float),
                             n2_grid[None, :].astype(float))
    in_rej, open_ = _screen(_g_in, (se, se), (margin, margin),
                            _t_band(spec.alpha,
                                    np.minimum(n1_grid, n2_grid) - 1.0,
                                    n1_grid + n2_grid - 2.0))
    amb = np.nonzero(open_)
    in_rej[amb] = _g_in(se[amb], margin[amb],
                        t_quantile(1.0 - spec.alpha, nu[amb]))
    return in_rej, se


def assert_scan_matches_full_grid(points, spec, n_max):
    grid = _integer_grid(spec, n_max)
    in_rej, peak = _grid_scan(points, spec, grid)
    ref_in, ref_se = full_grid_matrices(points, spec, *grid[:2])
    np.testing.assert_array_equal(in_rej, ref_in)
    np.testing.assert_array_equal(peak, np.argmax(ref_se, axis=1))


GRID_DESIGNS = {
    # the scan scenarios the benchmark times, and alpha = 0.5
    **{name: SCENARIOS[name] for name in ("s1_mu0", "s5_mu12", "s2_mu16")},
    "alpha_half": (DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, alpha=0.5), 200),
}


class TestGridMatrices:
    @pytest.mark.parametrize("name", sorted(GRID_DESIGNS))
    def test_in_rejection_is_sign_of_g(self, name):
        # the band screen decides each cell as g = se - Lambda <= 0 does,
        # with Lambda from the per-cell t quantile
        spec, n_max = GRID_DESIGNS[name]
        n1, n2 = _integer_grid(spec, n_max)[:2]
        screened = 0
        for seed in (5, 6):
            pts = sobol_stream(3, 128, seed).points
            in_rej, se = full_grid_matrices(pts, spec, n1, n2)
            ref_se, margin, nu = _mapped(
                pts[:, 0][:, None], pts[:, 1][:, None],
                inv_norm(pts[:, 2])[:, None], spec, n1[None, :].astype(float),
                n2[None, :].astype(float))
            g = ref_se - _threshold(margin, t_quantile(1 - spec.alpha, nu))
            np.testing.assert_array_equal(in_rej, g <= 0.0)
            np.testing.assert_array_equal(se, ref_se)
            lo, hi = _t_band(spec.alpha, np.minimum(n1, n2) - 1.0,
                             n1 + n2 - 2.0)
            if spec.alpha < 0.5:
                # cells the band leaves to their own quantile
                screened += np.count_nonzero((margin > 0.0) & (se > margin / hi)
                                             & (se <= margin / lo))
        assert spec.alpha == 0.5 or screened > 0


def end_dfs(spec, n_max):
    """The distinct chi-square df at the block ends of a scan's grid."""
    n1, n2, first, last = _integer_grid(spec, n_max)[:4]
    ends = np.append(first, last[-1])
    return set((n1[ends] - 1.0).tolist()) | set((n2[ends] - 1.0).tolist())


def knot_table_calls(monkeypatch):
    """The dfs of each `inv_chisq` call that builds knot tables from here
    on, one list per call."""
    calls = []
    inv_chisq = tost.inv_chisq

    def recording(p, df):
        if p is _KNOTS:
            calls.append(np.ravel(df).tolist())
        return inv_chisq(p, df)

    monkeypatch.setattr(tost, "inv_chisq", recording)
    return calls


class TestGridScan:
    def test_block_ends(self):
        # one column wide while n1 < 128 (floor(n1 / 64) < 2), then
        # floor(n1 / 64) wide; a block ends one cell before the next
        # begins, the last block at the grid's end, and a one-cell grid
        # is the block [0, 0]
        spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2)
        n1, _, first, last = _integer_grid(spec, 200)[:4]
        assert n1[first].tolist() == [
            *range(2, 129), *range(130, 193, 2), 195, 198]
        assert n1[last].tolist() == [
            *range(2, 128), *range(129, 192, 2), 194, 197, 200]
        _, _, first, last = _integer_grid(spec, 2)[:4]
        assert (first.tolist(), last.tolist()) == ([0], [0])

    @pytest.mark.parametrize("spec,n_max", [
        SCENARIOS["s2_mu16"], (SCENARIOS["s6_mu12"][0], 2500),
        (SCENARIOS["s7_mu8"][0], 2500),
        (DesignSpec(-4.0, 3.0, 30.0, -19.2, 19.2, q=0.3), 2500),
        (DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, alpha=0.5), 2500)],
        ids=["s2_mu16", "s6_mu12", "s7_mu8", "q_0.3", "alpha_half"])
    def test_block_bounds_hold_at_every_interior_cell(self, spec, n_max):
        # the knot-table bounds of each block hold at every cell of the
        # block, both ends included; the grids are long enough that
        # most cells are block interiors at n1 / 64
        pts = sobol_stream(3, 64, 3).points.copy()
        pts[:2, :2] = [[CLAMP_LOW, CLAMP_HIGH], [CLAMP_HIGH, CLAMP_LOW]]
        u1, u2, z3 = pts[:, 0], pts[:, 1], inv_norm(pts[:, 2])
        grid = _integer_grid(spec, n_max)
        n1, n2, first, last = grid[:4]
        bounds = _block_bounds(_knot_index(u1), _knot_index(u2), z3, spec,
                               grid)
        se, margin, nu = _mapped(u1[:, None], u2[:, None], z3[:, None], spec,
                                 n1, n2)
        values = se, margin, t_quantile(1.0 - spec.alpha, nu)
        interior = 0
        for k, (a, b) in enumerate(zip(first, last)):
            for (lo, hi), v in zip(bounds, values):
                cells = v[:, a:b + 1]
                lo, hi = lo[..., k, None], hi[..., k, None]
                assert np.all((lo <= cells) & (cells <= hi)), (k, a, b)
            interior += b - a - 1
        assert interior > 0.6 * len(n1)

    @pytest.mark.parametrize("spec,n_max,wide", [
        (*SCENARIOS["s2_mu16"], True), (*SCENARIOS["s6_mu12"], True),
        (*SCENARIOS["s7_mu8"], False),
        (DesignSpec(-4.0, 3.0, 30.0, -19.2, 19.2, q=0.3), 600, True),
        (DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, alpha=0.5), 300, False)],
        ids=["s2_mu16", "s6_mu12", "s7_mu8", "q_0.3", "alpha_half"])
    def test_first_exact_call_cuts_each_pair_at_its_stride(self, spec, n_max,
                                                           wide, monkeypatch):
        # the one exact call takes, pair by pair in row-major order,
        # every cell of each open (point, block) pair and of each pair
        # whose se_hi reaches the point's largest se_lo, and no other
        # cell: every pair's stride is 1
        pts = sobol_stream(3, 64, 3).points.copy()
        pts[:2, :2] = [[CLAMP_LOW, CLAMP_HIGH], [CLAMP_HIGH, CLAMP_LOW]]
        row = {u: p for p, u in enumerate(pts[:, 0])}
        assert len(row) == len(pts)
        grid = _integer_grid(spec, n_max)
        n1, _, first, last = grid[:4]
        calls = []
        exact_in = diagnostics._exact_in

        def recording(in_region, u1, u2, z3, spec, n1_cells, *args):
            calls.append(([row[u] for u in u1.tolist()],
                          np.searchsorted(n1, n1_cells).tolist()))
            return exact_in(in_region, u1, u2, z3, spec, n1_cells, *args)

        monkeypatch.setattr(diagnostics, "_exact_in", recording)
        _grid_scan(pts, spec, grid)
        width = last - first + 1
        bounds = _block_bounds(_knot_index(pts[:, 0]), _knot_index(pts[:, 1]),
                               inv_norm(pts[:, 2]), spec, grid)
        open_ = _screen(_g_in, *bounds)[1]
        se_lo, se_hi = bounds[0]
        peak = se_hi >= se_lo.max(axis=1, keepdims=True)
        expected = [], []
        for p, k in zip(*np.nonzero(peak | open_)):
            cells = list(range(first[k], last[k] + 1))
            expected[0].extend([p] * len(cells))
            expected[1].extend(cells)
        assert calls == [expected]
        # open pairs that cannot hold the se peak, of three cells or
        # more, where a stride above 1 would skip a cell; on the two
        # grids without them every exact pair is a one-cell block
        assert np.any(open_ & ~peak & (width >= 3)) == wide
        assert np.all(width[np.nonzero(peak | open_)[1]] == 1) != wide

    def test_chi_square_elements_of_the_longest_scan(self, monkeypatch):
        # the benchmark's s2_mu16 summary (m = 128, seed 7) with warm knot
        # tables made 17,608 chi-square elements when every open block
        # was evaluated cell by cell
        spec, n_max = SCENARIOS["s2_mu16"]
        ref = scenario_summary(spec, n_max, m=128, reps=1, seed=7)
        elements = [0]
        inv_chisq = tost.inv_chisq

        def counting(p, df):
            x = inv_chisq(p, df)
            elements[0] += np.size(x)
            return x

        monkeypatch.setattr(tost, "inv_chisq", counting)
        assert repr(scenario_summary(spec, n_max, m=128, reps=1,
                                     seed=7)) == repr(ref)
        assert 0 < elements[0] <= 8000

    @pytest.mark.parametrize("n_max", [2, 3])
    def test_one_and_two_cell_grids(self, motivating, n_max):
        # a one-cell grid is one block [0, 0]; two cells make one block
        assert len(_integer_grid(motivating, n_max)[0]) == n_max - 1
        assert_scan_matches_full_grid(sobol_stream(3, 64, 9).points,
                                      motivating, n_max)

    def test_degenerate_sample_still_raises(self, motivating):
        # both variances are zero at n = 2: every se_lo is 0, so every
        # block can hold the se argmax and takes the exact path
        for scan in (scan_intersections, scan_se_peak):
            with pytest.raises(ValueError, match="degenerate sample"):
                scan((1e-300, 1e-300, 0.5), motivating, 100)

    def test_one_table_per_end_df(self, monkeypatch):
        # one summary builds each knot table of its block ends once; the
        # presets' grids, and q = 1.5 at n_max = 1e5, fit the cache
        capacity = _knot_table.cache_info().maxsize
        assert max(len(end_dfs(*p)) for p in SCENARIOS.values()) <= capacity
        spec = SCENARIOS["s7_mu16"][0]
        calls = knot_table_calls(monkeypatch)
        for n_max, m in ((2500, 128), (10 ** 5, 4)):
            dfs = end_dfs(spec, n_max)
            _knot_table.cache_clear()
            diagnostics._cached_grid.cache_clear()
            calls.clear()
            scenario_summary(spec, n_max, m=m, reps=1, seed=1)
            assert sorted(sum(calls, [])) == sorted(dfs)
            assert len(dfs) <= capacity
        assert len(dfs) > capacity // 2

    def test_warm_grids_build_no_knot_table(self, monkeypatch):
        # a second scan of a grid computes no knot quantile, and s5_mu12
        # after s2_mu16 (q = 1 both) only the table of its last cell,
        # which is no block end of the longer grid; each grid, with its
        # blocks, block t band and table matrix, is computed once
        longer = end_dfs(*SCENARIOS["s2_mu16"])
        assert end_dfs(*SCENARIOS["s5_mu12"]) - longer == {499.0}
        pts = sobol_stream(3, 128, 7).points
        _knot_table.cache_clear()
        diagnostics._cached_grid.cache_clear()
        calls = knot_table_calls(monkeypatch)

        def scan(name):
            spec, n_max = SCENARIOS[name]
            _grid_scan(pts, spec, _integer_grid(spec, n_max))

        scan("s2_mu16")
        assert sorted(sum(calls, [])) == sorted(longer)
        calls.clear()
        for name in ("s2_mu16", "s5_mu12", "s5_mu12"):
            scan(name)
        assert calls == [[499.0]]
        info = diagnostics._cached_grid.cache_info()
        assert (info.misses, info.hits) == (2, 2)

    def test_one_cached_grid_per_alpha_q_n_max(self):
        # s1_mu0 and s1_mu4 differ in mu_diff alone, so every scan of
        # either reads one cached, read-only grid, whose matrix holds
        # the knot table of each distinct block-end df once
        (a, n_max), (b, n_max_b) = SCENARIOS["s1_mu0"], SCENARIOS["s1_mu4"]
        assert (a.alpha, a.q, n_max) == (b.alpha, b.q, n_max_b)
        assert a.mu_diff != b.mu_diff
        diagnostics._cached_grid.cache_clear()
        grid = _integer_grid(a, n_max)
        scan_se_peak(FIXTURE_U, b, n_max)
        scan_intersections(FIXTURE_U, a, n_max)
        scenario_summary(b, n_max, m=16, reps=1, seed=1)
        info = diagnostics._cached_grid.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
        assert _integer_grid(b, n_max) is grid
        n1, n2, first, last, (x, lo, hi), t = grid
        assert n1.dtype == n2.dtype == np.float64
        for arr in (n1, n2, first, last, x, lo, hi, *t):
            assert not arr.flags.writeable
        dfs = sorted(end_dfs(a, n_max))
        assert x.shape == (_K + 1, len(dfs))
        np.testing.assert_array_equal(
            x, np.stack([_knot_table(d) for d in dfs], axis=1))
        top = np.where(last == first, first, np.append(first[1:], last[-1]))
        for cols, c in ((lo, first), (hi, top)):
            assert cols.shape == (2, len(first))
            np.testing.assert_array_equal(np.take(dfs, cols),
                                          np.stack([n1[c], n2[c]]) - 1.0)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_matches_full_grid_on_scenario_bank(self, name):
        spec, n_max = SCENARIOS[name]
        for seed in (7, 2024):
            assert_scan_matches_full_grid(sobol_stream(3, 128, seed).points,
                                          spec, n_max)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(mu=st.floats(-25.0, 25.0), sigma1=st.floats(0.5, 40.0),
           sigma2=st.floats(0.5, 40.0), half=st.floats(1.0, 30.0),
           q=st.floats(0.1, 4.0),
           alpha=st.one_of(st.just(0.5), st.floats(1e-3, 0.5)),
           n_max=st.integers(30, 700), seed=st.integers(0, 2**32 - 1))
    def test_property_matches_full_grid(self, mu, sigma1, sigma2, half, q,
                                        alpha, n_max, seed):
        spec = DesignSpec(mu, sigma1, sigma2, -half, half, alpha=alpha, q=q)
        pts = sobol_stream(3, 48, seed).points.copy()
        # rows at the clamp ends, where the quantiles are most extreme
        pts[:4, :2] = [[CLAMP_LOW, CLAMP_LOW], [CLAMP_LOW, CLAMP_HIGH],
                       [CLAMP_HIGH, CLAMP_LOW], [CLAMP_HIGH, CLAMP_HIGH]]
        assert_scan_matches_full_grid(pts, spec, n_max)

    @pytest.mark.parametrize("n", [129, 193])
    def test_se_equal_to_lambda_is_inside(self, motivating, n):
        # a design whose lower limit puts one point exactly on g = 0 at a
        # block interior cell: se == Lambda counts as in-rejection in the
        # block scan, the full grid and the crossings alike
        n1_grid, _, first, last = _integer_grid(motivating, 240)[:4]
        assert n not in n1_grid[np.append(first, last[-1])]
        rng = np.random.Generator(np.random.PCG64(n))
        for _ in range(400):
            u = np.array([*rng.uniform(0.05, 0.95, 2), rng.uniform(0.2, 0.5)])
            z3 = inv_norm(u[2])
            d_bar, _, _, se, nu = _trial(u[0], u[1], z3, motivating,
                                         float(n), float(n))
            t = t_quantile(1.0 - motivating.alpha, nu)
            spec = DesignSpec(motivating.mu_diff, motivating.sigma1,
                              motivating.sigma2, d_bar - se * t, 40.0)
            g = _g(u[0], u[1], z3, spec, np.arange(2.0, n + 1.0))
            # on g = 0 at n, outside at every smaller n of the grid
            if g[-1] == 0.0 and np.all(g[:-1] > 0.0):
                break
        else:
            pytest.fail("no point on g = 0 found")
        pts = u[np.newaxis, :]
        grid = _integer_grid(spec, 240)
        assert _grid_scan(pts, spec, grid)[0][0, n - 2]
        assert full_grid_matrices(pts, spec, *grid[:2])[0][0, n - 2]
        # the point enters the region at n, so its first crossing is at
        # most n (the entry locator of the curve solver), not past it
        r = scan_intersections(u, spec, 240)
        assert n - 1 < r.crossings[0] <= n

    def test_se_ties_go_to_the_smallest_n(self, monkeypatch):
        # with every exact cell's se equal, the peak is each row's first
        # exact cell, as the argmax of a dense se matrix gives
        spec, n_max = SCENARIOS["s5_mu12"]
        grid = _integer_grid(spec, n_max)
        n1 = grid[0]
        pts = sobol_stream(3, 128, 3).points.copy()
        pts[:, :2] *= 0.02  # lower-tail variances: exact cells past the start
        calls = []
        exact_in = diagnostics._exact_in

        def tied(in_region, u1, u2, z3, spec, a, b, band):
            calls.append((u1, a))
            flags, se = exact_in(in_region, u1, u2, z3, spec, a, b, band)
            return flags, np.ones_like(se)

        monkeypatch.setattr(diagnostics, "_exact_in", tied)
        peak = _grid_scan(pts, spec, grid)[1]
        u1, a = (np.concatenate(c) for c in zip(*calls))
        order = np.argsort(pts[:, 0])
        dense = np.full((len(pts), len(n1)), -np.inf)
        dense[order[np.searchsorted(pts[order, 0], u1)],
              np.searchsorted(n1, a)] = 1.0
        np.testing.assert_array_equal(peak, np.argmax(dense, axis=1))
        assert np.count_nonzero(peak) > 10


class TestIntegerGrid:
    def test_plain_grid(self, motivating):
        n1, n2 = _integer_grid(motivating, 6)[:2]
        assert n1.tolist() == [2, 3, 4, 5, 6]
        assert n2.tolist() == [2, 3, 4, 5, 6]

    def test_fractional_q_rounds_half_even(self):
        spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=0.25)
        n1, n2 = _integer_grid(spec, 14)[:2]
        assert n1[0] == 6  # first n1 with round(q n1) >= 2
        pairs = dict(zip(n1.tolist(), n2.tolist()))
        assert pairs[10] == 2  # 2.5 rounds to even 2
        assert pairs[14] == 4  # 3.5 rounds to even 4

    def test_small_q_start_shifts(self):
        spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=0.6)
        n1 = _integer_grid(spec, 10)[0]
        assert n1[0] == 3
        with pytest.raises(ValueError, match="no feasible integer grid"):
            scan_intersections((0.5, 0.5, 0.5), spec, 2)

    @pytest.mark.parametrize("q", [0.1, 0.3, 1.0 / 1.5, 0.75, 1e-3])
    def test_start_is_first_feasible_n(self, q):
        # the first n >= 2 with round(q n) >= 2, found by stepping up
        spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=q)
        start = 2
        while int(np.rint(q * start)) < 2:
            start += 1
        assert _integer_grid(spec, start + 5)[0][0] == start
        if start > 2:
            with pytest.raises(ValueError, match="no feasible integer grid"):
                _integer_grid(spec, start - 1)

    def test_tiny_q_raises_at_once(self):
        # stepping up one n at a time from 2 would never end here
        spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=1e-300)
        for scan in (scan_intersections, scan_se_peak):
            with pytest.raises(ValueError, match="no feasible integer grid"):
                scan((0.5, 0.5, 0.5), spec, 100)
        with pytest.raises(ValueError, match="no feasible integer grid"):
            scenario_summary(spec, 10 ** 15, m=16, reps=1, seed=1)

    def test_huge_q_keeps_float_sizes(self):
        # q n overflows int64; the group-2 sizes stay floats
        spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=1e20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n1, n2 = _integer_grid(spec, 40)[:2]
            assert n1[0] == 2 and n2[0] == 2e20
            scan_se_peak((0.5, 0.5, 0.5), spec, 40)
            scenario_summary(spec, 40, m=16, reps=1, seed=1)


    def test_q_times_n_max_overflow_raises(self):
        # n2 = rint(q * n1) would be inf; just below the float range it
        # is finite, and the scans run without a floating-point warning
        huge = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=1e308)
        message = r"q \* n_max = 1e\+308 \* 10 overflows the float range"
        for scan in (scan_intersections, scan_se_peak):
            with pytest.raises(ValueError, match=message):
                scan((0.5, 0.5, 0.5), huge, 10)
        with pytest.raises(ValueError, match=message):
            scenario_summary(huge, 10, m=16, reps=1, seed=1)
        spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=1.79e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(_integer_grid(spec, 10)[1][-1])
            scenario_summary(spec, 10, m=16, reps=1, seed=1)


class TestScenarioBank:
    def test_bank_has_all_combinations(self):
        assert len(SCENARIOS) == 35
        assert len(SCENARIO_COMBOS) == 7

    def test_preset_contents(self):
        spec, n_max = SCENARIOS["s2_mu4"]
        assert (spec.sigma1, spec.sigma2, spec.q) == (18.0, 15.0, 1.0)
        assert spec.mu_diff == -4.0
        assert (spec.delta_L, spec.delta_U) == (-19.2, 19.2)
        assert n_max == 100
        spec, n_max = SCENARIOS["s7_mu16"]
        assert (spec.sigma1, spec.sigma2, spec.q) == (19.5, 13.0, 1.5)
        assert spec.mu_diff == -16.0
        assert n_max == 2500
        assert SCENARIOS["s3_mu0"][0].q == pytest.approx(1.0 / 1.2)

    def test_grid_bound_grows_toward_limit(self):
        bounds = [scenario_design(1, mu)[1] for mu in (0.0, -4.0, -8.0,
                                                       -12.0, -16.0)]
        assert bounds == [100, 100, 200, 500, 2500]

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            scenario_design(1, -3.0)
        with pytest.raises(KeyError):
            scenario_design(8, 0.0)


class TestScenarioSummary:
    def test_summary_smoke(self):
        spec, _ = scenario_design(1, 0.0)
        r = scenario_summary(spec, 60, m=128, reps=2, seed=9)
        assert set(r) == {"prevalence", "mean_departure", "mean_duration",
                          "mean_argmax", "frac_argmax_gt5",
                          "frac_argmax_gt10", "m", "reps", "n_max"}
        assert 0.0 <= r["prevalence"] <= 1.0
        assert r["mean_argmax"] >= 2.0
        assert 0.0 <= r["frac_argmax_gt10"] <= r["frac_argmax_gt5"] <= 1.0
        assert (r["m"], r["reps"], r["n_max"]) == (128, 2, 60)
        # departure statistics exist exactly when a multi-crossing point
        # was seen
        assert math.isnan(r["mean_departure"]) == (r["prevalence"] == 0.0)

    def test_summary_counts_match_pointwise_scan(self, motivating):
        # the blocked matrix path must agree with scanning each point
        m, seed = 96, 15
        r = scenario_summary(motivating, 40, m=m, reps=1, seed=seed)
        child = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
        pts = sobol_stream(3, m, child).points
        multi = 0
        argmax = []
        for i in range(m):
            rep = scan_intersections(pts[i], motivating, 40)
            # two or more sign changes: more crossings than the synthetic
            # leading entry for starts-inside points
            k = len(rep.crossings) - (1 if rep.crossings
                                      and rep.crossings[0] == 2.0 else 0)
            multi += k >= 2
            argmax.append(scan_se_peak(pts[i], motivating, 40).argmax_n)
        assert r["prevalence"] == multi / m
        assert r["mean_argmax"] == pytest.approx(np.mean(argmax))

    def test_validation(self, motivating):
        with pytest.raises(ValueError, match="positive"):
            scenario_summary(motivating, 50, m=0, reps=1, seed=1)
        with pytest.raises(ValueError, match="positive"):
            scenario_summary(motivating, 50, m=16, reps=0, seed=1)
        with pytest.raises(ValueError, match="positive"):
            scenario_summary(motivating, 50, m=1.5, reps=1, seed=1)
        with pytest.raises(ValueError, match="positive"):
            scenario_summary(motivating, 50, m=16, reps=1.5, seed=1)
        with pytest.raises(ValueError, match="seed must be"):
            scenario_summary(motivating, 50, m=16, reps=1, seed=True)
        for n_max in (10.5, math.nan, True, 1, "50"):
            with pytest.raises(ValueError, match="n_max must be"):
                scenario_summary(motivating, n_max, m=16, reps=1, seed=1)


# q = 1 designs of the ECDF check, with grids that cover their curves
ECDF_DESIGNS = {
    "motivating": (DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2), 200),
    "mu16": (DesignSpec(-16.0, 18.0, 15.0, -19.2, 19.2), 2500),
    "alpha0.3": (DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, alpha=0.3), 200),
}


@pytest.mark.parametrize("name", sorted(ECDF_DESIGNS))
@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1))
def test_ecdf_matches_integer_scan_up_to_multi_crossing_points(name, seed):
    # at q = 1 the continuous curve meets the integer grid at every
    # integer n, and a point with one sign change on the grid counts
    # alike in both; only a point whose row changes sign more than once
    # can be counted by one and not the other, so the counts differ at
    # most by the number of those points
    spec, n_max = ECDF_DESIGNS[name]
    m = 256
    pc = power_curve(spec, 0.8, m, seed)
    grid = _integer_grid(spec, n_max)
    in_rej = _grid_scan(sobol_stream(3, m, seed).points, spec, grid)[0]
    multi = np.count_nonzero((in_rej[:, 1:] != in_rej[:, :-1]).sum(axis=1)
                             > 1)
    ecdf = np.array([m * pc.ecdf(n) for n in grid[0]])
    gap = np.abs(ecdf - in_rej.sum(axis=0))
    assert gap.max() <= multi, (grid[0][np.argmax(gap)], gap.max(), multi)
