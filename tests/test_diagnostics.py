import math

import numpy as np
import pytest

from bepower import (
    DesignSpec,
    SCENARIOS,
    scan_intersections,
    scan_se_peak,
    scenario_design,
    scenario_summary,
    smallest_crossing,
)
from scipy.optimize import brentq

from bepower.curve import _g
from bepower.diagnostics import SCENARIO_COMBOS, _integer_grid
from bepower.qrng import sobol_stream
from bepower.special import inv_norm

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


class TestScanSePeak:
    def test_fixture_peaks_at_four(self, motivating):
        assert scan_se_peak(FIXTURE_U, motivating, 100).argmax_n == 4

    def test_upper_tail_variances_peak_at_start(self, motivating):
        assert scan_se_peak((0.9, 0.9, 0.5), motivating, 100).argmax_n == 2


class TestIntegerGrid:
    def test_plain_grid(self, motivating):
        n1, n2 = _integer_grid(motivating, 6)
        assert n1.tolist() == [2, 3, 4, 5, 6]
        assert n2.tolist() == [2, 3, 4, 5, 6]

    def test_fractional_q_rounds_half_even(self):
        spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=0.25)
        n1, n2 = _integer_grid(spec, 14)
        assert n1[0] == 6  # first n1 with round(q n1) >= 2
        pairs = dict(zip(n1.tolist(), n2.tolist()))
        assert pairs[10] == 2  # 2.5 rounds to even 2
        assert pairs[14] == 4  # 3.5 rounds to even 4

    def test_small_q_start_shifts(self):
        spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=0.6)
        n1, _ = _integer_grid(spec, 10)
        assert n1[0] == 3
        with pytest.raises(ValueError, match="no feasible integer grid"):
            scan_intersections((0.5, 0.5, 0.5), spec, 2)


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
            rep = scan_intersections(pts[i], motivating, 40, point_index=i)
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
