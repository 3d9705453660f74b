import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bepower import (
    DesignSpec,
    SummaryStats,
    empirical_power,
    lambda_of_n,
    naive_power,
    power_curve,
    rejects,
    scan_intersections,
    scan_se_peak,
    scenario_summary,
    se_of_n,
    smallest_crossing,
    stats_from_point,
    welch_df,
)
from bepower import tost
from bepower.diagnostics import SCENARIOS, _integer_grid
from bepower.qrng import CLAMP_HIGH, CLAMP_LOW, sobol_stream
from bepower.special import inv_chisq, inv_norm, t_quantile
from bepower.tost import (_J, _K, _KNOTS, _SLACK, _cached_points,
                          _cell_t_band, _chisq_brackets, _decide, _g_in,
                          _knot_index, _knot_table, _mapped, _prepare_points,
                          _sample_se, _screen, _t_band, _t_table, _tost_in,
                          _unit, _unit_cube_points, _variance_brackets)

from oracles import decide_gather_first

TABLE1_GRID = (3, 5, 8, 10, 15, 20, 30, 40, 50, 60)


# a design, and for each field a Fraction, an np.float32 and an np.int64
# it accepts (no integer is a valid alpha)
BASE_FIELDS = dict(mu_diff=-4.1, sigma1=18.3, sigma2=15.1, delta_L=-19.2,
                   delta_U=19.2, alpha=0.05, q=1.5)
NON_FLOAT_FIELDS = [
    (name, value) for name, values in (
        ("mu_diff", (Fraction(-41, 10), np.float32(-4.1), np.int64(-4))),
        ("sigma1", (Fraction(18), np.float32(18.3), np.int64(18))),
        ("sigma2", (Fraction(151, 10), np.float32(15.1), np.int64(15))),
        ("delta_L", (Fraction(-96, 5), np.float32(-19.2), np.int64(-19))),
        ("delta_U", (Fraction(96, 5), np.float32(19.2), np.int64(19))),
        ("alpha", (Fraction(1, 20), np.float32(0.05))),
        ("q", (Fraction(3, 2), np.float32(1.5), np.int64(2))))
    for value in values]


def public_outputs(spec):
    """What every public entry point returns for spec, in a form that
    np.testing.assert_equal compares (NaN equal to NaN)."""
    u = (0.2, 0.3, 0.4)
    stats = stats_from_point(u, spec, 10, 15)
    curve = power_curve(spec, 0.8, 64, 3)
    return {
        "stats": stats,
        "rejects": rejects(stats, spec),
        "empirical": empirical_power(spec, 10, 15, 512, 3),
        "naive": naive_power(spec, 10, 15, 256, 3),
        "se": se_of_n(u, spec, 7.5),
        "lambda": lambda_of_n(u, spec, 7.5),
        "crossing": smallest_crossing(u, spec),
        "curve": dataclasses.asdict(curve),
        "intersections": scan_intersections(u, spec, 60),
        "peak": scan_se_peak((0.02, 0.03, 0.5), spec, 60),
        "summary": scenario_summary(spec, 40, 16, 1, 3),
        "scaled": spec.scaled(2.0),
        "shifted": spec.shifted(1.0),
    }


class TestDesignSpec:
    def test_defaults(self):
        s = DesignSpec(0.0, 1.0, 2.0, -1.0, 1.0)
        assert s.alpha == 0.05
        assert s.q == 1.0

    @pytest.mark.parametrize(
        "name, value", NON_FLOAT_FIELDS,
        ids=[f"{n}-{type(v).__name__}" for n, v in NON_FLOAT_FIELDS])
    def test_non_float_fields_compute_as_their_floats(self, name, value):
        # a field is stored as the float it rounds to, so every entry
        # point returns what the design built from float(value) returns
        spec = DesignSpec(**{**BASE_FIELDS, name: value})
        plain = DesignSpec(**{**BASE_FIELDS, name: float(value)})
        assert all(type(v) is float for v in vars(spec).values())
        assert spec == plain
        np.testing.assert_equal(public_outputs(spec), public_outputs(plain))

    @pytest.mark.parametrize("field,value,msg", [
        ("sigma1", -1.0, "sigma1 must be positive"),
        ("sigma2", 0.0, "sigma2 must be positive"),
        ("alpha", 0.6, r"alpha must lie in \(0, 0.5\]"),
        ("alpha", 0.0, r"alpha must lie in \(0, 0.5\]"),
        ("q", -0.5, "q must be positive"),
        ("mu_diff", np.inf, "mu_diff must be finite"),
        ("delta_L", -10 ** 400, "delta_L must be finite"),
        ("sigma2", 5e-324, r"sigma2 is lost in units of 2 \*\* 1, the scale "
                           r"of max\(sigma1, sigma2\)"),
        ("delta_L", -5e-324, r"delta_L is lost in units of 2 \*\* 1"),
        ("mu_diff", "0", "mu_diff must be a real number"),
        ("q", True, "q must be a real number"),
        ("alpha", np.bool_(True), "alpha must be a real number"),
        ("delta_U", 1.0 + 0j, "delta_U must be a real number"),
        ("sigma1", None, "sigma1 must be a real number"),
        ("alpha", 1e-300, r"alpha must exceed 2 \*\* -54"),
        ("alpha", 2.0 ** -54, r"alpha must exceed 2 \*\* -54"),
    ])
    def test_single_violation(self, field, value, msg):
        kw = dict(mu_diff=0.0, sigma1=1.0, sigma2=1.0,
                  delta_L=-1.0, delta_U=1.0)
        kw[field] = value
        with pytest.raises(ValueError, match=msg):
            DesignSpec(**kw)

    def test_both_variances_underflowing_named(self, motivating):
        # sigma ** 2 underflows in the design's units at sigma = 1e-160,
        # which was once named as an error; such a design now computes
        # in units of 2 ** e, as its unit twin does
        spec = DesignSpec(0.0, 1e-160, 1e-160, -1e-160, 1e-160)
        assert spec.sigma1 ** 2 < np.finfo(float).tiny
        twin = _unit(spec)[0]
        assert 0.5 <= twin.sigma1 < 1.0
        for n in (2, 10, 60):
            assert (empirical_power(spec, n, n, 4096, seed=1)
                    == empirical_power(twin, n, n, 4096, seed=1))
        tiny = motivating.scaled(1e-160 / 18.0)
        for n in (2, 10, 60):
            assert (empirical_power(tiny, n, n, 4096, seed=1)
                    == empirical_power(_unit(tiny)[0], n, n, 4096, seed=1))

    def test_unit_form_must_keep_every_field(self):
        # mu_diff and the limits must stay below 2 ** 1023 in units of
        # 2 ** e, so that no difference of two overflows, and every field
        # must divide exactly
        top = math.ldexp(1.0, 1023)
        DesignSpec(0.0, 0.5, 0.5, -1.0, math.nextafter(top, 0.0))
        DesignSpec(0.0, 2.0, 2.0, -1.0, top)
        with pytest.raises(ValueError, match=r"delta_U is lost in units of "
                                             r"2 \*\* 0"):
            DesignSpec(0.0, 0.5, 0.5, -1.0, top)
        with pytest.raises(ValueError) as exc:
            DesignSpec(-1e308, 1e-300, 1e-300, -1.7e308, 1.0)
        assert "mu_diff is lost" in str(exc.value)
        assert "delta_L is lost" in str(exc.value)
        assert "delta_U" not in str(exc.value)
        with pytest.raises(ValueError, match="sigma2 is lost"):
            DesignSpec(0.0, 1e308, 1e-308, -1.0, 1.0)
        # a subnormal limit that 2 ** e would round
        with pytest.raises(ValueError, match="delta_L is lost"):
            DesignSpec(0.0, 18.0, 15.0, -1e-310, 1.0)

    def test_numpy_and_integer_fields_accepted(self):
        spec = DesignSpec(np.float64(-4.0), 18, np.int64(15), -19.2, 19.2,
                          alpha=np.float32(0.05), q=1)
        assert 0.0 < empirical_power(spec, 10, 10, 256, seed=1) < 1.0

    def test_wide_but_representable_scales_estimate(self):
        for c in (1e50, 1e-50):
            spec = DesignSpec(-4.0 * c, 18.0 * c, 15.0 * c, -19.2 * c,
                              19.2 * c)
            assert 0.0 < empirical_power(spec, 10, 10, 1024, seed=1) < 1.0

    def test_largest_accepted_sigma_keeps_variances_finite(self, motivating):
        # sigma = 1e200 was rejected, since sigma ** 2 overflows; in units
        # of 2 ** e every variance is finite, and the design estimates
        # its unit twin's power
        spec = DesignSpec(0.0, 1e200, 1e200, -1e200, 1e200)
        twin = _unit(spec)[0]
        assert 0.5 <= twin.sigma1 < 1.0
        for n in (2.0, 10.0, 60.0, 2500.0):
            x = inv_chisq(CLAMP_HIGH, n - 1.0)
            s1_sq, s2_sq, se = _sample_se(x, x, twin, n, n)
            assert np.isfinite(s1_sq) and np.isfinite(se) and se > 0.0
        for n in (2, 10, 60):
            assert (empirical_power(spec, n, n, 4096, seed=1)
                    == empirical_power(twin, n, n, 4096, seed=1))
        big = motivating.scaled(1e200 / 18.0)
        for n in (10, 60):
            assert (empirical_power(big, n, n, 4096, seed=1)
                    == empirical_power(_unit(big)[0], n, n, 4096, seed=1))
        # in the design's units a variance beyond the float range is inf
        stats = stats_from_point((CLAMP_HIGH, 0.5, 0.5), motivating.scaled(
            1e300 / 18.0), 2, 2)
        assert stats.s1_sq == math.inf and np.isfinite(stats.se)

    def test_limits_must_be_ordered(self):
        with pytest.raises(ValueError, match="delta_L must be less than delta_U"):
            DesignSpec(0.0, 1.0, 1.0, 1.0, -1.0)

    def test_message_lists_every_violation(self):
        with pytest.raises(ValueError) as exc:
            DesignSpec(0.0, -1.0, 1.0, 2.0, -2.0, alpha=0.9)
        msg = str(exc.value)
        assert "sigma1" in msg and "delta_L" in msg and "alpha" in msg

    def test_scaled_and_shifted(self, motivating):
        s = motivating.scaled(2.0)
        assert s.sigma1 == 36.0 and s.delta_U == 38.4 and s.mu_diff == -8.0
        assert s.alpha == motivating.alpha and s.q == motivating.q
        t = motivating.shifted(10.0)
        assert t.mu_diff == 6.0 and t.delta_L == -9.2 and t.delta_U == 29.2
        assert t.sigma1 == motivating.sigma1


class TestWelchDf:
    def test_equal_variances_equal_sizes(self):
        # collapses to n1 + n2 - 2 exactly
        assert welch_df(100.0, 100.0, 12, 12) == 22.0

    def test_frozen_unequal_case(self):
        # high-precision evaluation of the standard formula, frozen
        assert welch_df(324.0, 225.0, 20, 20) == pytest.approx(
            36.803227485684539, rel=1e-12)

    def test_one_group_degenerate(self):
        # all weight on group 1: df is n1 - 1
        assert welch_df(4.0, 0.0, 9, 17) == pytest.approx(8.0)

    def test_both_zero_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            welch_df(0.0, 0.0, 5, 5)

    def test_nu_beyond_float_range_is_inf_without_warning(self, motivating):
        # the rescaled Satterthwaite form overflows too; inf is its rounding
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert welch_df(1.0, 1.0, 1e308, 1e308) == math.inf
            assert np.all(welch_df(np.array([1.0, 1.0]), 1.0,
                                   np.array([1e308, 12.0]), 1e308)
                          == [math.inf, 11.0])
            stats = stats_from_point((0.5, 0.5, 0.5), motivating, 1e308,
                                     1e308)
            assert stats.nu == math.inf and stats.d_bar == motivating.mu_diff

    def test_bounds_on_random_inputs(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(500):
            s1, s2 = rng.uniform(0.1, 10.0, size=2)
            n1, n2 = rng.integers(2, 50, size=2)
            nu = welch_df(s1, s2, int(n1), int(n2))
            assert min(n1, n2) - 1.0 <= nu <= n1 + n2 - 2.0 + 1e-9

    def test_scalar_and_array_results_identical(self):
        # the scalar path must give the array path's bits, so that the
        # vectorized estimator reproduces stats_from_point exactly
        rng = np.random.Generator(np.random.PCG64(8))
        s1, s2 = rng.uniform(0.01, 100.0, size=(2, 100_000))
        n1, n2 = rng.uniform(2.0, 100.0, size=(2, 100_000))
        arr = welch_df(s1, s2, n1, n2)
        scalar = [welch_df(a, b, c, d) for a, b, c, d in
                  zip(s1.tolist(), s2.tolist(), n1.tolist(), n2.tolist())]
        assert np.array_equal(arr, np.array(scalar))

    def test_scale_free_beyond_the_square_range(self):
        # a * a overflows at 1e200 and underflows at 1e-200; nu does not
        # depend on the scale of the variances
        for c in (1e200, 1e-200):
            assert welch_df(324.0 * c, 225.0 * c, 20, 20) == pytest.approx(
                36.803227485684539, rel=1e-12)
            assert welch_df(4.0 * c, 0.0, 9, 17) == 8.0
        arr = welch_df(np.array([324.0, 324e200, 324e-200]),
                       np.array([225.0, 225e200, 225e-200]), 20, 20)
        assert arr[0] == welch_df(324.0, 225.0, 20, 20)
        assert arr[1:] == pytest.approx([36.803227485684539] * 2, rel=1e-12)

    def test_real_valued_sizes_and_arrays(self):
        nu = welch_df(4.0, 9.0, 2.5, 7.3)
        assert np.isfinite(nu) and nu > 0
        arr = welch_df(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 10, 12)
        assert arr.shape == (2,)


class TestStatsFromPoint:
    def test_center_of_cube_gives_mean_diff(self, motivating):
        st = stats_from_point((0.3, 0.8, 0.5), motivating, 20, 20)
        assert st.d_bar == motivating.mu_diff

    def test_symmetric_case_has_equal_variances(self):
        spec = DesignSpec(0.0, 7.0, 7.0, -5.0, 5.0)
        st = stats_from_point((0.4, 0.4, 0.5), spec, 15, 15)
        assert st.s1_sq == st.s2_sq

    def test_se_is_plug_in_formula(self, motivating):
        st = stats_from_point((0.2, 0.9, 0.7), motivating, 20, 25)
        assert st.se == pytest.approx(
            np.sqrt(st.s1_sq / 20 + st.s2_sq / 25), rel=1e-15)
        assert st.nu == pytest.approx(welch_df(st.s1_sq, st.s2_sq, 20, 25))

    def test_frozen_fixture(self, motivating):
        # mapped statistics at u = (0.785, 0.009, 0.694), n = 20 per
        # group, checked against a 30-digit evaluation and frozen
        st = stats_from_point((0.785, 0.009, 0.694), motivating, 20, 20)
        assert st.s1_sq == pytest.approx(401.166432998, rel=1e-9)
        assert st.s2_sq == pytest.approx(88.868341309, rel=1e-9)
        assert st.d_bar == pytest.approx(-1.34253159576, rel=1e-9)
        assert st.se == pytest.approx(4.94992310197, rel=1e-9)
        assert st.nu == pytest.approx(27.0241726333, rel=1e-9)

    @pytest.mark.parametrize("n1,n2,name", [
        (1.5, 20, "n1"), (1, 20, "n1"), (float("nan"), 20, "n1"),
        (20, 1.99, "n2"), (20, True, "n2"), (20, "20", "n2"),
        (10 ** 400, 20, "n1"), (20, 10 ** 400, "n2"),
    ])
    def test_group_size_below_two_rejected(self, motivating, n1, n2, name):
        with pytest.raises(ValueError,
                           match=f"{name} must be a real number >= 2"):
            stats_from_point((0.3, 0.8, 0.5), motivating, n1, n2)

    def test_real_group_sizes_accepted(self, motivating):
        st = stats_from_point((0.3, 0.8, 0.5), motivating, 2.0,
                              np.float64(7.5))
        assert 1.0 <= st.nu <= 7.5


# every public function of one unit-cube point, with valid other arguments
POINT_FUNCTIONS = {
    "stats_from_point": lambda u, spec: stats_from_point(u, spec, 10, 10),
    "se_of_n": lambda u, spec: se_of_n(u, spec, 10.0),
    "lambda_of_n": lambda u, spec: lambda_of_n(u, spec, 10.0),
    "smallest_crossing": smallest_crossing,
    "scan_intersections": lambda u, spec: scan_intersections(u, spec, 20),
    "scan_se_peak": lambda u, spec: scan_se_peak(u, spec, 20),
}


@pytest.mark.parametrize("u", [(0.5, 0.5), (0.5, 0.5, 0.5, 0.5),
                               (0.5, math.nan, 0.5), (0.0, 0.5, 0.5),
                               (0.5, 0.5, 1.0)],
                         ids=["2 coordinates", "4 coordinates", "nan", "0",
                              "1"])
@pytest.mark.parametrize("name", sorted(POINT_FUNCTIONS))
def test_point_outside_open_cube_rejected(motivating, name, u):
    with pytest.raises(ValueError,
                       match=r"u must be 3 coordinates strictly inside"):
        POINT_FUNCTIONS[name](u, motivating)


class TestRejects:
    def test_apex_with_tiny_se(self, motivating):
        st = SummaryStats(d_bar=0.0, s1_sq=1.0, s2_sq=1.0, se=1e-6, nu=30.0)
        assert rejects(st, motivating)

    def test_d_bar_on_limit_never_rejects(self, motivating):
        st = SummaryStats(d_bar=-19.2, s1_sq=1.0, s2_sq=1.0, se=1e-9, nu=30.0)
        assert not rejects(st, motivating)

    def test_d_bar_outside_limits(self, motivating):
        st = SummaryStats(d_bar=25.0, s1_sq=1.0, s2_sq=1.0, se=1e-9, nu=30.0)
        assert not rejects(st, motivating)

    def test_matches_two_one_sided_t_tests(self, motivating):
        # the triangle form must agree with the conjunction of the raw
        # one-sided t statistics on random inputs
        rng = np.random.Generator(np.random.PCG64(11))
        n_reject = 0
        for _ in range(10_000):
            d_bar = rng.uniform(motivating.delta_L - 5.0, motivating.delta_U + 5.0)
            se = rng.uniform(0.01, 10.0)
            nu = rng.uniform(1.2, 60.0)
            st = SummaryStats(d_bar=d_bar, s1_sq=0.0, s2_sq=0.0, se=se, nu=nu)
            tq = t_quantile(1.0 - motivating.alpha, nu)
            t_lower = (d_bar - motivating.delta_L) / se
            t_upper = (motivating.delta_U - d_bar) / se
            expected = (t_lower > tq) and (t_upper > tq)
            assert rejects(st, motivating) == expected
            n_reject += expected
        assert 0 < n_reject < 10_000  # both outcomes exercised


class TestEmpiricalPower:
    def test_count_is_exact_integer(self, motivating):
        p = empirical_power(motivating, 20, 20, 999, seed=3)
        assert 0.0 <= p <= 1.0
        assert (p * 999) == round(p * 999)

    def test_deterministic(self, motivating):
        a = empirical_power(motivating, 15, 15, 2048, seed=5)
        b = empirical_power(motivating, 15, 15, 2048, seed=5)
        assert a == b

    def test_matches_scalar_path(self, motivating):
        # the vectorized estimator must agree with mapping each point
        # through stats_from_point and rejects one at a time
        u = _unit_cube_points(64, 21, "sobol")[0]
        slow = np.mean([
            rejects(stats_from_point(row, motivating, 10, 12), motivating)
            for row in u])
        fast = empirical_power(motivating, 10, 12, 64, seed=21)
        assert fast == slow

    def test_known_design_smoke(self, motivating):
        # frozen run: 0.88153076171875 at this seed, near the converged
        # value for n = 20 per group
        p = empirical_power(motivating, 20, 20, 65536, seed=7)
        assert p == pytest.approx(0.8815, abs=6e-4)

    def test_unequal_allocation(self, motivating):
        p1 = empirical_power(motivating, 20, 40, 4096, seed=9)
        p2 = empirical_power(motivating, 20, 20, 4096, seed=9)
        assert p1 > p2  # more subjects, more power

    def test_scale_invariance(self, motivating):
        # 1e78 overflows and 1e-150 underflows a * a in the Welch df
        for n in (2, 12):
            a = empirical_power(motivating, n, n, 4096, seed=13)
            for c in (3.7, 1e78, 1e-150):
                b = empirical_power(motivating.scaled(c), n, n, 4096, seed=13)
                assert a == b

    def test_shift_invariance(self, motivating):
        a = empirical_power(motivating, 12, 12, 4096, seed=13)
        b = empirical_power(motivating.shifted(5.1), 12, 12, 4096, seed=13)
        assert a == b

    def test_power_near_zero_outside_limits(self):
        spec = DesignSpec(30.0, 0.5, 0.5, -19.2, 19.2)
        assert empirical_power(spec, 50, 50, 4096, seed=2) <= 0.001

    def test_power_near_one_with_wide_limits(self):
        spec = DesignSpec(0.0, 1.0, 1.0, -10.0, 10.0)
        assert empirical_power(spec, 50, 50, 4096, seed=2) >= 0.999

    def test_prng_sampler_differs_but_agrees_statistically(self, motivating):
        p_sobol = empirical_power(motivating, 20, 20, 16384, seed=17)
        p_prng = empirical_power(motivating, 20, 20, 16384, seed=17,
                                 sampler="prng")
        assert p_sobol != p_prng
        assert abs(p_sobol - p_prng) < 0.02

    @pytest.mark.parametrize("n1,n2", [(1, 20), (20, 1), (2.5, 20), (0, 0),
                                       (True, 20), (20, "20"), (10 ** 400, 2),
                                       (2, 10 ** 400)])
    def test_group_size_validation(self, motivating, n1, n2):
        with pytest.raises(ValueError, match="must be an integer >= 2"):
            empirical_power(motivating, n1, n2, 64, seed=1)

    def test_m_and_sampler_validation(self, motivating):
        for sampler in ("sobol", "prng"):
            for m in (0, 1.5, True):
                with pytest.raises(ValueError, match="m must be"):
                    empirical_power(motivating, 5, 5, m, seed=1,
                                    sampler=sampler)
            with pytest.raises(ValueError, match="seed must be"):
                empirical_power(motivating, 5, 5, 64, seed=True,
                                sampler=sampler)
        with pytest.raises(ValueError, match="sampler"):
            empirical_power(motivating, 5, 5, 64, seed=1, sampler="halton")


def rejection_flags(u, z3, spec, n1, n2):
    """The estimator's screened rejection flags for an (m, 3) block of
    points u with z3 = inv_norm(u[:, 2]), knot indices from u itself."""
    knots = _knot_index(u[:, 0]), _knot_index(u[:, 1])
    return _decide(_tost_in, u[:, 0], u[:, 1], z3, spec, float(n1),
                   float(n2), knots)[0]


def knot_bounds(u, df):
    """Bounds (lo, hi) on inv_chisq(u, df) at a scalar df, gathered from
    the knot brackets of `_chisq_brackets(df)`."""
    i = _knot_index(u)
    return tuple(bound[i] for bound in _chisq_brackets(df))


def unscreened_flags(u, spec, n1, n2):
    """Rejection flags with the t quantile computed at every point, as
    the estimator decided before the band screen."""
    se, margin, nu = _mapped(u[:, 0], u[:, 1], inv_norm(u[:, 2]), spec,
                             float(n1), float(n2))
    return t_quantile(1.0 - spec.alpha, nu) * se < margin


def fresh_points(m, seed, sampler):
    """The unit-cube points of (m, seed, sampler), built afresh and
    writable: the reference for the cached points."""
    if sampler == "sobol":
        return sobol_stream(3, m, seed).points
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.clip(rng.random((m, 3)), CLAMP_LOW, CLAMP_HIGH)


class TestPointCache:
    def test_points_and_z3_are_cached_and_read_only(self):
        # every call at one (m, seed, sampler) shares the arrays, so none
        # may write to them
        for sampler in ("sobol", "prng"):
            u, z3, _ = _unit_cube_points(256, 5, sampler)
            assert _unit_cube_points(256, 5, sampler)[0] is u
            np.testing.assert_array_equal(u, fresh_points(256, 5, sampler))
            np.testing.assert_array_equal(z3, inv_norm(u[:, 2]))
            for arr in (u, z3):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.5
        assert _cached_points.cache_info().maxsize is not None

    @pytest.mark.parametrize("sampler", ["sobol", "prng"])
    @pytest.mark.parametrize("q", [1.0, 1.5])
    def test_cold_and_warm_calls_count_alike(self, sampler, q):
        # the Table-1 grid at one seed, each n cold and then warm, against
        # the unscreened decision on points built afresh
        spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=q)
        for seed in (1, 7):
            u = fresh_points(4096, seed, sampler)
            for n1 in TABLE1_GRID:
                n2 = int(round(q * n1))
                expected = np.count_nonzero(unscreened_flags(u, spec, n1, n2))
                _cached_points.cache_clear()
                cold = empirical_power(spec, n1, n2, 4096, seed, sampler)
                warm = empirical_power(spec, n1, n2, 4096, seed, sampler)
                assert _cached_points.cache_info().hits == 1
                assert cold * 4096 == warm * 4096 == expected

    @pytest.mark.parametrize("change", [
        {"seed": True}, {"seed": 1.0}, {"seed": np.float64(1)}, {"seed": -1},
        {"seed": 2 ** 64}, {"m": 1.5}, {"sampler": "SOBOL"},
        {"sampler": ["sobol"]}], ids=repr)
    def test_invalid_arguments_raise_with_a_warm_entry(self, motivating,
                                                       change):
        # seed=True and seed=1.0 hash as the warm key 1, and a list is
        # unhashable; the checks come before the lookup
        empirical_power(motivating, 5, 5, 64, seed=1)
        args = {"m": 64, "seed": 1, "sampler": "sobol", **change}
        with pytest.raises(ValueError, match="m must|seed must|sampler must"):
            empirical_power(motivating, 5, 5, **args)

    def test_prepared_arrays_are_read_only_but_not_the_callers_points(self):
        # the curve and the scans prepare their own point blocks, which
        # stay writable; only z3 and the knot indices made here are frozen
        u = fresh_points(256, 3, "prng")
        got, z3, (i1, i2) = _prepare_points(u)
        assert got is u and u.flags.writeable
        np.testing.assert_array_equal(z3, inv_norm(u[:, 2]))
        np.testing.assert_array_equal(i1, np.floor(u[:, 0] * _K))
        np.testing.assert_array_equal(i2, np.floor(u[:, 1] * _K))
        for arr in (z3, i1, i2):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_sobol_stream_is_not_cached(self):
        a, b = sobol_stream(3, 64, 1), sobol_stream(3, 64, 1)
        assert a.points is not b.points
        assert not np.shares_memory(a.points, b.points)
        np.testing.assert_array_equal(a.points, b.points)


class TestScreenedRejectionFlags:
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.5])
    @pytest.mark.parametrize("q", [0.4, 1.0, 1.5])
    def test_bit_identical_to_unscreened(self, alpha, q):
        for mu in (-4.0, -16.0):
            spec = DesignSpec(mu, 18.0, 15.0, -19.2, 19.2, alpha=alpha, q=q)
            for seed in range(6):
                u, z3, _ = _unit_cube_points(2048, seed, "sobol")
                for n1 in (2, 3, 4, 5, 7, 10, 15, 20, 40, 80, 200):
                    n2 = max(2, int(round(q * n1)))
                    np.testing.assert_array_equal(
                        rejection_flags(u, z3, spec, n1, n2),
                        unscreened_flags(u, spec, n1, n2))

    @pytest.mark.parametrize("alpha", [0.001, 0.05, 0.3, 0.5 - 1e-6, 0.5])
    def test_band_bounds_quantile_over_welch_range(self, alpha):
        # the quantile at every df in [nu_lo, nu_hi], ends included, lies
        # inside the band: on Welch ranges [min(n1, n2) - 1, n1 + n2 - 2],
        # on the block ranges of the scans, whose band is this one, and
        # on random sub-intervals of [1, 1e4]
        for n1, n2 in ((2, 2), (2, 200), (3, 5), (37, 11), (400, 400)):
            lo, hi = _t_band(alpha, min(n1, n2) - 1.0, n1 + n2 - 2.0)
            nu = np.linspace(min(n1, n2) - 1.0, n1 + n2 - 2.0, 2001)
            t = t_quantile(1.0 - alpha, nu)
            assert np.all((lo <= t) & (t <= hi))
            assert lo < hi if alpha < 0.5 else lo == hi == 0.0
        ranges = []
        for name in ("s2_mu16", "s6_mu12", "s7_mu16"):
            spec, n_max = SCENARIOS[name]
            spec = dataclasses.replace(spec, alpha=alpha)
            n1, n2, first, last, _, band = _integer_grid(spec, n_max)
            nu_lo = np.minimum(n1[first], n2[first]) - 1.0
            nu_hi = n1[last] + n2[last] - 2.0
            for got, want in zip(band, _t_band(alpha, nu_lo, nu_hi)):
                np.testing.assert_array_equal(got, want)
            ranges.append((nu_lo, nu_hi))
        rng = np.random.Generator(np.random.PCG64(17))
        ranges.append(np.sort(10.0 ** rng.uniform(0.0, 4.0, (2, 300)), axis=0))
        for nu_lo, nu_hi in ranges:
            lo, hi = _t_band(alpha, nu_lo, nu_hi)
            nu = np.linspace(nu_lo, nu_hi, 101, axis=-1)
            t = t_quantile(1.0 - alpha, nu)
            assert np.all((lo[:, None] <= t) & (t <= hi[:, None]))
            if alpha < 0.5:
                assert np.all(lo < hi)
            else:
                assert not (lo.any() or hi.any())

    def test_band_is_zero_at_alpha_half(self):
        assert _t_band(0.5, 2.0, 10.0) == (0.0, 0.0)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(mu=st.floats(-30.0, 30.0), sigma1=st.floats(0.1, 40.0),
           sigma2=st.floats(0.1, 40.0), center=st.floats(-10.0, 10.0),
           half=st.floats(0.5, 30.0),
           alpha=st.one_of(st.just(0.5), st.floats(1e-4, 0.5)),
           n1=st.integers(2, 500), n2=st.integers(2, 500),
           seed=st.integers(0, 2**32 - 1))
    def test_property_screened_equals_unscreened(self, mu, sigma1, sigma2,
                                                 center, half, alpha, n1, n2,
                                                 seed):
        spec = DesignSpec(mu, sigma1, sigma2, center - half, center + half,
                          alpha=alpha)
        u, z3, _ = _unit_cube_points(512, seed, "sobol")
        np.testing.assert_array_equal(rejection_flags(u, z3, spec, n1, n2),
                                      unscreened_flags(u, spec, n1, n2))


# group scales (c1, c2) of sigma1 = 18 * c1 and sigma2 = 15 * c2: equal,
# both extremes, and the two mixed ones, whose variances differ by 1e600
SCALES = ((1.0, 1.0), (1e-150, 1e-150), (1e150, 1e150), (1e150, 1e-150),
          (1e-150, 1e150))


def size_pairs(q):
    """(n1, n2 = max(2, q * n1)) over n1 from 2 up, both at most 5000,
    real sizes (as in the curve walk) included."""
    pairs = [(n1, max(2.0, q * n1)) for n1 in (2.0, 3.0, 5.0, 7.3, 20.0,
                                               200.0, 5000.0)]
    return [(n1, n2) for n1, n2 in pairs if n2 <= 5000.0]


def band_cells(seed):
    """(u1, u2): the knot neighbourhoods against each other (never both
    at the clamp end), the whole knot-0 bracket, where the lower bound is
    0, and pseudorandom rows."""
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = knot_neighbourhood()
    low = np.geomspace(CLAMP_LOW, 1.0 / _K, 513)
    mid = rng.random(low.size)
    u1 = np.concatenate([edges, np.roll(edges, edges.size // 2), low, mid,
                         rng.random(4096)])
    u2 = np.concatenate([np.roll(edges, edges.size // 2), edges, mid, low,
                         rng.random(4096)])
    return u1, u2


class TestCellTBand:
    # 0.5 - 1e-6: t is small, and the bands need it to fall with df
    @pytest.mark.parametrize("alpha", [1e-6, 0.05, 0.5 - 1e-6, 0.5])
    @pytest.mark.parametrize("q", [0.01, 1.0, 100.0])
    def test_band_bounds_quantile_at_exact_df(self, alpha, q):
        # t_quantile(1 - alpha, welch_df) of a cell's exact variances lies
        # in the band of its knot-bracket variances, and that band inside
        # the band over the whole Welch range
        u1, u2 = band_cells(3)
        for c1, c2 in SCALES:
            spec = DesignSpec(0.0, 18.0 * c1, 15.0 * c2, -1.0, 1.0,
                              alpha=alpha)
            for n1, n2 in size_pairs(q):
                lo1, hi1 = knot_bounds(u1, n1 - 1.0)
                lo2, hi2 = knot_bounds(u2, n2 - 1.0)
                s1_lo, s2_lo, _ = _sample_se(lo1, lo2, spec, n1, n2)
                s1_hi, s2_hi, _ = _sample_se(hi1, hi2, spec, n1, n2)
                lo, hi = _cell_t_band(alpha, n1, n2,
                                      (s1_lo / n1, s1_hi / n1),
                                      (s2_lo / n2, s2_hi / n2))
                s1, s2, _ = _sample_se(inv_chisq(u1, n1 - 1.0),
                                       inv_chisq(u2, n2 - 1.0), spec, n1, n2)
                # both variances zero: no df (welch_df raises there)
                ok = (s1 > 0.0) | (s2 > 0.0)
                assert ok.mean() > 0.99
                t = t_quantile(1.0 - alpha, welch_df(s1[ok], s2[ok], n1, n2))
                bad = ~((lo[ok] <= t) & (t <= hi[ok]))
                assert not bad.any(), (c1, c2, n1, n2, u1[ok][bad][:3])
                whole_lo, whole_hi = _t_band(alpha, min(n1, n2) - 1.0,
                                             n1 + n2 - 2.0)
                assert np.all((whole_lo <= lo) & (hi <= whole_hi))

    @pytest.mark.parametrize("alpha", [1e-6, 0.05, 0.3, 0.5])
    def test_table_ends_are_the_whole_range_band(self, alpha):
        # bit for bit: the estimator's first screen is unchanged
        for n1, n2 in ((2.0, 2.0), (2.0, 5000.0), (5.0, 8.0), (7.3, 10.95),
                       (60.0, 90.0), (5000.0, 50.0)):
            t = _t_table(alpha, n1, n2)
            assert t.shape == (_J + 1,)
            np.testing.assert_array_equal(
                t, t_quantile(1.0 - alpha, np.linspace(min(n1, n2) - 1.0,
                                                       n1 + n2 - 2.0, _J + 1)))
            lo, hi = _t_band(alpha, min(n1, n2) - 1.0, n1 + n2 - 2.0)
            assert t[-1] * (1.0 - _SLACK) == lo
            assert t[0] * (1.0 + _SLACK) == hi

    def test_table_is_cached_and_read_only(self):
        t = _t_table(0.05, 9.0, 13.0)
        assert _t_table(0.05, 9.0, 13.0) is t
        with pytest.raises(ValueError, match="read-only"):
            t[0] = 1.0
        assert _t_table.cache_info().maxsize is not None

    @pytest.mark.parametrize("alpha", [1e-6, 0.05, 0.5 - 1e-6, 0.5])
    @pytest.mark.parametrize("q", [0.01, 1.0, 100.0])
    def test_flags_bit_identical_to_unscreened(self, alpha, q):
        # the band's grid, with margins where the decisions are mixed
        u1, u2 = band_cells(4)
        u3 = np.random.Generator(np.random.PCG64(6)).random(u1.size)
        u, z3 = np.column_stack([u1, u2, u3]), inv_norm(u3)
        for c1, c2 in SCALES:
            c = max(c1, c2)
            spec = DesignSpec(-4.0 * c, 18.0 * c1, 15.0 * c2, -19.2 * c,
                              19.2 * c, alpha=alpha)
            for n1, n2 in size_pairs(q):
                np.testing.assert_array_equal(
                    rejection_flags(u, z3, spec, n1, n2),
                    unscreened_flags(u, spec, n1, n2))

    def test_few_cells_exact_at_small_n(self):
        # m = 65536, seed 7, q = 1.5, n = 5: the whole-range band leaves
        # about 11% open, the cells' own bands 0.24%
        spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=1.5)
        u, z3, knots = _unit_cube_points(65536, 7, "sobol")
        _, exact = _decide(_tost_in, u[:, 0], u[:, 1], z3, spec, 5.0, 8.0,
                           knots)
        assert len(exact) < 0.005 * len(u)


# (sigma1, sigma2): the benchmark's, both near the top of the float
# range, both near the bottom, and each there with the other ordinary;
# the kernels take their unit form (`_unit`), where the last two leave
# the smaller sigma's variance at 0
SIGMAS = ((18.0, 15.0), (1e300, 1e300), (1e-300, 1e-300), (1e300, 15.0),
          (18.0, 1e-300))


def table_first_pairs(q):
    """(n1, n2 = max(2, q * n1)), integer and fractional."""
    return [(n1, max(2.0, q * n1)) for n1 in (2.0, 3.0, 5.0, 7.3, 20.0,
                                              61.7, 5000.0)]


class TestTableFirstBounds:
    @pytest.mark.parametrize("q", [1.0, 1.5, 1.0 / 1.5])
    def test_gathered_bounds_equal_sample_se(self, q):
        # the tables transform before the gather, `_sample_se` after it
        u1, u2 = band_cells(5)
        i1, i2 = _knot_index(u1), _knot_index(u2)
        for sigma1, sigma2 in SIGMAS:
            spec = _unit(DesignSpec(0.0, sigma1, sigma2, -1.0, 1.0, q=q))[0]
            for n1, n2 in table_first_pairs(q):
                a1_lo, a1_hi = _variance_brackets(spec.sigma1, n1)
                a2_lo, a2_hi = _variance_brackets(spec.sigma2, n2)
                lo1, hi1 = knot_bounds(u1, n1 - 1.0)
                lo2, hi2 = knot_bounds(u2, n2 - 1.0)
                with np.errstate(over="ignore"):
                    for x1, x2, a1, a2 in ((lo1, lo2, a1_lo, a2_lo),
                                           (hi1, hi2, a1_hi, a2_hi)):
                        s1, s2, se = _sample_se(x1, x2, spec, n1, n2)
                        ref = (s1 / n1, s2 / n2, se)
                        got = (a1[i1], a2[i2], np.sqrt(a1[i1] + a2[i2]))
                        for r, g in zip(ref, got):
                            np.testing.assert_array_equal(g, r)

    @pytest.mark.parametrize("q", [1.0, 1.5, 1.0 / 1.5])
    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_decide_equals_gather_first(self, q, alpha):
        # flags and exact indices, on the band's grid with margins where
        # the decisions are mixed
        u1, u2 = band_cells(6)
        u3 = np.random.Generator(np.random.PCG64(7)).random(u1.size)
        z3, knots = inv_norm(u3), (_knot_index(u1), _knot_index(u2))
        for sigma1, sigma2 in SIGMAS:
            c = max(sigma1 / 18.0, sigma2 / 15.0)
            spec = _unit(DesignSpec(-4.0 * c, sigma1, sigma2, -19.2 * c,
                                    19.2 * c, alpha=alpha, q=q))[0]
            for n1, n2 in table_first_pairs(q):
                for in_region in (_tost_in, _g_in):
                    ref = decide_gather_first(in_region, u1, u2, z3, spec,
                                              n1, n2)
                    got = _decide(in_region, u1, u2, z3, spec, n1, n2, knots)
                    np.testing.assert_array_equal(got[0], ref[0])
                    np.testing.assert_array_equal(got[1], ref[1])

    def test_degenerate_sample_raises_on_both_paths(self):
        spec = DesignSpec(0.0, 1e-150, 1e-150, -1e-140, 1e-140)
        u = np.full(4, 0.5)
        u[2] = CLAMP_LOW
        knots = _knot_index(u), _knot_index(u)
        with pytest.raises(ValueError, match="degenerate"):
            _decide(_tost_in, u, u, inv_norm(u), spec, 2.0, 2.0, knots)
        with pytest.raises(ValueError, match="degenerate"):
            decide_gather_first(_tost_in, u, u, inv_norm(u), spec, 2.0, 2.0)

    def test_tables_are_cached_and_read_only(self):
        tables = _variance_brackets(18.0, 9.0)
        assert len(tables) == 2
        assert _variance_brackets(18.0, 9.0)[0] is tables[0]
        for table in tables:
            assert table.shape == (_K,)
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0
        assert 0 < _variance_brackets.cache_info().maxsize <= 256

    def test_cached_knot_indices_equal_a_fresh_computation(self):
        for sampler in ("sobol", "prng"):
            u, _, knots = _unit_cube_points(1024, 9, sampler)
            assert len(knots) == 2
            for j, i in enumerate(knots):
                np.testing.assert_array_equal(
                    i, np.floor(u[:, j] * _K).astype(np.intp))
                with pytest.raises(ValueError, match="read-only"):
                    i[0] = 0


INF = math.inf


class TestScreen:
    # three draws each, sorted, give bounds lo <= hi and a value between
    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(in_region=st.sampled_from([_tost_in, _g_in]),
           se=st.lists(st.floats(0.0, INF), min_size=3, max_size=3),
           t=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
                      min_size=3, max_size=3),
           margin=st.lists(
               st.one_of(st.just(0.0), st.floats(-50.0, 50.0),
                         st.floats(allow_nan=False, allow_infinity=False)),
               min_size=3, max_size=3))
    # alpha = 0.5 (t = 0) with se_lo = inf: the NaN corner 0 * inf
    @example(_tost_in, [INF, INF, INF], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    @example(_g_in, [INF, INF, INF], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    @example(_tost_in, [2.0, 5.0, INF], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    @example(_g_in, [0.0, 1.0, INF], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    # margin <= 0, and se_lo = se_hi as in the grid screen
    @example(_tost_in, [3.0, 3.0, 3.0], [1.5, 2.0, 2.5], [-1.0, -1.0, -1.0])
    @example(_g_in, [0.0, 0.0, 0.0], [1.5, 2.0, 2.5], [0.0, 0.0, 0.0])
    @example(_g_in, [2.0, 2.0, 2.0], [2.0, 3.0, 4.0], [6.0, 6.0, 6.0])
    @example(_tost_in, [2.0, 2.0, 2.0], [2.0, 3.0, 4.0], [6.0, 6.0, 6.0])
    # margin bounds straddling zero, as over a block where d_bar meets
    # a limit
    @example(_g_in, [1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [-1.0, 0.0, 2.0])
    @example(_g_in, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 2.0])
    def test_decisions_match_predicate(self, in_region, se, t, margin):
        se_lo, se, se_hi = np.sort(np.array(se)).reshape(3, 1)
        lo, t, hi = np.sort(np.array(t)).reshape(3, 1)
        margin_lo, margin, margin_hi = np.sort(np.array(margin)).reshape(3, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            decided_in, open_ = _screen(in_region, (se_lo, se_hi),
                                        (margin_lo, margin_hi), (lo, hi))
            exact = in_region(se, margin, t)
        if not open_[0]:
            assert decided_in[0] == exact[0]

    def test_nan_corner_decides_out(self):
        # 0 * inf at the (se_lo, lo) corner: outside, as at every se >= inf
        margin = np.array([1.0])
        with np.errstate(invalid="ignore"):
            decided_in, open_ = _screen(_tost_in,
                                        (np.array([INF]), np.array([INF])),
                                        (margin, margin), (0.0, 0.0))
        assert not decided_in[0] and not open_[0]

    def test_boundary_forms_differ(self):
        # g's form takes se == Lambda (and se = 0 at margin <= 0) as in;
        # TOST's takes t * se == margin as out
        se, margin, t = (np.array([2.0, 0.0]), np.array([6.0, 0.0]),
                         np.array([3.0, 3.0]))
        assert _g_in(se, margin, t).tolist() == [True, True]
        assert _tost_in(se, margin, t).tolist() == [False, False]


def knot_neighbourhood():
    """Every knot j / _K, its two nextafter neighbours and the clamp ends."""
    knots = np.arange(1, _K) / _K
    return np.concatenate([[CLAMP_LOW, np.nextafter(CLAMP_LOW, 1.0),
                            np.nextafter(CLAMP_HIGH, 0.0), CLAMP_HIGH],
                           knots, np.nextafter(knots, 0.0),
                           np.nextafter(knots, 1.0)])


class TestChisqScreen:
    @pytest.mark.parametrize("df", [1.0, 1.5, 2.0, 4.2, 59.0, 89.0, 499.0,
                                    1e4])
    def test_knot_brackets_bound_quantile(self, df):
        # dense p over [CLAMP_LOW, CLAMP_HIGH], both tails included, and
        # below the clamp, where the lowest bracket reaches down to 0
        p = np.concatenate([np.clip(np.concatenate([
            knot_neighbourhood(), np.linspace(CLAMP_LOW, CLAMP_HIGH, 100_001),
            np.geomspace(CLAMP_LOW, 0.5, 20_001),
            1.0 - np.geomspace(2.0 ** -53, 0.5, 20_001)]),
            CLAMP_LOW, CLAMP_HIGH), np.geomspace(1e-300, CLAMP_LOW, 2001)])
        lo, hi = _chisq_brackets(df)
        assert lo.shape == hi.shape == (_K,)
        assert lo[0] == 0.0 and np.all(lo[1:] > 0.0)
        assert np.all(np.isfinite(hi))
        i = (p * _K).astype(np.intp)
        x = inv_chisq(p, df)
        bad = ~((lo[i] <= x) & (x <= hi[i]))
        assert not bad.any(), p[bad][:5]

    def test_brackets_are_cached_and_read_only(self):
        # the brackets are read from the df's cached table, which every
        # caller shares, so none may write to it; 1024 tables of 8 KB
        lo, hi = _chisq_brackets(11.0)
        x = _knot_table(11.0)
        assert _knot_table(11.0) is x
        assert x.shape == (_K + 1,) and x[0] == 0.0
        np.testing.assert_array_equal(x[1:], inv_chisq(_KNOTS, 11.0))
        np.testing.assert_array_equal(lo, x[:-1] * (1.0 - _SLACK))
        np.testing.assert_array_equal(hi, x[1:] * (1.0 + _SLACK))
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0
        assert 0 < _knot_table.cache_info().maxsize <= 1024

    def test_cold_and_warm_cache_count_alike(self, motivating, monkeypatch):
        # the estimator reads the knot tables through the variance
        # tables, so a warm call finds those and never reaches a table
        _knot_table.cache_clear()
        _variance_brackets.cache_clear()
        cold = empirical_power(motivating, 7, 9, 4096, seed=3)
        assert _knot_table.cache_info().misses == 2
        assert _variance_brackets.cache_info().misses == 2
        for df in (6.0, 8.0):
            _knot_table(df)
        assert _knot_table.cache_info().hits == 2
        monkeypatch.setattr(tost, "_knot_table", None)
        warm = empirical_power(motivating, 7, 9, 4096, seed=3)
        assert _variance_brackets.cache_info().hits == 2
        assert cold == warm

    def test_quantile_rises_with_df_within_slack(self):
        # the block bounds of the integer scans: for df_a < df < df_b,
        # inv_chisq(u, df_a) * (1 - _SLACK) <= inv_chisq(u, df)
        #   <= inv_chisq(u, df_b) * (1 + _SLACK)
        # at every knot, its neighbours and the clamp ends, over integer
        # df (the scans' grid, fully up to 300, then every 7th) and over
        # dense real df
        df = np.unique(np.concatenate([
            np.arange(1.0, 301.0), np.arange(301.0, 2501.0, 7.0), [2500.0],
            np.linspace(1.0, 2500.0, 601), np.geomspace(1.0, 2500.0, 301)]))
        for u in np.array_split(knot_neighbourhood(), 8):
            x = inv_chisq(u[:, None], df[None, :])
            below = np.maximum.accumulate(x * (1.0 - _SLACK), axis=1)
            above = np.minimum.accumulate((x * (1.0 + _SLACK))[:, ::-1],
                                          axis=1)[:, ::-1]
            assert np.all(below <= x) and np.all(x <= above)

    @pytest.mark.parametrize("q", [1.0, 1.5])
    def test_bit_identical_on_estimate_grid(self, q):
        # the benchmark's estimate calls: m = 65536, the Table-1 grid
        spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=q)
        for seed in (7, 2024):
            u, z3, _ = _unit_cube_points(65536, seed, "sobol")
            for n1 in TABLE1_GRID:
                n2 = int(round(q * n1))
                np.testing.assert_array_equal(
                    rejection_flags(u, z3, spec, n1, n2),
                    unscreened_flags(u, spec, n1, n2))

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_bit_identical_at_knots_and_clamp_ends(self, alpha):
        # rows on the bracket edges, where the screen's bounds are tight
        edges = knot_neighbourhood()
        for seed in range(3):
            rng = np.random.Generator(np.random.PCG64(seed))
            # the cached points are read-only; write edge rows into a
            # copy (columns 0 and 1 only, so z3 still holds)
            u, z3, _ = _unit_cube_points(8192, seed, "prng")
            u = u.copy()
            u[:edges.size, 0] = edges
            u[:edges.size, 1] = rng.permutation(edges)
            u[edges.size:2 * edges.size, 1] = edges
            for mu, sigma1, sigma2 in ((-4.0, 18.0, 15.0), (-16.0, 18.0, 15.0),
                                       (2.0, 3.0, 30.0)):
                spec = DesignSpec(mu, sigma1, sigma2, -19.2, 19.2,
                                  alpha=alpha)
                for n1, n2 in ((2, 2), (3, 5), (20, 20), (60, 90), (300, 7)):
                    np.testing.assert_array_equal(
                        rejection_flags(u, z3, spec, n1, n2),
                        unscreened_flags(u, spec, n1, n2))

    def test_degenerate_sample_still_raises(self):
        # both variances underflow to zero at the clamp end, as before
        spec = DesignSpec(0.0, 1e-150, 1e-150, -1e-140, 1e-140)
        u = np.full((4, 3), 0.5)
        u[2, :2] = CLAMP_LOW
        with pytest.raises(ValueError, match="degenerate"):
            rejection_flags(u, inv_norm(u[:, 2]), spec, 2, 2)
