import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from bepower import (
    CENSORED,
    DEFAULT_B,
    CrossoverSpec,
    DesignSpec,
    crossover_sample_size,
    empirical_power,
    lambda_of_n,
    power_curve,
    se_of_n,
    smallest_crossing,
)
from bepower import curve, tost
from bepower.crossover import to_two_group
from bepower.curve import (_bracket_nodes, _crossings, _domain_start, _g,
                           _locate, _point_g, _resolve)
from bepower.qrng import CLAMP_HIGH, CLAMP_LOW, sobol_stream
from bepower.special import _TINY, inv_chisq, inv_norm
from bepower.tost import (_K, _chisq_brackets, _d_bar, _mapped, _sample_se,
                          _t_band, _unit)

from oracles import decide_gather_first

FIXTURE_U = (0.184, 0.231, 0.449)

# the benchmark's curve designs: central, near-limit, and both allocations
DESIGNS = {
    "motivating": DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2),
    "near_limit": DesignSpec(-16.0, 18.0, 15.0, -19.2, 19.2),
    "q1.5": DesignSpec(-12.0, 19.5, 13.0, -19.2, 19.2, q=1.5),
    "q1/1.5": DesignSpec(-8.0, 19.5, 13.0, -19.2, 19.2, q=1.0 / 1.5),
}

# the walk's screen also meets t = 0 (alpha = 0.5) and the README
# crossover design's small sigmas
WALK_DESIGNS = dict(
    DESIGNS,
    alpha_half=DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, alpha=0.5),
    crossover=to_two_group(CrossoverSpec(F=0.05, sigma_D1=0.4, sigma_D2=0.4,
                                         delta_L=-0.223, delta_U=0.223)),
)


def g_at(points, spec, n):
    """Exact g(n) over an (m, 3) block of points at one real n."""
    return _g(points[:, 0], points[:, 1], inv_norm(points[:, 2]), spec,
              float(n))


def first_crossings(g, m, spec, B=65536.0, tol=1e-6):
    """The first solve of `power_curve`: every point preset to have
    crossed at the domain start, then `_resolve` there."""
    start = _domain_start(spec.q)
    out = np.full(m, start)
    _resolve(g, out, start, _bracket_nodes(start, B), tol)
    return out


def dense_g(u, spec, n_grid):
    """Independent vectorized g(n) over a grid, for cross-checking roots.

    Rebuilt from the definition instead of calling the scalar kernel:
    se and the threshold are composed directly from the quantile
    functions, broadcast over n.
    """
    from bepower.special import t_quantile
    from bepower.tost import welch_df

    n = np.asarray(n_grid, dtype=float)
    n2 = spec.q * n
    s1 = spec.sigma1 ** 2 * inv_chisq(u[0], n - 1.0) / (n - 1.0)
    s2 = spec.sigma2 ** 2 * inv_chisq(u[1], n2 - 1.0) / (n2 - 1.0)
    se = np.sqrt(s1 / n + s2 / n2)
    d_bar = spec.mu_diff + inv_norm(u[2]) * np.sqrt(
        spec.sigma1 ** 2 / n + spec.sigma2 ** 2 / n2)
    margin = np.minimum(d_bar - spec.delta_L, spec.delta_U - d_bar)
    lam = np.where(margin > 0.0,
                   margin / t_quantile(1.0 - spec.alpha, welch_df(s1, s2, n, n2)),
                   0.0)
    return se - lam


def reference_walk(u, spec, nodes, tol, none):
    """Scalar reference for the lockstep solver, one point at a time.

    Walks the nodes until g changes side from its side at nodes[0],
    refines the last step with scipy's brentq on the kernel, and
    nudges the root right by tol until g <= 0 (the bracket's g <= 0
    end after four failed checks).
    """
    z3 = inv_norm(u[2])

    def g(n):
        return float(_g(u[0], u[1], z3, spec, n))

    f0 = g(nodes[0])
    for prev, node in zip(nodes, nodes[1:]):
        if (g(node) > 0.0) != (f0 > 0.0):
            a, b = min(prev, node), max(prev, node)
            r = brentq(g, a, b, xtol=tol)
            for _ in range(4):
                if g(r) <= 0.0:
                    return r
                r = min(r + tol, b)
            return b
    return none


def reference_crossing(u, spec, B=65536.0, tol=1e-6):
    nodes = _bracket_nodes(max(2.0, 2.0 / spec.q), B)
    if _g(u[0], u[1], inv_norm(u[2]), spec, nodes[0]) <= 0.0:
        return nodes[0]
    return reference_walk(u, spec, nodes, tol, CENSORED)


def unscreened_walk(g, k, nodes, f0, tol, none):
    """The bracket walk before the knot screen, kept as the reference
    for `_crossings`: g at every node for every point still walking,
    with the walk's end values handed to `_locate`."""
    nodes = np.asarray(nodes, dtype=float)
    f_prev, f_next = f0.copy(), np.empty(len(k))
    step = np.zeros(len(k), dtype=np.int64)
    walking = np.arange(len(k))
    for j in range(1, len(nodes)):
        if not len(walking):
            break
        f = g(k[walking], nodes[j])
        crossed = (f > 0.0) != (f0[walking] > 0.0)
        step[walking[crossed]], f_next[walking[crossed]] = j, f[crossed]
        f_prev[walking[~crossed]] = f[~crossed]
        walking = walking[~crossed]
    out = np.full(len(k), none)
    hit = np.nonzero(step)[0]
    a, b = nodes[step[hit] - 1], nodes[step[hit]]
    fa, fb = f_prev[hit], f_next[hit]
    if nodes[-1] < nodes[0]:
        a, b, fa, fb = b, a, fb, fa
    out[hit] = _locate(g, k[hit], a, b, fa, fb, tol)
    return out


def unscreened_first_crossings(points, spec, B=65536.0, tol=1e-6):
    """`first_crossings` on `unscreened_walk`."""
    g, _ = _point_g(points, spec)
    nodes = _bracket_nodes(_domain_start(spec.q), B)
    k = np.arange(len(points))
    f0 = g(k, nodes[0])
    out = np.full(len(points), nodes[0])
    walk = f0 > 0.0
    out[walk] = unscreened_walk(g, k[walk], nodes, f0[walk], tol, CENSORED)
    return out


def below_clamp(n, rng):
    """n log-uniform coordinates in (1e-60, CLAMP_LOW), outside the
    range the knot tables cover."""
    return np.exp(rng.uniform(math.log(1e-60), math.log(CLAMP_LOW), n))


def edge_points(seed):
    """Sobol' points, then rows whose u1 or u2 lies on a knot j / _K, a
    knot's nextafter neighbour, a clamp end or below the clamp."""
    knots = np.arange(1, _K) / _K
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = np.concatenate([[CLAMP_LOW, CLAMP_HIGH], knots,
                            np.nextafter(knots, 0.0), np.nextafter(knots, 1.0),
                            below_clamp(32, rng)])
    base = sobol_stream(3, 1024, seed).points
    tiled = base[np.arange(edges.size) % len(base)]
    return np.concatenate([
        base,
        np.column_stack([edges, rng.permutation(edges), tiled[:, 2]]),
        np.column_stack([tiled[:, 0], edges, rng.permutation(tiled[:, 2])])])


def test_bracket_nodes_shape():
    nodes = _bracket_nodes(2.0, 64.0)
    assert nodes == [2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0]
    # roughly two evaluations per doubling: |grid| ~ 2 log2(B)
    big = _bracket_nodes(2.0, 65536.0)
    assert len(big) <= 2 * math.log2(65536.0) + 2
    assert big[-1] == 65536.0


def test_se_collapses_in_symmetric_case():
    spec = DesignSpec(0.0, 7.0, 7.0, -5.0, 5.0)
    u = (0.37, 0.37, 0.5)
    for n in (2.0, 5.5, 40.0):
        direct = 7.0 * math.sqrt(2.0 * inv_chisq(0.37, n - 1.0)
                                 / ((n - 1.0) * n))
        assert se_of_n(u, spec, n) == pytest.approx(direct, rel=1e-12)


def test_se_halves_when_n_quadruples(motivating):
    u = (0.5, 0.5, 0.5)
    for n in (10.0, 25.0):
        ratio = se_of_n(u, motivating, 4.0 * n) / se_of_n(u, motivating, n)
        assert ratio == pytest.approx(0.5, rel=0.05)


def test_se_can_rise_before_falling(motivating):
    # low-tail variance coordinates: the mapped variances grow with the
    # degrees of freedom faster than the 1/n prefactor decays at first
    se = [se_of_n(FIXTURE_U, motivating, float(n)) for n in range(2, 11)]
    assert se[2] > se[1] > se[0]  # rising through n = 4
    assert all(a > b for a, b in zip(se[2:], se[3:]))  # falling after


def test_lambda_structure(motivating):
    u = (0.3, 0.6, 0.5)
    # u3 = 0.5 pins d_bar at mu_diff, so the numerator is the design margin
    from bepower.special import t_quantile
    from bepower.tost import welch_df
    for n in (2.0, 5.0, 50.0):
        s1 = motivating.sigma1 ** 2 * inv_chisq(0.3, n - 1.0) / (n - 1.0)
        s2 = motivating.sigma2 ** 2 * inv_chisq(0.6, n - 1.0) / (n - 1.0)
        expected = (motivating.delta_U - abs(motivating.mu_diff)) / t_quantile(
            0.95, welch_df(s1, s2, n, n))
        assert lambda_of_n(u, motivating, n) == pytest.approx(expected, rel=1e-12)


def test_lambda_zero_when_d_bar_outside_limits(motivating):
    # extreme u3 pushes d_bar far beyond delta_U at small n
    assert lambda_of_n((0.5, 0.5, 1.0 - 1e-12), motivating, 2.0) == 0.0


def test_lambda_large_n_limit(motivating):
    # Lambda(n) -> min margin / normal quantile as n grows; at u3 = 0.5
    # d_bar is pinned at mu_diff and only the t quantile still moves
    limit = (motivating.delta_U - abs(motivating.mu_diff)) / inv_norm(0.95)
    assert abs(lambda_of_n((0.4, 0.7, 0.5), motivating, 1e6) - limit) <= 1e-3
    # off-center u3 converges at the n**-1/2 rate through d_bar
    errs = [abs(lambda_of_n((0.4, 0.7, 0.9), motivating, n) - limit)
            for n in (1e4, 1e6, 1e8)]
    assert errs[0] > errs[1] > errs[2]


def test_lambda_at_n_near_the_float_range(motivating):
    # nu is 2e300 at n = 1e300 and overflows to inf at n = 1e308; both
    # give the normal-quantile limit, and no warning escapes
    limit = (motivating.delta_U - abs(motivating.mu_diff)) / inv_norm(0.95)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1e300, 1e308):
            assert lambda_of_n((0.5, 0.5, 0.5), motivating, n) == (
                pytest.approx(limit, rel=1e-15))
            assert se_of_n((0.5, 0.5, 0.5), motivating, n) > 0.0


def test_domain_validation(motivating):
    with pytest.raises(ValueError, match="at least 2"):
        se_of_n((0.5, 0.5, 0.5), motivating, 1.9)
    narrow = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=0.5)
    with pytest.raises(ValueError, match="at least 2"):
        se_of_n((0.5, 0.5, 0.5), narrow, 3.0)  # q * n = 1.5
    off_center = DesignSpec(25.0, 18.0, 15.0, -19.2, 19.2)
    with pytest.raises(ValueError, match="strictly between"):
        lambda_of_n((0.5, 0.5, 0.5), off_center, 10.0)
    # an int beyond the float range, and NaN, are no size either
    for n in (10 ** 400, math.nan):
        for fn in (se_of_n, lambda_of_n):
            with pytest.raises(ValueError, match="n must be finite"):
                fn((0.5, 0.5, 0.5), motivating, n)


def test_group2_size_overflow_names_q():
    # q * n beyond the float range gave se = nan, or a numpy warning and
    # "df must be positive"; each curve function now names q, and so
    # does a domain start 2/q beyond the float range
    u = (0.2, 0.3, 0.4)
    huge = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=1e308)
    tiny = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=1e-309)
    cross = CrossoverSpec(0.05, 0.4, 0.3, -0.223, 0.223, q=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (se_of_n, lambda_of_n):
            with pytest.raises(ValueError, match=r"q \* n = 1e\+308 \* 10 "
                               "overflows the float range"):
                fn(u, huge, 10)
        for B in (DEFAULT_B, math.inf):
            for call in (lambda: smallest_crossing(u, huge, B=B),
                         lambda: power_curve(huge, 0.8, 16, 1, B=B),
                         lambda: crossover_sample_size(cross, 0.8, 16, 1,
                                                       B=B)):
                with pytest.raises(ValueError, match=r"q \* n = 1e\+308 \* "
                                   "2 overflows the float range"):
                    call()
            for call in (lambda: smallest_crossing(u, tiny, B=B),
                         lambda: power_curve(tiny, 0.8, 16, 1, B=B)):
                with pytest.raises(ValueError, match="domain start 2/q = "
                                   "2/1e-309 overflows the float range"):
                    call()


def test_group2_size_overflow_only_where_the_walk_goes():
    # q * B overflows at q = 3e303, B = 65536, but every crossing lies
    # where q * n is finite; a walk that reaches an n whose q * n
    # overflows names q there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=3e303)
        assert math.isinf(spec.q * DEFAULT_B)
        pc = power_curve(spec, 0.8, 64, 1)
        assert pc.censored_count == 0 and pc.rec_n1 < 100
        near = DesignSpec(-18.0, 18.0, 15.0, -19.2, 19.2, q=1e306)
        with pytest.raises(ValueError, match=r"q \* n = 1e\+306 \* 192 "
                           "overflows the float range"):
            power_curve(near, 0.8, 256, 1)


class TestSmallestCrossing:
    def test_tiny_variances_cross_at_start(self, motivating):
        # both variance coordinates deep in the lower tail: se(2) is
        # minuscule, so the rejection region is entered at the domain start
        cp = smallest_crossing((1e-8, 1e-8, 0.5), motivating)
        assert cp.crossing_n == 2.0

    def test_fixture_crosses_at_start(self, motivating):
        cp = smallest_crossing(FIXTURE_U, motivating)
        assert cp.crossing_n == 2.0

    def test_crossing_grows_with_u3_tail(self, motivating):
        crossings = [smallest_crossing((0.5, 0.5, u3), motivating).crossing_n
                     for u3 in (0.9, 0.99, 0.9999)]
        assert crossings[0] < crossings[1] < crossings[2]

    def test_root_agrees_with_dense_grid(self, motivating):
        u = (0.5, 0.5, 0.9999)
        cp = smallest_crossing(u, motivating)
        grid = np.arange(2.0, 500.0, 0.01)
        g = dense_g(u, motivating, grid)
        first = np.nonzero(g <= 0.0)[0][0]
        assert grid[first - 1] - 0.01 <= cp.crossing_n <= grid[first] + 0.01

    def test_located_roots_satisfy_predicate(self, motivating):
        pts = sobol_stream(3, 64, seed=41).points
        tol = 1e-6
        for i in range(64):
            cp = smallest_crossing(pts[i], motivating, tol=tol)
            c = cp.crossing_n
            if math.isinf(c) or c == 2.0:
                continue
            assert g_at(pts[i:i + 1], motivating, c)[0] <= 0.0
            assert g_at(pts[i:i + 1], motivating, max(2.0, c - 5 * tol))[0] > 0.0

    def test_censored_when_bound_too_small(self, motivating):
        cp = smallest_crossing((0.5, 0.5, 0.9999), motivating, B=4.0)
        assert cp.crossing_n == CENSORED

    def test_q_below_one_moves_domain_start(self):
        spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=0.5)
        cp = smallest_crossing((1e-8, 1e-8, 0.5), spec)
        assert cp.crossing_n == 4.0  # smallest n with q n >= 2

    def test_parameter_validation(self, motivating):
        for B in (1.0, math.nan, 10 ** 400):
            with pytest.raises(ValueError, match="B must be"):
                smallest_crossing((0.5, 0.5, 0.5), motivating, B=B)
        for tol in (0.0, math.nan, math.inf, 10 ** 400):
            with pytest.raises(ValueError, match="tol must be"):
                smallest_crossing((0.5, 0.5, 0.5), motivating, tol=tol)
        tiny_q = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=1e-5)
        with pytest.raises(ValueError, match=r"B=65536 .*2/q=200000"):
            smallest_crossing((0.5, 0.5, 0.5), tiny_q)


class TestPowerCurve:
    def test_single_point_curve(self, motivating):
        pc = power_curve(motivating, 0.8, 1, seed=6)
        assert pc.m == 1
        assert pc.n_star_final == pc.crossings[0]
        assert pc.rec_n1 == math.ceil(pc.n_star_final - 1e-9)

    def test_per_point_arrays_are_read_only(self, motivating):
        pc = power_curve(motivating, 0.8, 64, seed=3)
        for arr in (pc.crossings, pc.g_evals, pc.reinitialized):
            assert len(arr) == 64
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

    def test_recommendation_brackets_target(self, motivating):
        pc = power_curve(motivating, 0.8, 1024, seed=7)
        assert pc.ecdf(pc.n_star_final) >= 0.8
        assert pc.rec_n1 == math.ceil(pc.n_star_final - 1e-9)
        assert pc.rec_n2 == math.ceil(motivating.q * pc.n_star_final - 1e-9)
        assert 14 <= pc.rec_n1 <= 19  # converged value is 17

    def test_monotone_in_target_power(self, motivating):
        recs = [power_curve(motivating, tp, 256, seed=8).rec_n1
                for tp in (0.5, 0.8, 0.95)]
        assert recs[0] <= recs[1] <= recs[2]

    def test_ecdf_matches_power_estimator(self, motivating):
        # the crossing fractions and the direct estimator are two routes
        # to the same integral; on points whose g has a unique sign
        # change they agree exactly at integer n
        m, seed = 256, 31
        pc = power_curve(motivating, 0.8, m, seed=seed)
        pts = sobol_stream(3, m, seed).points
        grid = np.concatenate([np.arange(2.0, 60.0, 0.25),
                               np.arange(60.0, 1000.0, 1.0)])
        signs = np.stack([dense_g(p, motivating, grid) <= 0.0 for p in pts])
        changes = np.abs(np.diff(signs.astype(int), axis=1)).sum(axis=1)
        clean = (changes <= 1) & ~np.isinf(pc.crossings)
        assert clean.mean() > 0.95  # multiple crossings are rare
        for n in (5, 10, 20, 40):
            direct = empirical_power(motivating, n, n, m, seed=seed)
            if clean.all():
                assert pc.ecdf(n) == direct
            else:
                # each unclean point can shift the count by at most one
                assert abs(pc.ecdf(n) - direct) <= np.count_nonzero(~clean) / m

    def test_safeguard_restores_exactness(self, motivating):
        m, seed = 512, 12
        pc = power_curve(motivating, 0.8, m, seed=seed)
        pts = sobol_stream(3, m, seed).points
        frac = np.mean(pc.crossings <= pc.n_star_final)
        sign = np.mean(g_at(pts, motivating, pc.n_star_final) <= 0.0)
        assert frac == sign
        assert frac >= 0.8

    @pytest.mark.parametrize("transform", ["scaled", "shifted"])
    def test_invariance_of_crossings(self, motivating, transform):
        # g picks up an overall factor (scale) or is unchanged up to
        # rounding (shift), so every located root matches to within the
        # root tolerance plus its sign-predicate nudges
        other = getattr(motivating, transform)(3.7)
        a = power_curve(motivating, 0.8, 64, seed=14)
        b = power_curve(other, 0.8, 64, seed=14)
        assert np.array_equal(np.isinf(a.crossings), np.isinf(b.crossings))
        finite = ~np.isinf(a.crossings)
        assert np.all(np.abs(a.crossings[finite] - b.crossings[finite]) <= 1e-5)
        assert a.rec_n1 == b.rec_n1 and a.rec_n2 == b.rec_n2

    def test_censoring_raises_with_bound_in_message(self, motivating):
        with pytest.raises(RuntimeError, match=r"B=4"):
            power_curve(motivating, 0.8, 64, seed=3, B=4.0)

    def test_unequal_allocation_recommendation(self):
        spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=1.5)
        pc = power_curve(spec, 0.8, 256, seed=9)
        assert pc.rec_n2 == math.ceil(1.5 * pc.n_star_final - 1e-9)
        spec_down = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=0.5)
        pc2 = power_curve(spec_down, 0.8, 256, seed=9)
        assert np.min(pc2.crossings) >= 4.0  # domain starts at 2 / q

    def test_efficiency_bound(self, motivating):
        pc = power_curve(motivating, 0.8, 256, seed=10)
        assert pc.g_evals_total / pc.m <= 4.0 * math.log2(65536.0)

    def test_ecdf_properties(self, motivating):
        pc = power_curve(motivating, 0.8, 128, seed=11)
        grid = np.arange(2.0, 120.0)
        vals = [pc.ecdf(n) for n in grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 1.0

    def test_ecdf_never_counts_censored_points(self):
        # 100 of the 256 points have no crossing by B = 200; they count
        # in the denominator at every n, n = inf too
        spec = DesignSpec(-16.0, 18.0, 15.0, -19.2, 19.2)
        pc = power_curve(spec, 0.5, 256, 3, B=200)
        assert pc.censored_count == 100
        assert pc.ecdf(1e6) == pc.ecdf(math.inf) == 156 / 256

    def test_ecdf_of_an_int_beyond_the_float_range_is_an_infinity(self):
        # such an int cannot be converted to a float; it saturates
        spec = DesignSpec(-16.0, 18.0, 15.0, -19.2, 19.2)
        pc = power_curve(spec, 0.5, 256, 3, B=200)
        assert pc.ecdf(10 ** 400) == pc.ecdf(math.inf) == 156 / 256
        assert pc.ecdf(-10 ** 400) == pc.ecdf(-math.inf) == 0.0

    def test_ecdf_rejects_nan(self, motivating):
        pc = power_curve(motivating, 0.8, 64, seed=11)
        with pytest.raises(ValueError, match="n must not be NaN"):
            pc.ecdf(math.nan)

    def test_parameter_validation(self, motivating):
        with pytest.raises(ValueError, match="target_power"):
            power_curve(motivating, 1.0, 64, seed=1)
        with pytest.raises(ValueError, match="m must be"):
            power_curve(motivating, 0.8, 0, seed=1)
        with pytest.raises(ValueError, match="m must be"):
            power_curve(motivating, 0.8, 1.5, seed=1)
        with pytest.raises(ValueError, match="m must be"):
            power_curve(motivating, 0.8, True, seed=1)
        with pytest.raises(ValueError, match="seed must be"):
            power_curve(motivating, 0.8, 64, seed=True)
        for B in (1.0, math.nan, 10 ** 400):
            with pytest.raises(ValueError, match="B must be"):
                power_curve(motivating, 0.8, 64, seed=1, B=B)
        for tol in (0.0, math.nan, math.inf, 10 ** 400):
            with pytest.raises(ValueError, match="tol must be"):
                power_curve(motivating, 0.8, 64, seed=1, tol=tol)
        # the domain start 2/q above B: a bound error, not censoring
        tiny_q = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, q=1e-5)
        with pytest.raises(ValueError, match=r"B=65536 .*2/q=200000"):
            power_curve(tiny_q, 0.8, 64, seed=1)
        off_center = DesignSpec(25.0, 18.0, 15.0, -19.2, 19.2)
        with pytest.raises(ValueError, match="strictly between"):
            power_curve(off_center, 0.8, 64, seed=1)


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_crossings_match_scalar_reference(name):
    # the lockstep walk and Brent port take the scalar solver's steps,
    # so every crossing matches the reference to the bit
    spec = DESIGNS[name]
    pc = power_curve(spec, 0.8, 256, seed=19)
    assert not pc.reinitialized.any()
    pts = sobol_stream(3, 256, 19).points
    ref = np.array([reference_crossing(p, spec) for p in pts])
    assert np.array_equal(pc.crossings, ref)


def test_safeguard_walks_match_scalar_reference(motivating):
    # FIXTURE_U rejects at 2, leaves the region near 2.2 and re-enters
    # near 3.49: the safeguard's walks up from 3 and down from 5 both
    # find the re-entry; walking down from 2.1 finds none, so the
    # domain start is returned
    pts = np.array([FIXTURE_U])
    g, _ = _point_g(pts, motivating)
    nodes = _bracket_nodes(2.0, 65536.0)
    k = np.array([0])
    for anchor, walk in ((3.0, [c for c in nodes if c > 3.0]),
                         (5.0, [c for c in reversed(nodes) if c < 5.0]),
                         (2.1, [2.0])):
        walk = [anchor] + walk
        got = _crossings(g, k, walk, 1e-6, 2.0)[0]
        assert got == reference_walk(FIXTURE_U, motivating, walk, 1e-6, 2.0)
        if anchor > 2.1:
            assert got == pytest.approx(3.492117957622574, abs=1e-5)
        else:
            assert got == 2.0


def test_resolve_repairs_only_disagreeing_points(motivating):
    # FIXTURE_U rejects at 2, is out at 3 and back in from 4 (re-entry
    # near 3.49); a crossing is re-solved only where it disagrees with
    # g's side at the anchor
    g, _ = _point_g(np.array([FIXTURE_U]), motivating)
    nodes = _bracket_nodes(2.0, 65536.0)
    for claimed, anchor, expected, fixed in (
            (2.0, 3.0, 3.492117957622574, [0]),   # claimed, out: up
            (10.0, 5.0, 3.492117957622574, [0]),  # not claimed, in: down
            (2.0, 5.0, 2.0, []),                  # claimed, in: kept
            (CENSORED, 2.0, 2.0, [0])):           # down from the start
        crossings = np.array([claimed])
        assert _resolve(g, crossings, anchor, nodes, 1e-6).tolist() == fixed
        assert crossings[0] == expected


@pytest.mark.parametrize("seed,target,n_initial,n_final,rec_n1", [
    (2, 0.04638671875, 3.2642421185024846, 3.3888800432360084, 4),
    (3, 0.03271484375, 2.694799646736909, 2.753100977407474, 3)])
def test_safeguard_fires_end_to_end(motivating, seed, target, n_initial,
                                    n_final, rec_n1):
    # at low target power the quantile lands where some point has left
    # the region after crossing at the start; the safeguard re-solves it,
    # moves the quantile, and the crossing fraction at n* is again the
    # fraction of points with g <= 0 there
    m = 1024
    pc = power_curve(motivating, target, m, seed)
    assert pc.reinit_count == 1
    assert (pc.n_star_initial, pc.n_star_final, pc.rec_n1) == (
        n_initial, n_final, rec_n1)
    pts = sobol_stream(3, m, seed).points
    assert (np.mean(pc.crossings <= pc.n_star_final)
            == np.mean(g_at(pts, motivating, pc.n_star_final) <= 0.0))


def test_safeguard_warns_when_the_quantile_keeps_moving(motivating,
                                                        monkeypatch):
    # no known design moves the quantile in three safeguard rounds in a
    # row, so the quantile is patched to alternate between the true one
    # and one a unit above it; the curve warns and keeps the last one
    quantile = curve._type1_quantile
    returned = []

    def alternating(values, target_power):
        returned.append(quantile(values, target_power) + len(returned) % 2)
        return returned[-1]

    monkeypatch.setattr(curve, "_type1_quantile", alternating)
    with pytest.warns(RuntimeWarning, match="did not stabilize after 3 "
                                            "rounds"):
        pc = power_curve(motivating, 0.8, 1024, 2024)
    assert len(returned) == 4
    assert all(a != b for a, b in zip(returned, returned[1:]))
    assert pc.n_star_initial == returned[0]
    assert pc.n_star_final == returned[-1]
    assert pc.rec_n1 == math.ceil(returned[-1])


def test_censoring_error_when_the_safeguard_ends_at_inf(motivating,
                                                       monkeypatch):
    # a third safeguard round that moves the quantile to inf leaves no
    # finite recommendation: the curve warns, then names B
    quantile = curve._type1_quantile
    returned = []

    def drifting(values, target_power):
        step = len(returned)
        returned.append(math.inf if step == 3
                        else quantile(values, target_power) + step)
        return returned[-1]

    monkeypatch.setattr(curve, "_type1_quantile", drifting)
    with pytest.warns(RuntimeWarning, match="did not stabilize"), \
            pytest.raises(RuntimeError, match=r"censoring bound B=65536 is "
                          r"too small: 0 of 1024 points .* raise B"):
        power_curve(motivating, 0.8, 1024, 2024)
    assert len(returned) == 4


def test_brent_stopped_at_maxiter_still_crosses_on_the_g_side(motivating,
                                                               monkeypatch):
    # Brent's last iterate, after maxiter steps, goes to the same nudge
    # as a converged root: g <= 0 at every located crossing
    full = power_curve(motivating, 0.8, 64, 3)
    monkeypatch.setattr(curve, "_BRENT_MAXITER", 2)
    pc = power_curve(motivating, 0.8, 64, 3)
    assert not np.array_equal(pc.crossings, full.crossings)
    points = sobol_stream(3, 64, 3).points
    located = np.nonzero(pc.crossings > _domain_start(motivating.q))[0]
    assert len(located) and np.all(np.isfinite(pc.crossings[located]))
    unit = _unit(motivating)[0]
    g = _g(points[located, 0], points[located, 1],
           inv_norm(points[located, 2]), unit, pc.crossings[located])
    assert np.all(g <= 0.0)


@pytest.mark.parametrize("seed,target", [(2024, 0.8), (2, 0.04638671875)])
def test_g_evals_counts_every_exact_evaluation(motivating, monkeypatch, seed,
                                               target):
    # every exact g, in the walk, Brent's steps and the safeguard's side
    # at the quantile, maps its points through `_mapped` once
    seen = [0]

    def counting(u1, *args, **kwargs):
        seen[0] += np.size(u1)
        return _mapped(u1, *args, **kwargs)

    monkeypatch.setattr("bepower.tost._mapped", counting)
    monkeypatch.setattr("bepower.curve._mapped", counting)
    pc = power_curve(motivating, target, 1024, seed)
    assert pc.g_evals_total == seen[0]


# total exact g evaluations of each benchmark design at m = 1024, seed
# 2024, target 0.8, as when the walk gathered brackets per point
G_EVALS_2024 = {"motivating": 6969, "near_limit": 7368, "q1.5": 7075,
                "q1/1.5": 6975}


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_g_evals_equal_the_gather_first_walk(name, monkeypatch):
    # the walk's screen reads knot tables transformed before the gather;
    # every point's evaluation count and crossing is that of the screen
    # that gathered the brackets first and transformed them per point
    spec = DESIGNS[name]
    pc = power_curve(spec, 0.8, 1024, 2024)

    def gather_first(in_region, u1, u2, z3, spec, n1, n2, knots):
        return decide_gather_first(in_region, u1, u2, z3, spec, n1, n2)

    monkeypatch.setattr("bepower.curve._decide", gather_first)
    ref = power_curve(spec, 0.8, 1024, 2024)
    np.testing.assert_array_equal(pc.g_evals, ref.g_evals)
    np.testing.assert_array_equal(pc.crossings, ref.crossings)
    assert pc.g_evals_total == G_EVALS_2024[name]


@pytest.mark.parametrize("name", sorted(WALK_DESIGNS))
def test_walk_side_is_sign_of_g(name):
    # at every canonical node up to 4096 the screened side is g <= 0,
    # on points at and next to the knots, at the clamp ends and below
    # the clamp, where the lowest knot bracket reaches down to 0 and the
    # screen decides some nodes too
    spec = WALK_DESIGNS[name]
    pts = edge_points(5)
    g, evals = _point_g(pts, spec)
    k = np.arange(len(pts))
    z3 = inv_norm(pts[:, 2])
    nodes = _bracket_nodes(_domain_start(spec.q), 4096.0)
    for n in nodes:
        np.testing.assert_array_equal(
            g.side(k, n), _g(pts[:, 0], pts[:, 1], z3, spec, n) <= 0.0)
    outside = (pts[:, :2] < CLAMP_LOW).any(axis=1)
    assert np.count_nonzero(outside) == 3 * 32  # u1, permuted u2, u2
    assert np.any(evals[outside] < len(nodes))
    assert evals.sum() < 0.25 * len(nodes) * len(pts)


def test_smallest_crossing_below_clamp_matches_unscreened():
    # smallest_crossing accepts u1, u2 below CLAMP_LOW, where a lowest
    # knot bound above 0 would be wrong: without the zero floor 72 of
    # these 300 points move, and the frozen one from 178.397... to 0.0
    spec = DESIGNS["near_limit"]
    rng = np.random.Generator(np.random.PCG64(5))
    u = np.column_stack([below_clamp(300, rng), below_clamp(300, rng),
                         rng.uniform(0.001, 0.999, 300)])
    got = np.array([smallest_crossing(p, spec).crossing_n for p in u])
    ref = unscreened_first_crossings(u, spec)
    np.testing.assert_array_equal(got, ref)
    assert np.count_nonzero(ref > 2.0) > 100
    frozen = (6.778601842092669e-40, 4.829169404455894e-22,
              0.14487129349419448)
    assert smallest_crossing(frozen, spec).crossing_n == 178.39715588968633


def test_walk_screen_uses_g_form_at_a_tie():
    # a cell whose upper se bound meets the threshold, se_hi == margin /
    # t_hi in floating point: g's form se <= Lambda decides it from the
    # bounds, TOST's form t * se < margin would not (equal there)
    n, u3 = 12.0, 0.5  # u3 = 0.5 puts d_bar at mu_diff = 0 exactly
    base = DesignSpec(0.0, 18.0, 15.0, -19.2, 19.2)
    lo, hi = _chisq_brackets(n - 1.0)
    t_hi = _t_band(base.alpha, n - 1.0, 2.0 * n - 2.0)[1]
    for j in range(1, _K - 1):
        u1, u2 = (j + 0.5) / _K, 0.5
        se_hi = _sample_se(hi[j], hi[_K // 2], base, n, n)[2]
        margin = t_hi * se_hi
        if se_hi <= margin / t_hi:
            break
    else:
        pytest.fail("no tie on the knots at n = 12")
    spec = DesignSpec(0.0, 18.0, 15.0, -margin, 2.0 * margin)
    assert _d_bar(inv_norm(u3), spec, n, n) == 0.0
    assert not t_hi * se_hi < margin
    g, evals = _point_g(np.array([[u1, u2, u3]]), spec)
    assert g.side(np.array([0]), n).tolist() == [True]
    assert evals[0] == 0
    assert g(np.array([0]), n)[0] <= 0.0


@settings(derandomize=True, max_examples=40, deadline=None)
@given(center=st.floats(-10.0, 10.0), half=st.floats(1.0, 30.0),
       frac=st.floats(-0.95, 0.95), sigma1=st.floats(0.5, 40.0),
       sigma2=st.floats(0.5, 40.0), q=st.floats(0.25, 4.0),
       alpha=st.one_of(st.just(0.5), st.floats(1e-3, 0.5)),
       anchor=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_property_screened_walk_equals_unscreened(center, half, frac, sigma1,
                                                  sigma2, q, alpha, anchor,
                                                  seed):
    # first crossings from the domain start, and the safeguard's walks up
    # and down from an anchor, match the unscreened walk to the bit
    spec = DesignSpec(center + frac * half, sigma1, sigma2, center - half,
                      center + half, alpha=alpha, q=q)
    m, B, tol = 128, 65536.0, 1e-6
    pts = sobol_stream(3, m, seed).points
    g, _ = _point_g(pts, spec)
    np.testing.assert_array_equal(first_crossings(g, m, spec, B, tol),
                                  unscreened_first_crossings(pts, spec))
    start = _domain_start(q)
    nodes = _bracket_nodes(start, B)
    anchor = start * 200.0 ** anchor
    f0 = g(np.arange(m), anchor)
    for k, walk, none in (
            (np.nonzero(f0 > 0.0)[0], [c for c in nodes if c > anchor],
             CENSORED),
            (np.nonzero(f0 <= 0.0)[0],
             [c for c in reversed(nodes) if c < anchor], start)):
        walk = [anchor] + walk
        np.testing.assert_array_equal(
            _crossings(g, k, walk, tol, none),
            unscreened_walk(g, k, walk, f0[k], tol, none))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(center=st.floats(-10.0, 10.0), half=st.floats(1.0, 30.0),
       frac=st.floats(-0.9, 0.9), ratio1=st.floats(0.1, 2.0),
       ratio2=st.floats(0.1, 2.0), q=st.floats(0.25, 4.0),
       alpha=st.one_of(st.just(0.5), st.floats(1e-3, 0.5)),
       target=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
def test_property_curve_crossings_equal_smallest_crossing(
        center, half, frac, ratio1, ratio2, q, alpha, target, seed):
    # every point the safeguard did not re-solve keeps the crossing that
    # the single-point solver finds, to the bit
    spec = DesignSpec(center + frac * half, ratio1 * half, ratio2 * half,
                      center - half, center + half, alpha=alpha, q=q)
    pc = power_curve(spec, target, 64, seed)
    pts = sobol_stream(3, 64, seed).points
    kept = np.nonzero(~pc.reinitialized)[0]
    assert len(kept) > 0
    for i in kept:
        assert smallest_crossing(pts[i], spec).crossing_n == pc.crossings[i]


def test_screened_walk_work_bound(motivating):
    # exact g evaluations per point on the benchmark's motivating curve:
    # 10.78 when every walking point took g at every node, 7.11 with the
    # knot screen deciding the walk and the safeguard's side at n*
    pc = power_curve(motivating, 0.8, 1024, 2024)
    assert pc.g_evals_total / pc.m <= 8.0


@pytest.mark.parametrize("name,tol", [(name, 1e-6) for name in sorted(DESIGNS)]
                         + [("near_limit", 1e-13)])
def test_crossings_satisfy_predicate(name, tol):
    # g <= 0 holds at every crossing above the domain start.  At tol =
    # 1e-13, Brent's stopping width near n = 300 is several tol, so some
    # roots are still positive after three nudges and the solver falls
    # back to the bracket's g <= 0 end
    spec = DESIGNS[name]
    pc = power_curve(spec, 0.8, 256, seed=20, tol=tol)
    pts = sobol_stream(3, 256, 20).points
    c = pc.crossings
    inner = np.isfinite(c) & (c > max(2.0, 2.0 / spec.q))
    assert np.count_nonzero(inner) > 128
    g = _g(pts[inner, 0], pts[inner, 1], inv_norm(pts[inner, 2]), spec,
           c[inner])
    assert np.all(g <= 0.0)


def test_alpha_half_rejects_exactly_inside_limits():
    # at alpha = 0.5 the t threshold is 0: Lambda is +inf where d_bar lies
    # inside the limits, so a trial rejects exactly there
    spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, alpha=0.5)
    m, seed = 256, 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pc = power_curve(spec, 0.8, m, seed=seed)
        assert smallest_crossing((0.5, 0.5, 0.5), spec).crossing_n == 2.0
    for n in range(2, 40):
        direct = empirical_power(spec, n, n, m, seed=seed)
        # points whose crossing lies within the root tolerance of n are
        # not clean: either side of n is a correct answer for them
        unclean = np.count_nonzero(np.abs(pc.crossings - n) <= 1e-5)
        assert abs(pc.ecdf(n) - direct) * m <= unclean


def test_alpha_half_refines_on_margin():
    # at alpha = 0.5, g jumps from se to -inf; refining on -margin, which
    # has g's sign, takes far fewer evaluations (up to 49 a point on g)
    # and moves no crossing by more than 2 tol
    spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, alpha=0.5)
    m, seed, tol = 1024, 3, 1e-6
    pc = power_curve(spec, 0.8, m, seed=seed, tol=tol)
    assert pc.g_evals.max() <= 24
    assert (pc.rec_n1, pc.rec_n2) == (3, 3)
    pts = sobol_stream(3, m, seed).points
    z3 = inv_norm(pts[:, 2])

    def g(k, n):  # refine on g itself, as before
        return _g(pts[k, 0], pts[k, 1], z3[k], spec, n)

    g.side = lambda k, n: g(k, n) <= 0.0
    on_g = first_crossings(g, m, spec, 65536.0, tol)
    assert np.all(np.abs(pc.crossings - on_g) <= 2.0 * tol)
    assert np.count_nonzero(pc.crossings != on_g) > 0
    inner = pc.crossings > 2.0
    assert np.all(_g(pts[inner, 0], pts[inner, 1], inv_norm(pts[inner, 2]),
                     spec, pc.crossings[inner]) <= 0.0)


def test_alpha_half_twin_inverts_no_chisq(monkeypatch):
    # Brent's g at alpha = 0.5 is -margin, which needs d_bar alone
    spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, alpha=0.5)
    pts = sobol_stream(3, 64, 5).points
    # g is in the units of `_unit`
    margin = _mapped(pts[:, 0], pts[:, 1], inv_norm(pts[:, 2]),
                     _unit(spec)[0], 7.5, 7.5)[1]
    g, evals = _point_g(pts, spec)

    def no_chisq(*args):
        raise AssertionError("inv_chisq called")

    monkeypatch.setattr(tost, "inv_chisq", no_chisq)
    values = g(np.arange(64), np.full(64, 7.5))
    assert np.array_equal(values, np.where(margin > 0.0, -margin,
                                           np.maximum(-margin, _TINY)))
    assert evals.tolist() == [1] * 64


def test_alpha_half_degenerate_sample_raises():
    # the twin no longer maps the variances, so the walk's side is what
    # meets a sample with both variances zero
    spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, alpha=0.5)
    with pytest.raises(ValueError, match="degenerate sample"):
        smallest_crossing((1e-300, 1e-300, 0.5), spec)


def test_alpha_half_work_bound():
    # at alpha = 0.5 the solver's g is the -margin twin, so Brent starts
    # from the end values of the walk's last step: 2.31 exact
    # evaluations per point when it evaluated a separate twin afresh at
    # both ends, 1.79 now
    spec = DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, alpha=0.5)
    pc = power_curve(spec, 0.8, 1024, 2024)
    assert pc.g_evals_total / pc.m <= 2.0
