import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from bepower.special import _TINY, inv_chisq, inv_norm, t_quantile

from oracles import chi2_cdf, norm_cdf, t_cdf

P_GRID = [1e-6, 1e-3, 0.025, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975, 0.999, 1 - 1e-6]
DF_GRID = [0.7, 1.5, 2.0, 7.3, 19.0, 74.2, 250.4]


def test_frozen_reference_values():
    # bisection on erfc / mpmath CDFs, frozen
    assert inv_norm(0.975) == pytest.approx(1.9599639845400542, rel=1e-12)
    assert inv_chisq(0.9, 2.5) == pytest.approx(5.4478801483836924, rel=1e-10)
    assert t_quantile(0.95, 10) == pytest.approx(1.8124611228116764, rel=1e-10)


@pytest.mark.parametrize("p", P_GRID)
def test_norm_round_trip(p):
    assert abs(norm_cdf(inv_norm(p)) - p) <= 1e-9


@pytest.mark.parametrize("df", DF_GRID)
def test_chisq_round_trip(df):
    for p in P_GRID:
        assert abs(chi2_cdf(inv_chisq(p, df), df) - p) <= 1e-9


@pytest.mark.parametrize("df", DF_GRID)
def test_t_round_trip(df):
    for p in P_GRID:
        assert abs(t_cdf(t_quantile(p, df), df) - p) <= 1e-9


def test_closed_form_identities():
    # chi-square with df=2 is exponential with mean 2
    for p in (0.1, 0.5, 0.9):
        assert inv_chisq(p, 2.0) == pytest.approx(-2.0 * math.log1p(-p), rel=1e-12)
    # chi-square with df=1 is a squared standard normal
    assert inv_chisq(0.6, 1.0) == pytest.approx(inv_norm(0.8) ** 2, rel=1e-12)
    # t with df=1 is Cauchy: quantile at 0.75 is exactly tan(pi/4) = 1
    assert t_quantile(0.75, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_symmetry():
    for p in (0.01, 0.2, 0.4):
        assert inv_norm(p) == pytest.approx(-inv_norm(1 - p), rel=1e-12)
        assert t_quantile(p, 6.5) == pytest.approx(-t_quantile(1 - p, 6.5), rel=1e-10)
    assert inv_norm(0.5) == 0.0
    assert t_quantile(0.5, 3.0) == 0.0


def test_t_approaches_normal():
    for p in (0.01, 0.05, 0.5, 0.9, 0.99):
        assert abs(t_quantile(p, 1e6) - inv_norm(p)) <= 1e-4


def hill_t(p, df):
    """The t quantile from Hill's expansion in 1 / df (Abramowitz and
    Stegun 26.7.5) at 40 digits: four terms leave a relative error near
    z ** 11 / df ** 5, below 1e-20 from df = 1e6 on."""
    with mp.workdps(40):
        z = mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)
        g = ((z ** 3 + z) / 4,
             (5 * z ** 5 + 16 * z ** 3 + 3 * z) / 96,
             (3 * z ** 7 + 19 * z ** 5 + 17 * z ** 3 - 15 * z) / 384,
             (79 * z ** 9 + 776 * z ** 7 + 1482 * z ** 5 - 1920 * z ** 3
              - 945 * z) / 92160)
        return float(z + sum(c / mp.mpf(df) ** k for k, c in enumerate(g, 1)))


@pytest.mark.parametrize("df", [1e6, 1e10, 1e17])
def test_t_at_large_df_matches_mpmath(df):
    # 1 - w cancelled here: 5e-10 relative at df = 1e8, t = 0 from 1e17
    for p in (1e-6, 0.025, 0.5 + 1e-9, 0.6, 0.95, 1 - 1e-6):
        ref = hill_t(p, df)
        assert t_quantile(p, df) == pytest.approx(ref, rel=2e-15, abs=0.0)


@pytest.mark.parametrize("df", [1e200, 1e300, math.inf])
def test_t_at_huge_df_is_the_normal_quantile(df):
    for p in (1e-6, 0.025, 0.5 + 1e-9, 0.95, 1 - 1e-6):
        assert t_quantile(p, df) == pytest.approx(inv_norm(p), rel=2e-15)


def test_t_keeps_its_bits_below_df_1e6():
    # every df below 1e6 takes the w form, bit for bit, at tails up to
    # 1/4: at p = 1 - alpha for the levels the package uses (0.05, and
    # 0.5, where t is 0 in either form), at the crossover's 1 - beta / 2
    # (beta = 0.2 at the default target power), and at the tail 1/4
    df = np.concatenate([np.geomspace(0.5, 1e6, 2001)[:-1],
                         [131071.0, 999999.0, np.nextafter(1e6, 0.0)]])
    for p in (1e-6, 0.025, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 1 - 1e-6):
        w = np.maximum(sp.betaincinv(0.5 * df, 0.5, 2.0 * min(p, 1 - p)),
                       _TINY)
        t = np.sqrt(df * (1.0 - w) / w)
        assert np.array_equal(t_quantile(p, df), t if p > 0.5 else -t)


def test_t_falls_with_df_across_the_switch():
    # the screens bound t by its values at the ends of a df range, with
    # a relative slack of 1e-8; the two forms meet far inside it
    df = np.geomspace(1e3, 1e300, 4001)
    for p in (0.6, 0.95, 1 - 1e-6):
        t = t_quantile(p, np.concatenate([df, [np.nextafter(1e6, 0.0),
                                               1e6]]))
        assert np.all(np.diff(t[:-2]) <= 1e-12 * t[1:-2])
        assert t[-1] == pytest.approx(t[-2], rel=1e-10)


def test_t_is_zero_at_the_centre():
    df = np.array([0.7, 2.0, 19.0, 1e5, 1e7, math.inf])
    t = t_quantile(0.5, df)
    assert np.all(t == 0.0) and not np.signbit(t).any()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(p=st.one_of(st.floats(0.5 + 1e-12, 0.5 + 1e-3),
                   st.floats(0.5 + 1e-3, 1.0 - 1e-9)),
       df=st.floats(0.5, 1e7))
def test_property_t_falls_with_df(p, df):
    # the screens bound t over a df range by its values at the ends,
    # with a relative slack of 1e-8; near p = 0.5 the w form rose with
    # df by up to 2e-4 relative, from cancellation in 1 - w.  The
    # complement form, at tails above 1/4, falls within 1e-12; the w
    # form, below that tail, rises by up to ~1e-10 only near df = 1e6
    steps = df * (1.0 + 1e-5 * np.arange(200))
    t = t_quantile(p, steps)
    bound = 1e-12 if p < 0.75 else 1e-9
    assert np.all(np.diff(t) <= bound * t[1:])


@pytest.mark.parametrize("alpha", [0.5 - 1e-6, 0.5 - 1e-4, 0.3])
def test_t_falls_with_df_near_the_centre(alpha):
    # a 0.01 grid over df 1 to 2000; at alpha = 0.5 - 1e-6 the w form
    # rose on 195,945 of its steps
    t = t_quantile(1.0 - alpha, np.arange(100, 200_001) / 100.0)
    assert np.all(np.diff(t) <= 1e-12 * t[1:])


def test_vectorized_and_monotone():
    p = np.asarray(P_GRID)
    for vals in (inv_norm(p), inv_chisq(p, 4.2), t_quantile(p, 9.0)):
        assert vals.shape == p.shape
        assert np.all(np.diff(vals) > 0)
    # scalar in, scalar out
    assert isinstance(inv_norm(0.3), float)
    assert isinstance(t_quantile(0.3, 5.0), float)


@pytest.mark.parametrize("bad_p", [0.0, 1.0, -0.2, 1.7, np.nan])
def test_rejects_p_outside_open_interval(bad_p):
    with pytest.raises(ValueError, match="strictly inside"):
        inv_norm(bad_p)
    with pytest.raises(ValueError, match="strictly inside"):
        inv_chisq(bad_p, 3.0)
    with pytest.raises(ValueError, match="strictly inside"):
        t_quantile(bad_p, 3.0)


@pytest.mark.parametrize("bad_df", [0.0, -1.0, np.nan])
def test_rejects_nonpositive_df(bad_df):
    with pytest.raises(ValueError):
        inv_chisq(0.5, bad_df)
    with pytest.raises(ValueError):
        t_quantile(0.5, bad_df)
