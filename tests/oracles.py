"""Reference routines used to cross-check the package.

The distribution functions go through a different route than
``bepower.special``: forward CDFs via ``math.erfc`` and mpmath's
incomplete gamma/beta functions at 30 significant digits, and inverses
by plain bisection.  Slow, but independent, which is the point.

`decide_gather_first` is the estimator's screen in its earlier form,
which gathers the chi-square brackets per point and transforms them
there; the table-first `bepower.tost._decide` must match it bit for bit.
"""

import math

import mpmath as mp
import numpy as np

from bepower.tost import (_SLACK, _cell_t_band, _chisq_brackets, _d_bar,
                          _exact_in, _knot_index, _margin, _sample_se,
                          _screen, _t_table)

mp.mp.dps = 30


def norm_cdf(z):
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def chi2_cdf(x, df):
    """Chi-square CDF as a regularized lower incomplete gamma."""
    if x <= 0:
        return 0.0
    return float(mp.gammainc(mp.mpf(df) / 2, 0, mp.mpf(x) / 2, regularized=True))


def t_cdf(t, df):
    """Student t CDF via the regularized incomplete beta function."""
    df = mp.mpf(df)
    x = df / (df + mp.mpf(t) ** 2)
    tail = mp.betainc(df / 2, mp.mpf(1) / 2, 0, x, regularized=True) / 2
    return float(tail if t < 0 else 1 - tail)


def _bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def inv_norm_ref(p):
    return _bisect(lambda z: norm_cdf(z) - p, -40.0, 40.0)


def inv_chisq_ref(p, df):
    hi = 8.0 * (df + 20.0)
    while chi2_cdf(hi, df) < p:
        hi *= 4.0
    return _bisect(lambda x: chi2_cdf(x, df) - p, 0.0, hi)


def t_quantile_ref(p, df):
    hi = 1e4
    while t_cdf(hi, df) < p and hi < 1e300:
        hi *= 1e4
    return _bisect(lambda t: t_cdf(t, df) - p, -hi, hi, iters=300)


def decide_gather_first(in_region, u1, u2, z3, spec, n1, n2):
    """(flags, exact) of `bepower.tost._decide`, with the se and
    variance bounds formed per point from the knot brackets of
    `_chisq_brackets`, gathered at the points' own knot indices."""
    margin = _margin(_d_bar(z3, spec, n1, n2), spec)
    lo1, hi1 = (b[_knot_index(u1)] for b in _chisq_brackets(n1 - 1.0))
    lo2, hi2 = (b[_knot_index(u2)] for b in _chisq_brackets(n2 - 1.0))
    t = _t_table(spec.alpha, n1, n2)
    with np.errstate(over="ignore", invalid="ignore"):
        s1_lo, s2_lo, se_lo = _sample_se(lo1, lo2, spec, n1, n2)
        s1_hi, s2_hi, se_hi = _sample_se(hi1, hi2, spec, n1, n2)
        flags, open_ = _screen(in_region, (se_lo, se_hi), (margin, margin),
                               (t[-1] * (1.0 - _SLACK), t[0] * (1.0 + _SLACK)))
        zero = se_lo == 0.0
        k = np.nonzero(open_ | zero)[0]
        band = _cell_t_band(spec.alpha, n1, n2,
                            (s1_lo[k] / n1, s1_hi[k] / n1),
                            (s2_lo[k] / n2, s2_hi[k] / n2))
        flags[k], open_ = _screen(in_region, (se_lo[k], se_hi[k]),
                                  (margin[k], margin[k]), band)
    keep = open_ | zero[k]
    exact = k[keep]
    if len(exact):
        flags[exact] = _exact_in(in_region, u1[exact], u2[exact], z3[exact],
                                 spec, n1, n2,
                                 (band[0][keep], band[1][keep]))[0]
    return flags, exact
