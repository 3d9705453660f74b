"""Two-group equivalence testing with unequal variances.

Houses the design parameterization, the Welch-Satterthwaite degrees of
freedom, the TOST rejection rule, and the quasi-Monte Carlo power
estimator.  The estimator never simulates raw data: each randomized
Sobol' point (u1, u2, u3) in the unit cube is mapped directly to the
sufficient statistics of one simulated trial (two sample variances via
chi-square quantiles, one mean difference via a normal quantile), and
power is the fraction of mapped statistics that land in the rejection
region.  Averaging over a digitally shifted sequence makes the estimate
unbiased, with far lower replicate variance than mapping pseudorandom
points.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .qrng import (CLAMP_HIGH, CLAMP_LOW, _check_count, _check_seed,
                   sobol_stream)
from .special import inv_chisq, inv_norm, t_quantile

__all__ = [
    "DesignSpec",
    "SummaryStats",
    "welch_df",
    "stats_from_point",
    "rejects",
    "empirical_power",
]

_TINY = np.finfo(float).tiny  # smallest normal double
# the largest x / df of a chi-square quantile x at df >= 1 and p <= CLAMP_HIGH
# (x / df falls with df), so sigma ** 2 * _X_PER_DF bounds every variance
_X_PER_DF = inv_chisq(CLAMP_HIGH, 1.0)


def _is_real(value):
    return (isinstance(value, numbers.Real)
            and not isinstance(value, (bool, np.bool_)))


def _finite(value):
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _design_problems(mu_diff, sigma1, sigma2, delta_L, delta_U, alpha, q):
    fields = (("mu_diff", mu_diff), ("sigma1", sigma1), ("sigma2", sigma2),
              ("delta_L", delta_L), ("delta_U", delta_U), ("alpha", alpha),
              ("q", q))
    problems = [f"{name} must be a real number" for name, value in fields
                if not _is_real(value)]
    if problems:
        return problems
    problems = [f"{name} must be finite" for name, value in fields
                if not _finite(value)]
    if problems:
        return problems
    for name, sigma in (("sigma1", sigma1), ("sigma2", sigma2)):
        square = float(sigma) * float(sigma)
        if sigma <= 0.0:
            problems.append(f"{name} must be positive")
        elif math.isinf(square):
            problems.append(f"{name} ** 2 overflows")
        elif math.isinf(square * _X_PER_DF):
            problems.append(f"{name} ** 2 * {_X_PER_DF:.2f}, the largest "
                            "sample variance, overflows")
        elif square < _TINY:
            problems.append(f"{name} ** 2 underflows")
    if not delta_L < delta_U:
        problems.append("delta_L must be less than delta_U")
    if not 0.0 < alpha <= 0.5:
        problems.append("alpha must lie in (0, 0.5]")
    if q <= 0.0:
        problems.append("q must be positive")
    return problems


@dataclass(frozen=True)
class DesignSpec:
    """Parameterization of a two-group equivalence design.

    Attributes
    ----------
    mu_diff : float
        Anticipated mean difference mu1 - mu2, in response units.
    sigma1, sigma2 : float
        Group standard deviations, positive, with squares in the range
        of normal doubles (the variances are built from sigma ** 2).
        The largest sample variance a unit-cube point can map to is
        about 68.76 * sigma ** 2, so that product must be finite too
        (sigma below about 1.6e153).
    delta_L, delta_U : float
        Equivalence limits, delta_L < delta_U.
    alpha : float
        Significance level of each one-sided test, in (0, 0.5].  Values
        above 0.5 would flip the sign of the t threshold and with it the
        geometry of the rejection region, so they are rejected.
    q : float
        Allocation ratio: a trial with n subjects in group 1 assigns
        q * n to group 2.

    Raises
    ------
    ValueError
        If any field is not a real number (bools are not) or any
        constraint is violated.  The message lists every violated
        constraint, not just the first.
    """

    mu_diff: float
    sigma1: float
    sigma2: float
    delta_L: float
    delta_U: float
    alpha: float = 0.05
    q: float = 1.0

    def __post_init__(self):
        problems = _design_problems(self.mu_diff, self.sigma1, self.sigma2,
                                    self.delta_L, self.delta_U, self.alpha, self.q)
        if problems:
            raise ValueError("invalid design: " + "; ".join(problems))

    def scaled(self, c):
        """The design with all response-unit quantities multiplied by c > 0."""
        return DesignSpec(self.mu_diff * c, self.sigma1 * c, self.sigma2 * c,
                          self.delta_L * c, self.delta_U * c, self.alpha, self.q)

    def shifted(self, c):
        """The design with mu_diff and both limits translated by c."""
        return DesignSpec(self.mu_diff + c, self.sigma1, self.sigma2,
                          self.delta_L + c, self.delta_U + c, self.alpha, self.q)


def require_curve_spec(spec):
    """Check the extra precondition for power curves: H1 is true."""
    if not spec.delta_L < spec.mu_diff < spec.delta_U:
        raise ValueError(
            "mu_diff must lie strictly between delta_L and delta_U "
            "for power-curve estimation")


@dataclass(frozen=True)
class SummaryStats:
    """Sufficient statistics of one simulated trial.

    d_bar is the observed mean difference, s1_sq and s2_sq the sample
    variances, se the standard error of d_bar, and nu the Welch degrees
    of freedom.
    """

    d_bar: float
    s1_sq: float
    s2_sq: float
    se: float
    nu: float


def welch_df(s1_sq, s2_sq, n1, n2):
    """Welch-Satterthwaite degrees of freedom.

    Accepts real-valued n1, n2 >= 2 (the sample-size search treats n as
    continuous) and arrays for the variances.

    Raises
    ------
    ValueError
        If any (s1_sq, s2_sq) pair is (0, 0), which leaves the degrees
        of freedom undefined.
    """
    a = np.asarray(s1_sq, dtype=float) / n1
    b = np.asarray(s2_sq, dtype=float) / n2
    if np.any((a == 0.0) & (b == 0.0)):
        raise ValueError("degenerate sample: both variances are zero")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = _satterthwaite(a, b, n1, n2)
    finite = np.isfinite(out)
    if not finite.all():
        # a * a overflowed or underflowed; nu is scale-free, so rescale
        c = np.maximum(a, b)
        out = np.where(finite, out, _satterthwaite(a / c, b / c, n1, n2))
    return out if out.ndim else float(out)


def _satterthwaite(a, b, n1, n2):
    # s * s, not (a + b) ** 2: on a numpy scalar ** calls libm pow, which
    # can differ in the last bit from the product that arrays use
    s = a + b
    return s * s / (a * a / (n1 - 1.0) + b * b / (n2 - 1.0))


def _variance(sigma, x, n):
    """sigma ** 2 * x / (n - 1), or sigma ** 2 * (x / (n - 1)) where the
    product overflows; x / (n - 1) is at most _X_PER_DF for a quantile,
    so `DesignSpec` keeps the second form finite.  A quantile, or a
    bound on one, is below 2 * _X_PER_DF * (n - 1), so the product cannot
    overflow (nor need a check) where that times sigma ** 2 is finite."""
    top = n.max(initial=-math.inf) if isinstance(n, np.ndarray) else n
    if 2.0 * float(sigma) ** 2 * _X_PER_DF * (float(top) - 1.0) < math.inf:
        return sigma ** 2 * x / (n - 1.0)
    with np.errstate(over="ignore"):
        s_sq = sigma ** 2 * x / (n - 1.0)
        if np.isinf(s_sq).any():
            s_sq = np.where(np.isinf(s_sq), sigma ** 2 * (x / (n - 1.0)),
                            s_sq)
    return s_sq


def _sample_se(x1, x2, spec, n1, n2):
    """(s1_sq, s2_sq, se) from chi-square quantiles x1 at n1 - 1 and x2
    at n2 - 1 df.  Each rounded operation is monotone, so bounds on x1
    and x2 give bounds on se."""
    s1_sq = _variance(spec.sigma1, x1, n1)
    s2_sq = _variance(spec.sigma2, x2, n2)
    return s1_sq, s2_sq, np.sqrt(s1_sq / n1 + s2_sq / n2)


def _d_bar(z3, spec, n1, n2):
    return spec.mu_diff + z3 * np.sqrt(spec.sigma1 ** 2 / n1
                                       + spec.sigma2 ** 2 / n2)


def _margin(d_bar, spec):
    return np.minimum(d_bar - spec.delta_L, spec.delta_U - d_bar)


def _trial(u1, u2, z3, spec, n1, n2):
    """The point -> statistics map, (d_bar, s1_sq, s2_sq, se, nu), with
    z3 = inv_norm(u3).  Arguments broadcast like ufuncs; n1 and n2 may
    be real and may differ per element."""
    s1_sq, s2_sq, se = _sample_se(inv_chisq(u1, n1 - 1.0),
                                  inv_chisq(u2, n2 - 1.0), spec, n1, n2)
    return (_d_bar(z3, spec, n1, n2), s1_sq, s2_sq, se,
            welch_df(s1_sq, s2_sq, n1, n2))


def _mapped(u1, u2, z3, spec, n1, n2):
    """The array kernel of mapped statistics, (se, margin, nu): a trial
    rejects when margin = min(d_bar - delta_L, delta_U - d_bar) > 0 and
    t_quantile(1 - alpha, nu) * se < margin."""
    d_bar, _, _, se, nu = _trial(u1, u2, z3, spec, n1, n2)
    return se, _margin(d_bar, spec), nu


def _check_point(u):
    """u as a float array of shape (3,); a ValueError unless it has 3
    coordinates, each strictly inside (0, 1)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (3,) or not np.all((0.0 < u) & (u < 1.0)):
        raise ValueError("u must be 3 coordinates strictly inside (0, 1)")
    return u


def stats_from_point(u, spec, n1, n2):
    """Map one unit-cube point to the sufficient statistics of a trial.

    Parameters
    ----------
    u : sequence of 3 floats
        Coordinates strictly inside (0, 1).  u[0] and u[1] drive the
        group variances, u[2] the mean difference.
    spec : DesignSpec
    n1, n2 : float
        Group sizes, real-valued, both >= 2.

    Returns
    -------
    SummaryStats

    Raises
    ------
    ValueError
        If u is not 3 coordinates strictly inside (0, 1), or n1 or n2
        is not a finite real number >= 2 (an int beyond the float range
        is not).
    """
    u = _check_point(u)
    for name, n in (("n1", n1), ("n2", n2)):
        if not (_is_real(n) and _finite(n) and n >= 2.0):
            raise ValueError(f"{name} must be a real number >= 2, and finite")
    stats = _trial(float(u[0]), float(u[1]), inv_norm(float(u[2])), spec,
                   n1, n2)
    return SummaryStats(*map(float, stats))


def _tost_in(se, margin, t):
    """TOST rejects: t * se < margin, with t the upper-alpha t quantile."""
    return t * se < margin


def _threshold(margin, t):
    """Lambda = margin / t where margin > 0, and 0 elsewhere; +inf where
    margin > 0 and t = 0 (alpha = 0.5)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(margin > 0.0, margin / t, 0.0)


def _g_in(se, margin, t):
    """g = se - Lambda <= 0: the curve solver's side of zero.  Not the
    same as `_tost_in` in floating point; crossings follow this form."""
    return se <= _threshold(margin, t)


def _screen(in_region, se, margin, t):
    """Decide in_region(se, margin, t) from bounds, each a (lo, hi) pair:
    se_lo <= se <= se_hi, margin_lo <= margin <= margin_hi and
    t_lo <= t <= t_hi.  Returns (decided_in, open).

    Both predicates grow harder to meet as se or t grows and easier as
    margin grows, and rounded multiplication and division are
    monotone, so a cell in the region at the corner
    (se_hi, margin_lo, t_hi) is in it at every point of its bounds, and
    one outside it at (se_lo, margin_hi, t_lo) is outside at all of
    them: these decisions are exact.  A corner whose value is NaN
    (0 * inf at alpha = 0.5 and se_lo = inf) reads as outside, as the
    exact value does, since se >= se_lo = inf.  Open cells take the
    caller's exact path.
    """
    (se_lo, se_hi), (margin_lo, margin_hi), (t_lo, t_hi) = se, margin, t
    decided_in = in_region(se_hi, margin_lo, t_hi)
    return decided_in, ~decided_in & in_region(se_lo, margin_hi, t_lo)


def rejects(stats, spec):
    """TOST rejection decision for one set of summary statistics.

    Both one-sided Welch tests reject exactly when

        t_quantile(1 - alpha, nu) * se < min(d_bar - delta_L,
                                             delta_U - d_bar),

    i.e. when (d_bar, se) falls inside the triangle with base
    (delta_L, 0) to (delta_U, 0) and apex at the limits' midpoint.
    """
    margin = min(stats.d_bar - spec.delta_L, spec.delta_U - stats.d_bar)
    if margin <= 0.0:
        return False
    return bool(_tost_in(stats.se, margin,
                         t_quantile(1.0 - spec.alpha, stats.nu)))


def _unit_cube_points(m, seed, sampler):
    """The (m, 3) unit-cube points of (m, seed, sampler) and z3 =
    inv_norm of their third coordinate, both read-only.

    Only the quantiles of the sizes depend on n, so every call at one
    (m, seed, sampler) maps the same points: the last one's arrays are
    cached (about 2 MB at m = 65536).  The arguments are checked and
    normalized first, so that seed=True or 1.0 cannot pass as the key 1
    and an unhashable sampler raises ValueError, not TypeError.
    """
    m = _check_count("m", m)
    if not (isinstance(sampler, str) and sampler in ("sobol", "prng")):
        raise ValueError("sampler must be 'sobol' or 'prng'")
    return _cached_points(m, _check_seed(seed), str(sampler))


@functools.lru_cache(maxsize=1)
def _cached_points(m, seed, sampler):
    if sampler == "sobol":
        u = sobol_stream(3, m, seed).points
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        u = np.clip(rng.random((m, 3)), CLAMP_LOW, CLAMP_HIGH)
        u.setflags(write=False)
    z3 = inv_norm(u[:, 2])
    z3.setflags(write=False)
    return u, z3


# relative slack of the t band and of the chi-square brackets; far above
# the kernels' error, far below the spread of margin / se, so few points
# fall between the bounds
_SLACK = 1e-8
# chi-square knots j / _K; a power of two, so floor(u * _K) is exact
_K = 1024
_KNOTS = np.concatenate([[CLAMP_LOW], np.arange(1, _K) / _K, [CLAMP_HIGH]])
# t knots per table of `_t_table`, evenly spaced in df
_J = 64


def _t_band(alpha, n1, n2):
    """Bounds (lo, hi) on t_quantile(1 - alpha, nu) over every Welch df
    nu of groups n1, n2 (arrays broadcast).

    nu lies in [min(n1, n2) - 1, n1 + n2 - 2] and the quantile falls as
    nu grows, so the quantiles at the two ends bound it; the relative
    slack _SLACK covers the kernel's ~1e-10 error and a df that
    rounding puts a hair outside the interval.  At alpha = 0.5 both are 0.
    """
    n1, n2 = np.asarray(n1, dtype=float), np.asarray(n2, dtype=float)
    t = t_quantile(1.0 - alpha, np.stack([n1 + n2 - 2.0,
                                          np.minimum(n1, n2) - 1.0]))
    return t[0] * (1.0 - _SLACK), t[1] * (1.0 + _SLACK)


@functools.lru_cache(maxsize=256)
def _t_table(alpha, n1, n2):
    """t_quantile(1 - alpha, nu) at _J + 1 evenly spaced knots nu over
    the Welch range [min(n1, n2) - 1, n1 + n2 - 2] of scalar sizes n1,
    n2.  Both end knots are exact, so the ends are the quantiles of
    `_t_band`.  The estimator and the curve walk meet the same sizes
    call after call, so the tables are cached, read-only since every
    caller shares them.
    """
    nu = np.linspace(min(n1, n2) - 1.0, n1 + n2 - 2.0, _J + 1)
    t = t_quantile(1.0 - alpha, nu)
    t.setflags(write=False)
    return t


def _cell_t_band(alpha, n1, n2, s1_sq, s2_sq):
    """Bounds (lo, hi) on t_quantile(1 - alpha, nu) for cells whose
    variances lie in s1_sq = (lo, hi) and s2_sq = (lo, hi), at scalar
    sizes n1, n2, read from the knots of `_t_table`.

    With a = s1_sq / n1 and b = s2_sq / n2, the Welch df depends on
    w = a / (a + b) alone, nu = 1 / (w ** 2 / (n1 - 1)
    + (1 - w) ** 2 / (n2 - 1)): it rises from n2 - 1 at w = 0 to
    n1 + n2 - 2 at w* = (n1 - 1) / (n1 + n2 - 2), then falls to n1 - 1
    at w = 1.  w rises with a and falls with b, so nu is lowest at one
    end of [w_lo, w_hi] and highest at w* if that holds it, else at an
    end.  w is formed as 1 / (1 + b / a), which no scale of the
    variances overflows; a zero a_lo gives w_lo = 0 and a zero b_lo
    w_hi = 1, their limits, and 0 / 0 the whole of [0, 1].  The df
    bounds widen by _SLACK, and the quantiles at the knots around them,
    widened by _SLACK too, bound t.
    """
    (s1_lo, s1_hi), (s2_lo, s2_hi) = s1_sq, s2_sq
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w_lo = np.fmax(1.0 / (1.0 + (s2_hi / n2) / (s1_lo / n1)), 0.0)
        w_hi = np.fmin(1.0 / (1.0 + (s2_lo / n2) / (s1_hi / n1)), 1.0)
    nu_lo, nu_hi = min(n1, n2) - 1.0, n1 + n2 - 2.0
    nu = [1.0 / (w * w / (n1 - 1.0) + (1.0 - w) * (1.0 - w) / (n2 - 1.0))
          for w in (w_lo, w_hi)]
    peak = (w_lo <= (n1 - 1.0) / nu_hi) & ((n1 - 1.0) / nu_hi <= w_hi)
    lo = np.fmax(np.minimum(*nu) * (1.0 - _SLACK), nu_lo)
    hi = np.where(peak, nu_hi, np.fmin(np.maximum(*nu) * (1.0 + _SLACK),
                                       nu_hi))
    # the quantile falls as nu grows: the knot at or below lo bounds it
    # from above, the knot at or above hi from below
    scale = _J / (nu_hi - nu_lo)
    t = _t_table(alpha, n1, n2)
    return (t[np.minimum(np.ceil((hi - nu_lo) * scale), _J).astype(np.intp)]
            * (1.0 - _SLACK),
            t[np.floor((lo - nu_lo) * scale).astype(np.intp)]
            * (1.0 + _SLACK))


@functools.lru_cache(maxsize=256)
def _chisq_brackets(df):
    """Bounds (lo, hi), each of shape (_K,), on inv_chisq(p, df) for every
    p in (0, 1): with i = floor(p * _K),
    lo[i] <= inv_chisq(p, df) <= hi[i].

    The quantile rises with p, so its values at knots i and i + 1 bound
    it; the relative slack _SLACK covers the kernel's error.  The lowest
    lower bound is 0, and the top knot CLAMP_HIGH is the largest double
    below 1, so the bounds hold for every p in (0, 1), below the clamp
    too; every other bound is finite and positive.

    Three screens read the tables, through `_knot_bounds`: the
    estimator and the curve walk at the sizes of each `_decide` call,
    and the integer scans at every block end of their grid.  The
    tables recur across calls, so up to 256 (16 KB each, 4 MB in all)
    are cached, read-only since every caller shares them.  A scan needs
    one table per distinct end df: 165 for q = 1.5 at n_max = 1e5,
    about as long a grid as a chunk of scan points holds in memory, so
    one scan never evicts a table it needs again.
    """
    x = inv_chisq(_KNOTS, df)
    brackets = x[:-1] * (1.0 - _SLACK), x[1:] * (1.0 + _SLACK)
    brackets[0][0] = 0.0
    for bound in brackets:
        bound.setflags(write=False)
    return brackets


def _knot_bounds(u, df):
    """Bounds (lo, hi) on inv_chisq(u, df) from the knot tables of
    `_chisq_brackets`: elementwise over u at a scalar df, and of shape
    (len(u), len(df)) for a 1-d array of df."""
    i = (u * _K).astype(np.intp)
    if np.ndim(df) == 0:
        lo, hi = _chisq_brackets(df)
        return lo[i], hi[i]
    tables = [_chisq_brackets(d) for d in df]
    return tuple(np.array([t[side][i] for t in tables]).T for side in (0, 1))


def _exact_in(in_region, u1, u2, z3, spec, n1, n2, band):
    """in_region(se, margin, t) for cells (u1, u2, z3 = inv_norm(u3)) at
    sizes n1, n2 (arrays broadcast), from their exact statistics, and
    their se.

    `_screen` decides a cell from the caller's t band (lo, hi), which
    must bound t at the cell, and the cells it leaves open take their
    own t quantile.  At alpha = 0.5 the band decides every cell.
    """
    se, margin, nu = _mapped(u1, u2, z3, spec, n1, n2)
    flags, open_ = _screen(in_region, (se, se), (margin, margin), band)
    amb = np.nonzero(open_)
    flags[amb] = in_region(se[amb], margin[amb],
                           t_quantile(1.0 - spec.alpha, nu[amb]))
    return flags, se


def _decide(in_region, u1, u2, z3, spec, n1, n2):
    """Decide in_region(se, margin, t) for points (u1, u2, z3 =
    inv_norm(u3)) at scalar sizes n1, n2, with quantiles of their own
    only where bounds leave the answer open.

    The knot brackets of `_chisq_brackets`, carried through
    `_sample_se`, bound se, the end knots of `_t_table` bound t over the
    whole Welch range, and `_screen` decides.  The cells that band
    leaves open, and those with se_lo = 0 (so that a degenerate sample
    still raises in `welch_df`), are screened again with the t band of
    their own df bounds (`_cell_t_band`), and only the cells still open
    take `_exact_in`, each with its band.  At m = 65536 on the benchmark
    designs the first band leaves up to about 11% of the cells open (at
    n = 5, q = 1.5) and the second under 0.3%.  Returns (flags, exact),
    exact the indices evaluated exactly.
    """
    margin = _margin(_d_bar(z3, spec, n1, n2), spec)
    lo1, hi1 = _knot_bounds(u1, n1 - 1.0)
    lo2, hi2 = _knot_bounds(u2, n2 - 1.0)
    t = _t_table(spec.alpha, n1, n2)
    with np.errstate(over="ignore", invalid="ignore"):
        s1_lo, s2_lo, se_lo = _sample_se(lo1, lo2, spec, n1, n2)
        s1_hi, s2_hi, se_hi = _sample_se(hi1, hi2, spec, n1, n2)
        flags, open_ = _screen(in_region, (se_lo, se_hi), (margin, margin),
                               (t[-1] * (1.0 - _SLACK), t[0] * (1.0 + _SLACK)))
        zero = se_lo == 0.0
        k = np.nonzero(open_ | zero)[0]
        band = _cell_t_band(spec.alpha, n1, n2, (s1_lo[k], s1_hi[k]),
                            (s2_lo[k], s2_hi[k]))
        flags[k], open_ = _screen(in_region, (se_lo[k], se_hi[k]),
                                  (margin[k], margin[k]), band)
    keep = open_ | zero[k]
    exact = k[keep]
    if len(exact):  # an empty call still pays the kernels' checks
        flags[exact] = _exact_in(in_region, u1[exact], u2[exact], z3[exact],
                                 spec, n1, n2,
                                 (band[0][keep], band[1][keep]))[0]
    return flags, exact


def _rejection_flags(u, z3, spec, n1, n2):
    """Vectorized rejection decisions for an (m, 3) block of points u,
    with z3 = inv_norm(u[:, 2]).

    Elementwise identical to stats_from_point followed by rejects,
    without the chi-square and t quantiles for most points (see
    `_decide`).
    """
    return _decide(_tost_in, u[:, 0], u[:, 1], z3, spec, float(n1),
                   float(n2))[0]


def empirical_power(spec, n1, n2, m, seed, sampler="sobol"):
    """Estimate TOST power by mapping randomized points to statistics.

    Parameters
    ----------
    spec : DesignSpec
    n1, n2 : int
        Group sizes, both >= 2.
    m : int
        Number of unit-cube points.
    seed : int
        Seed for the digital shift (or for the pseudorandom sampler).
    sampler : {'sobol', 'prng'}
        Point source.  'sobol' is the default and what the variance
        claims are about; 'prng' maps ordinary pseudorandom uniforms
        through the same machinery and exists for precision
        comparisons.

    Returns
    -------
    float
        Rejection fraction; m * power is an exact integer count.

    Notes
    -----
    Each decision is the one stats_from_point followed by rejects would
    make, but the chi-square and t quantiles are inverted only for the
    points whose decision depends on their exact values (see
    `_rejection_flags`): at m = 65536 on the benchmark designs, at most
    about 0.3% of the points (n = 3 to 20) and under 0.1% from n = 30
    on.

    The points and the normal quantiles of their third coordinate
    depend only on (m, seed, sampler), so those of the last such triple
    are kept and reused: a run over several n at one seed, as in
    Table 1, builds its stream once.
    """
    # one observation cannot estimate a variance
    n1, n2 = _check_count("n1", n1, 2), _check_count("n2", n2, 2)
    u, z3 = _unit_cube_points(m, seed, sampler)
    return int(np.count_nonzero(_rejection_flags(u, z3, spec, n1,
                                                 n2))) / len(u)
