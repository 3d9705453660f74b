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

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .qrng import (CLAMP_HIGH, CLAMP_LOW, _check_count, _check_seed,
                   _read_only, _shared_cache, sobol_stream)
from .special import inv_chisq, inv_norm, t_quantile

__all__ = [
    "DesignSpec",
    "SummaryStats",
    "welch_df",
    "stats_from_point",
    "rejects",
    "empirical_power",
]

def _is_real(value):
    return (isinstance(value, numbers.Real)
            and not isinstance(value, (bool, np.bool_)))


def _finite(value):
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _design_problems(mu_diff, sigma1, sigma2, delta_L, delta_U, alpha, q,
                     sd_divisor=1.0):
    """Every violated constraint of a design, as messages.  The design
    computed has sigmas sigma / sd_divisor (2 for a crossover's group
    design), and its unit form (`_unit`) must keep each response field
    exactly, mu_diff and the limits below 2 ** 1023 so that no
    difference of two overflows."""
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
    # the rest is checked on the floats that `_check_spec` stores
    fields = [(name, float(value)) for name, value in fields]
    mu_diff, sigma1, sigma2, delta_L, delta_U, alpha, q = dict(fields).values()
    problems = [f"{name} must be positive" for name, v in fields[1:3] if v <= 0]
    if not problems:
        e = math.frexp(max(sigma1, sigma2) / sd_divisor)[1]
        problems = [f"{name} is lost in units of 2 ** {e}, the scale of "
                    "max(sigma1, sigma2) (inexact, or at least 2 ** 1023)"
                    for (name, value), d in zip(fields, (1, sd_divisor,
                                                         sd_divisor, 1, 1))
                    if value and (math.frexp(value)[1] - e > 1023 or value != d
                                  * math.ldexp(math.ldexp(value / d, -e), e))]
    if not delta_L < delta_U:
        problems.append("delta_L must be less than delta_U")
    if not 0.0 < alpha <= 0.5:
        problems.append("alpha must lie in (0, 0.5]")
    elif 1.0 - alpha == 1.0:
        problems.append("alpha must exceed 2 ** -54, or 1 - alpha rounds "
                        "to 1")
    if q <= 0.0:
        problems.append("q must be positive")
    return problems


def _check_spec(spec, what, sd_divisor=1.0):
    """Check a frozen spec with the fields of `DesignSpec`, the first
    three under its own names (F, sigma_D1 and sigma_D2 for a
    `CrossoverSpec`): raise a ValueError that lists, in those names,
    every constraint `_design_problems` finds violated, or else store
    every field as a Python float, so that a Fraction, a numpy scalar or
    an int computes as the float it rounds to."""
    fields = vars(spec)
    problems = _design_problems(*fields.values(), sd_divisor=sd_divisor)
    if problems:
        for old, new in zip(("mu_diff", "sigma1", "sigma2"), fields):
            problems = [p.replace(old, new) for p in problems]
        raise ValueError(f"invalid {what}: " + "; ".join(problems))
    for name, value in fields.items():
        object.__setattr__(spec, name, float(value))


def _check_group2(q, n, name="n"):
    """A ValueError, naming q, where the group-2 size q * n of a size n
    overflows the float range."""
    if math.isinf(q * n):
        raise ValueError(f"q * {name} = {q:g} * {n:g} overflows the float "
                         "range")


@dataclass(frozen=True)
class DesignSpec:
    """Parameterization of a two-group equivalence design.

    Attributes
    ----------
    mu_diff : float
        Anticipated mean difference mu1 - mu2, in response units.
    sigma1, sigma2 : float
        Group standard deviations, positive.
    delta_L, delta_U : float
        Equivalence limits, delta_L < delta_U.
    alpha : float
        Significance level of each one-sided test, in (0, 0.5].  Values
        above 0.5 would flip the sign of the t threshold and with it the
        geometry of the rejection region, so they are rejected, and so
        are values up to 2 ** -54, for which 1 - alpha rounds to 1.
    q : float
        Allocation ratio: a trial with n subjects in group 1 assigns
        q * n to group 2.

    Every field accepts any real number but a bool (an int, a
    Fraction, a numpy scalar) and is stored as the Python float it
    rounds to, on which the constraints are checked.

    Designs are computed in units of 2 ** e, the scale of max(sigma1,
    sigma2) (see `_unit`), so any positive sigmas are accepted, and any
    mu_diff and limits, that those units keep exactly, mu_diff and the
    limits below 2 ** 1023 in them; the outputs of `scaled(2.0 ** k)`
    are those of the design itself.

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
        _check_spec(self, "design")

    def scaled(self, c):
        """The design with all response-unit quantities multiplied by c > 0."""
        return DesignSpec(self.mu_diff * c, self.sigma1 * c, self.sigma2 * c,
                          self.delta_L * c, self.delta_U * c, self.alpha, self.q)

    def shifted(self, c):
        """The design with mu_diff and both limits translated by c."""
        return DesignSpec(self.mu_diff + c, self.sigma1, self.sigma2,
                          self.delta_L + c, self.delta_U + c, self.alpha, self.q)


def _unit(spec):
    """(unit, e): the design with mu_diff, sigma1, sigma2, delta_L and
    delta_U divided by 2 ** e, e the exponent of max(sigma1, sigma2)
    (`math.frexp`), so that the larger sigma lies in [0.5, 1) and no
    variance, se or g can overflow.

    Every statistic scales with these fields: d_bar, se, margin,
    Lambda and g by 2 ** e, the variances by 2 ** 2e, and the Welch df
    and every decision not at all.  Dividing by a power of two is exact,
    so the unit form changes no bit where the design's own units meet
    no overflow or subnormal, and the outputs of `spec.scaled(2.0 ** k)`
    equal those of spec.  `_design_problems` rejects a design whose unit
    form loses a field.  The entry points call this; the kernels take
    the unit form.
    """
    e = math.frexp(max(spec.sigma1, spec.sigma2))[1]
    *response, alpha, q = vars(spec).values()
    return DesignSpec(*(math.ldexp(v, -e) for v in response), alpha, q), e


def _in_units(values, e):
    """values * 2 ** e, e broadcasting: statistics of `_unit`'s form back
    in the design's units, inf where that overflows (its rounding)."""
    with np.errstate(over="ignore"):
        return np.ldexp(values, e)


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
    # nu is scale-free, so a and b are divided by a power of two that
    # puts the larger in [0.5, 1): exact, and no square overflows
    e = np.frexp(np.maximum(a, b))[1]
    a, b = np.ldexp(a, -e), np.ldexp(b, -e)
    # s * s, not (a + b) ** 2: on a numpy scalar ** calls libm pow, which
    # can differ in the last bit from the product that arrays use
    s = a + b
    # at n near the float range nu itself overflows, and inf is its
    # rounding
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = s * s / (a * a / (n1 - 1.0) + b * b / (n2 - 1.0))
    return out if out.ndim else float(out)


def _sample_se(x1, x2, spec, n1, n2):
    """(s1_sq, s2_sq, se) from chi-square quantiles x1 at n1 - 1 and x2
    at n2 - 1 df.  Each rounded operation is monotone, so bounds on x1
    and x2 give bounds on se."""
    s1_sq = spec.sigma1 ** 2 * x1 / (n1 - 1.0)
    s2_sq = spec.sigma2 ** 2 * x2 / (n2 - 1.0)
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
        In the design's units.  The trial is mapped in the units of
        `_unit` and scaled back, so a statistic beyond the float range
        in the design's units (a variance of a sigma above about 1e153)
        is inf, its rounding; the decision `empirical_power` makes is
        taken in those units and is never affected.

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
    unit, e = _unit(spec)
    stats = _trial(float(u[0]), float(u[1]), inv_norm(float(u[2])), unit,
                   n1, n2)
    return SummaryStats(*map(float, _in_units(stats, (e, 2 * e, 2 * e, e, 0))))


def _tost_in(se, margin, t):
    """TOST rejects: t * se < margin, with t the upper-alpha t quantile."""
    return t * se < margin


def _threshold(margin, t):
    """Lambda = margin / t where margin > 0, and 0 elsewhere; +inf where
    margin > 0 and t = 0 (alpha = 0.5), or where margin / t overflows."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
    them: these decisions are exact.  Open cells take the caller's exact
    path.
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
    margin = _margin(stats.d_bar, spec)
    if margin <= 0.0:
        return False
    return bool(_tost_in(stats.se, margin,
                         t_quantile(1.0 - spec.alpha, stats.nu)))


def _unit_cube_points(m, seed, sampler):
    """The (m, 3) unit-cube points of (m, seed, sampler), z3 = inv_norm
    of their third coordinate, and the knot indices (i1, i2) of their
    first two (see `_knot_index`), all read-only.

    Only the quantiles of the sizes depend on n, so every call at one
    (m, seed, sampler) maps the same points: the last one's arrays are
    cached (about 3 MB at m = 65536).  The arguments are checked and
    normalized first, so that seed=True or 1.0 cannot pass as the key 1
    and an unhashable sampler raises ValueError, not TypeError.
    """
    m = _check_count("m", m)
    if not (isinstance(sampler, str) and sampler in ("sobol", "prng")):
        raise ValueError("sampler must be 'sobol' or 'prng'")
    return _cached_points(m, _check_seed(seed), str(sampler))


@_shared_cache(1)
def _cached_points(m, seed, sampler):
    if sampler == "sobol":
        return _prepare_points(sobol_stream(3, m, seed).points)
    rng = np.random.Generator(np.random.PCG64(seed))
    return _prepare_points(np.clip(rng.random((m, 3)), CLAMP_LOW, CLAMP_HIGH))


def _prepare_points(u):
    """(u, z3, (i1, i2)) for an (m, 3) block of points u: z3 = inv_norm
    of the third coordinate and the knot indices (see `_knot_index`) of
    the first two.  The arrays made here are read-only, since the
    estimator's cache shares them; u is returned as given."""
    z3 = inv_norm(u[:, 2])
    knots = _knot_index(u[:, 0]), _knot_index(u[:, 1])
    return (u, *_read_only((z3, knots)))


# relative slack of the t band and of the chi-square brackets; far above
# the kernels' error, far below the spread of margin / se, so few points
# fall between the bounds
_SLACK = 1e-8
# chi-square knots j / _K; a power of two, so floor(u * _K) is exact.
# _KNOTS holds knots 1 to _K, the top one at CLAMP_HIGH; knot 0 maps to 0
_K = 1024
_KNOTS = np.append(np.arange(1, _K) / _K, CLAMP_HIGH)
# t knots per table of `_t_table`, evenly spaced in df
_J = 64


def _widen(lo, hi):
    """Bounds (lo, hi), both >= 0, widened by the relative slack _SLACK."""
    return lo * (1.0 - _SLACK), hi * (1.0 + _SLACK)


def _t_band(alpha, nu_lo, nu_hi):
    """Bounds (lo, hi) on t_quantile(1 - alpha, nu) over every df nu in
    [nu_lo, nu_hi] (arrays broadcast); the Welch df of groups n1, n2
    lie in [min(n1, n2) - 1, n1 + n2 - 2].

    The quantile falls as nu grows, so the quantiles at the two ends
    bound it; `_widen` covers the kernel's ~1e-10 error and a df that
    rounding puts a hair outside the interval.  At alpha = 0.5 both
    are 0.
    """
    return _widen(*t_quantile(1.0 - alpha, np.stack([nu_hi, nu_lo])))


@_shared_cache(256)
def _t_table(alpha, n1, n2):
    """t_quantile(1 - alpha, nu) at _J + 1 evenly spaced knots nu over
    the Welch range [min(n1, n2) - 1, n1 + n2 - 2] of scalar sizes n1,
    n2.  Both end knots are exact, so the ends are the quantiles of
    `_t_band`.  The estimator and the curve walk meet the same sizes
    call after call, so the tables are cached.
    """
    nu = np.linspace(min(n1, n2) - 1.0, n1 + n2 - 2.0, _J + 1)
    return t_quantile(1.0 - alpha, nu)


def _cell_t_band(alpha, n1, n2, a, b):
    """Bounds (lo, hi) on t_quantile(1 - alpha, nu) for cells whose se
    terms s1_sq / n1 and s2_sq / n2 lie in a = (lo, hi) and b = (lo,
    hi), at scalar sizes n1, n2, read from the knots of `_t_table`.

    The Welch df depends on w = a / (a + b) alone, nu = 1 / (w ** 2 /
    (n1 - 1) + (1 - w) ** 2 / (n2 - 1)): it rises from n2 - 1 at w = 0
    to n1 + n2 - 2 at w* = (n1 - 1) / (n1 + n2 - 2), then falls to
    n1 - 1 at w = 1.  w rises with a and falls with b, so nu is lowest
    at one end of [w_lo, w_hi] and highest at w* if that holds it, else
    at an end.  w is formed as 1 / (1 + b / a), which no scale of the
    variances overflows; a zero a_lo gives w_lo = 0 and a zero b_lo
    w_hi = 1, their limits, and 0 / 0 the whole of [0, 1].  The df
    bounds are widened (`_widen`), and so are the quantiles at the
    knots around them, which bound t.
    """
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w_lo = np.fmax(1.0 / (1.0 + b_hi / a_lo), 0.0)
        w_hi = np.fmin(1.0 / (1.0 + b_lo / a_hi), 1.0)
    nu_lo, nu_hi = min(n1, n2) - 1.0, n1 + n2 - 2.0
    nu = [1.0 / (w * w / (n1 - 1.0) + (1.0 - w) * (1.0 - w) / (n2 - 1.0))
          for w in (w_lo, w_hi)]
    peak = (w_lo <= (n1 - 1.0) / nu_hi) & ((n1 - 1.0) / nu_hi <= w_hi)
    lo, hi = _widen(np.minimum(*nu), np.maximum(*nu))
    lo, hi = np.fmax(lo, nu_lo), np.where(peak, nu_hi, np.fmin(hi, nu_hi))
    # the quantile falls as nu grows: the knot at or below lo bounds it
    # from above, the knot at or above hi from below
    scale = _J / (nu_hi - nu_lo)
    t = _t_table(alpha, n1, n2)
    top = np.minimum(np.ceil((hi - nu_lo) * scale), _J).astype(np.intp)
    return _widen(t[top], t[np.floor((lo - nu_lo) * scale).astype(np.intp)])


@_shared_cache(1024)
def _knot_table(df):
    """The chi-square quantiles at the knots of df, shape (_K + 1,): 0 at
    knot 0, then inv_chisq(_KNOTS, df).  The quantile rises with p, so
    with i = floor(p * _K), x[i] and x[i + 1] bound inv_chisq(p, df)
    (see `_knot_bounds`).

    Three screens read these tables at the knot indices that
    `_prepare_points` made for their points: the estimator and the curve
    walk through the variance tables of `_variance_brackets`, one df per
    size, and the integer scans through their grid's matrix of the
    tables at its block ends (`diagnostics._cached_grid`).  Tables recur
    across calls and grids, so up to 1024 are cached (8 KB each; a
    q = 1.5 scan at n_max = 1e5 meets 982 end dfs, the longest preset
    grid 520).
    """
    return np.append(0.0, inv_chisq(_KNOTS, df))


def _knot_bounds(i, x, lo, hi):
    """Bounds (lo, hi) on inv_chisq(u, df) at every df in [df_lo, df_hi],
    for points u of knot indices i (see `_knot_index`): x is a
    knot-major matrix whose columns are `_knot_table`s, and lo and hi
    are the columns of df_lo and df_hi.  i of shape (..., m) and lo, hi
    of shape (..., k) give bounds of shape (..., m, k).

    The quantile rises with p and with df, so the table of df_lo at
    knot i and that of df_hi at knot i + 1 bound it; the widening
    (`_widen`) covers the kernel's error.  The lowest lower bound is 0,
    and the top knot CLAMP_HIGH is the largest double below 1, so the
    bounds hold for every u in (0, 1), below the clamp too; every other
    bound is finite and positive.
    """
    # flat indices into the knot-major matrix: one gather per side,
    # along a knot's row, where the tables sit side by side
    i, lo, hi = i[..., None] * x.shape[1], lo[..., None, :], hi[..., None, :]
    return _widen(x.take(i + lo), x.take(i + x.shape[1] + hi))


def _chisq_brackets(df):
    """Bounds (lo, hi), each of shape (_K,), on inv_chisq(p, df) for
    every p in (0, 1): with i = floor(p * _K),
    lo[i] <= inv_chisq(p, df) <= hi[i] (see `_knot_bounds`)."""
    x = _knot_table(df)
    return _widen(x[:-1], x[1:])


@_shared_cache(128)
def _variance_brackets(sigma, n):
    """Bounds (a_lo, a_hi), each of shape (_K,), on a group's term
    a = s ** 2 / n of se ** 2, for a group of n at sd sigma, at every
    knot bracket of `_chisq_brackets(n - 1)`: s ** 2 is sigma ** 2 * x /
    (n - 1) of the brackets x, as in `_sample_se`.

    `_decide` gathers them by knot index: sqrt(a1[i1] + a2[i2]) is,
    bit for bit, the se of `_sample_se` on the gathered brackets, since
    elementwise IEEE operations give the same result before or after a
    gather.  So the estimator and the curve walk transform 1024 knots
    per table, not one bound per point.  They meet the same sizes call
    after call, so up to 128 pairs (16 KB each, 2 MB in all) are cached.
    """
    return tuple(sigma ** 2 * x / (n - 1.0) / n
                 for x in _chisq_brackets(n - 1.0))


def _knot_index(u):
    """i = floor(u * _K), the index of u's knot bracket in the tables
    of `_knot_table`."""
    return (u * _K).astype(np.intp)


def _exact_in(in_region, u1, u2, z3, spec, n1, n2, band):
    """in_region(se, margin, t) for cells (u1, u2, z3 = inv_norm(u3)) at
    sizes n1, n2 (arrays broadcast), from their exact statistics, with
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


def _decide(in_region, u1, u2, z3, spec, n1, n2, knots):
    """Decide in_region(se, margin, t) for points (u1, u2, z3 =
    inv_norm(u3)) at scalar sizes n1, n2, with quantiles of their own
    only where bounds leave the answer open.  knots are the points'
    indices (i1, i2) of `_knot_index`, as `_prepare_points` makes them.

    The se terms a1, a2 are bounded from the knot tables of
    `_variance_brackets`, gathered by knot index, se by sqrt(a1 + a2),
    the end knots of `_t_table`, widened, bound t over the whole Welch
    range, and `_screen` decides.  The cells that band leaves open, and
    those with se_lo = 0 (so that a degenerate sample still raises in
    `welch_df`), are screened again with the t band of their own df
    bounds (`_cell_t_band`), from the same gathered se-term bounds, and
    only the cells still open take `_exact_in`, each with its band.  At
    m = 65536 on the benchmark designs the first band leaves up to
    about 11% of the cells open (at n = 5, q = 1.5) and the second
    under 0.3%.  Returns (flags, exact), exact the indices evaluated
    exactly.
    """
    i1, i2 = knots
    a1_lo, a1_hi = _variance_brackets(spec.sigma1, n1)
    a2_lo, a2_hi = _variance_brackets(spec.sigma2, n2)
    margin = _margin(_d_bar(z3, spec, n1, n2), spec)
    t = _t_table(spec.alpha, n1, n2)
    se_lo = np.sqrt(a1_lo[i1] + a2_lo[i2])
    se_hi = np.sqrt(a1_hi[i1] + a2_hi[i2])
    flags, open_ = _screen(in_region, (se_lo, se_hi), (margin, margin),
                           _widen(t[-1], t[0]))
    zero = se_lo == 0.0
    k = np.nonzero(open_ | zero)[0]
    j1, j2 = i1[k], i2[k]
    band = _cell_t_band(spec.alpha, n1, n2, (a1_lo[j1], a1_hi[j1]),
                        (a2_lo[j2], a2_hi[j2]))
    flags[k], open_ = _screen(in_region, (se_lo[k], se_hi[k]),
                              (margin[k], margin[k]), band)
    keep = open_ | zero[k]
    exact = k[keep]
    if len(exact):  # an empty call still pays the kernels' checks
        flags[exact] = _exact_in(in_region, u1[exact], u2[exact], z3[exact],
                                 spec, n1, n2,
                                 (band[0][keep], band[1][keep]))[0]
    return flags, exact


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
    `_decide`): at m = 65536 on the benchmark designs, at most
    about 0.3% of the points (n = 3 to 20) and under 0.1% from n = 30
    on.

    The points, the normal quantiles of their third coordinate and the
    knot indices of their first two depend only on (m, seed, sampler),
    so those of the last such triple are kept and reused: a run over
    several n at one seed, as in Table 1, builds its stream once.  A
    call then gathers its se bounds from the knot tables of its sizes
    (`_variance_brackets`), cached across calls too.
    """
    # one observation cannot estimate a variance
    n1, n2 = _check_count("n1", n1, 2), _check_count("n2", n2, 2)
    u, z3, knots = _unit_cube_points(m, seed, sampler)
    flags = _decide(_tost_in, u[:, 0], u[:, 1], z3, _unit(spec)[0],
                    float(n1), float(n2), knots)[0]
    return int(np.count_nonzero(flags)) / len(u)
