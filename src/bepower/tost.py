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


def _design_problems(mu_diff, sigma1, sigma2, delta_L, delta_U, alpha, q):
    problems = []
    for name, value in (("mu_diff", mu_diff), ("sigma1", sigma1), ("sigma2", sigma2),
                        ("delta_L", delta_L), ("delta_U", delta_U), ("alpha", alpha),
                        ("q", q)):
        if not math.isfinite(value):
            problems.append(f"{name} must be finite")
    if problems:
        return problems
    if sigma1 <= 0.0:
        problems.append("sigma1 must be positive")
    if sigma2 <= 0.0:
        problems.append("sigma2 must be positive")
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
        Group standard deviations, positive.
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
        If any constraint is violated.  The message lists every
        violated constraint, not just the first.
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
    # s * s, not (a + b) ** 2: on a numpy scalar ** calls libm pow, which
    # can differ in the last bit from the product that arrays use
    s = a + b
    out = s * s / (a * a / (n1 - 1.0) + b * b / (n2 - 1.0))
    return out if out.ndim else float(out)


def _trial(u1, u2, z3, spec, n1, n2):
    """The point -> statistics map, (d_bar, s1_sq, s2_sq, se, nu), with
    z3 = inv_norm(u3).  Arguments broadcast like ufuncs; n1 and n2 may
    be real and may differ per element."""
    s1_sq = spec.sigma1 ** 2 * inv_chisq(u1, n1 - 1.0) / (n1 - 1.0)
    s2_sq = spec.sigma2 ** 2 * inv_chisq(u2, n2 - 1.0) / (n2 - 1.0)
    d_bar = spec.mu_diff + z3 * np.sqrt(spec.sigma1 ** 2 / n1
                                        + spec.sigma2 ** 2 / n2)
    se = np.sqrt(s1_sq / n1 + s2_sq / n2)
    return d_bar, s1_sq, s2_sq, se, welch_df(s1_sq, s2_sq, n1, n2)


def _mapped(u1, u2, z3, spec, n1, n2):
    """The array kernel of mapped statistics, (se, margin, nu): a trial
    rejects when margin = min(d_bar - delta_L, delta_U - d_bar) > 0 and
    t_quantile(1 - alpha, nu) * se < margin."""
    d_bar, _, _, se, nu = _trial(u1, u2, z3, spec, n1, n2)
    return se, np.minimum(d_bar - spec.delta_L, spec.delta_U - d_bar), nu


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
    """
    stats = _trial(float(u[0]), float(u[1]), inv_norm(float(u[2])), spec,
                   n1, n2)
    return SummaryStats(*map(float, stats))


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
    return bool(t_quantile(1.0 - spec.alpha, stats.nu) * stats.se < margin)


def _unit_cube_points(m, seed, sampler):
    if sampler == "sobol":
        return sobol_stream(3, m, seed).points
    if sampler == "prng":
        rng = np.random.Generator(np.random.PCG64(_check_seed(seed)))
        return np.clip(rng.random((m, 3)), CLAMP_LOW, CLAMP_HIGH)
    raise ValueError("sampler must be 'sobol' or 'prng'")


def _rejection_flags(u, spec, n1, n2):
    """Vectorized rejection decisions for an (m, 3) block of points.

    Elementwise identical to stats_from_point followed by rejects: the
    same kernels run as ufuncs over the block.
    """
    se, margin, nu = _mapped(u[:, 0], u[:, 1], inv_norm(u[:, 2]), spec,
                             float(n1), float(n2))
    return t_quantile(1.0 - spec.alpha, nu) * se < margin


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
    """
    # one observation cannot estimate a variance
    n1, n2 = _check_count("n1", n1, 2), _check_count("n2", n2, 2)
    m = _check_count("m", m)
    u = _unit_cube_points(m, seed, sampler)
    return int(np.count_nonzero(_rejection_flags(u, spec, n1, n2))) / m
