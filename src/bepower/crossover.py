"""2x2 crossover designs as a two-group problem.

In a two-sequence, two-period crossover analyzed on within-subject
period differences, the sequence-1 and sequence-2 difference means
estimate the direct treatment effect F with standard deviations
sigma_D1 / 2 and sigma_D2 / 2, where sigma_Dj is the SD of the period
differences in sequence j.  Equivalence testing of F therefore reduces
to the two-group Welch TOST with those substitutions, and the whole
power and sample-size machinery applies unchanged; the recommended n1
and n2 are subjects per sequence.

A conservative closed-form comparator is included: the equal-variance
sample-size inequality of Chow, Shao and Wang (Sample Size Calculations
in Clinical Research), which sizes against the worst case
delta_U - |F| and tends to over-recommend noticeably.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from . import curve as _curve
from .special import t_quantile
from .tost import DesignSpec, _check_spec, _finite

__all__ = [
    "CrossoverSpec",
    "to_two_group",
    "crossover_sample_size",
    "chow_sample_size",
]

_CHOW_N_MAX = 10 ** 6


@dataclass(frozen=True)
class CrossoverSpec:
    """Inputs of a 2x2 crossover equivalence design.

    F is the direct treatment effect (test minus reference, usually on
    the log scale), sigma_D1 and sigma_D2 the standard deviations of
    the within-subject period differences in the two sequences, and q
    the sequence allocation ratio.  As in `DesignSpec`, every field is
    stored as a Python float, and the design is checked for the unit
    form of the two-group design it maps to, whose sigmas are halved.
    """

    F: float
    sigma_D1: float
    sigma_D2: float
    delta_L: float
    delta_U: float
    alpha: float = 0.05
    q: float = 1.0

    def __post_init__(self):
        _check_spec(self, "crossover design", sd_divisor=2.0)


def to_two_group(cspec):
    """Map a crossover design onto the two-group parameterization.

    Halves each sigma_Dj (the sequence difference means carry SD
    sigma_Dj / 2) and carries every other field over unchanged.
    """
    return DesignSpec(mu_diff=cspec.F,
                      sigma1=cspec.sigma_D1 / 2.0,
                      sigma2=cspec.sigma_D2 / 2.0,
                      delta_L=cspec.delta_L,
                      delta_U=cspec.delta_U,
                      alpha=cspec.alpha,
                      q=cspec.q)


def crossover_sample_size(cspec, target_power, m, seed,
                          B=_curve.DEFAULT_B, tol=_curve.DEFAULT_TOL):
    """Per-sequence sample sizes for a 2x2 crossover design.

    Runs the power-curve recommendation on the mapped two-group design;
    rec_n1 and rec_n2 of the returned PowerCurve are the recommended
    numbers of subjects in sequences 1 and 2.

    Raises
    ------
    ValueError
        If F does not lie strictly between the equivalence limits.
    RuntimeError
        If too many points are censored at the bound B.
    """
    if not cspec.delta_L < cspec.F < cspec.delta_U:
        raise ValueError("F must lie strictly between delta_L and delta_U")
    return _curve.power_curve(to_two_group(cspec), target_power, m, seed,
                              B=B, tol=tol)


def chow_sample_size(F, sigma_D, delta_U, alpha, beta):
    """Conservative per-sequence sample size from the closed-form bound.

    Smallest integer n >= 2 with

        n >= (t_(alpha, 2n-2) + t_(beta/2, 2n-2))**2 * sigma_D**2
             / (2 * (delta_U - |F|)**2)

    where t_(a, df) is the upper-a t quantile.  Assumes a common
    period-difference SD sigma_D and symmetric limits, and sizes
    against the margin on the nearer limit only, which is what makes it
    conservative.  The right-hand side does not increase with n, so the
    inequality holds from some n on: an exponential search brackets that
    n and a bisection finds it.

    Raises
    ------
    ValueError
        If F, sigma_D or delta_U is not finite, |F| >= delta_U (no
        sample size can demonstrate equivalence), alpha lies outside
        (0, 0.5] (above 0.5 its t quantile is negative and would shrink
        the bound) or beta outside (0, 1), or either is so small that
        1 - alpha or 1 - beta / 2 rounds to 1.
    RuntimeError
        If no n up to 1e6 satisfies the inequality.
    """
    if not all(map(_finite, (F, sigma_D, delta_U))):
        raise ValueError("F, sigma_D and delta_U must be finite")
    if sigma_D <= 0.0:
        raise ValueError("sigma_D must be positive")
    if not 0.0 < alpha <= 0.5 or not 0.0 < beta < 1.0:
        raise ValueError("alpha and beta must lie in (0, 0.5] and (0, 1)")
    if 1.0 - alpha == 1.0:
        raise ValueError("alpha must exceed 2 ** -54, or 1 - alpha rounds "
                         "to 1")
    if 1.0 - beta / 2.0 == 1.0:
        raise ValueError("beta must exceed 2 ** -53, or 1 - beta / 2 "
                         "rounds to 1")
    if abs(F) >= delta_U:
        raise ValueError("infeasible: |F| must be smaller than delta_U")
    # from the ratio, so the scale is free of the units' magnitude; a
    # ratio that overflows gives inf, which no n satisfies
    r = sigma_D / (delta_U - abs(F))
    scale = r * r / 2.0

    def holds(n):
        df = 2 * n - 2
        return n >= (t_quantile(1.0 - alpha, df)
                     + t_quantile(1.0 - beta / 2.0, df)) ** 2 * scale

    hi = 2
    while not holds(hi):
        if hi == _CHOW_N_MAX:
            raise RuntimeError(
                f"no n up to {_CHOW_N_MAX} satisfies the inequality")
        hi = min(2 * hi, _CHOW_N_MAX)
    lo = hi // 2 + 1  # the inequality fails at hi // 2, or hi is 2
    return lo + bisect.bisect_left(range(lo, hi), True, key=holds)
