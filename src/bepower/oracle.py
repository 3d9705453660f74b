"""Naive data-level power simulation.

The reference implementation the fast estimators are validated against:
draw full pseudorandom samples for both groups, compute the two
one-sided Welch t statistics from the raw data, and count rejections.
Unbiased, slow, and deliberately written against the raw-data pipeline
(means, n-1 variances, explicit t ratios) rather than the unit-cube
mapping, so agreement between the two estimators checks the whole
chain.

Determinism: all variates come from PCG64 streams derived from the
user seed with fixed substream keys, and normal deviates are produced
by inverting uniforms rather than by rejection sampling, so a given
(spec, n1, n2, m, seed) reproduces the same power on any platform.
"""

from __future__ import annotations

import numpy as np

from .qrng import CLAMP_LOW, _check_count, _check_seed
from .special import inv_norm, t_quantile
from .tost import welch_df

__all__ = ["naive_power"]

# replicates are dealt to a fixed number of substreams, which fixes the
# layout of the uniform stream for a given m and seed
_N_CHUNKS = 64


def _raw_samples(spec, n1, n2, reps, child_seed):
    """Raw group samples for one substream: shapes (reps, n1), (reps, n2).

    Group means are taken as mu_diff and 0; every TOST decision depends
    on the means only through their difference, so this loses nothing.
    """
    rng = np.random.Generator(np.random.PCG64(child_seed))
    u = rng.random((reps, n1 + n2))
    # random() yields multiples of 2**-53 in [0, 1); only an exact 0
    # would send the inverse CDF to -inf, so raise the floor
    z = inv_norm(np.clip(u, CLAMP_LOW, None))
    y1 = spec.mu_diff + spec.sigma1 * z[:, :n1]
    y2 = spec.sigma2 * z[:, n1:]
    return y1, y2


def _chunk_rejections(spec, n1, n2, reps, child_seed):
    y1, y2 = _raw_samples(spec, n1, n2, reps, child_seed)
    d_bar = y1.mean(axis=1) - y2.mean(axis=1)
    s1_sq = y1.var(axis=1, ddof=1)
    s2_sq = y2.var(axis=1, ddof=1)
    se = np.sqrt(s1_sq / n1 + s2_sq / n2)
    nu = welch_df(s1_sq, s2_sq, float(n1), float(n2))
    threshold = t_quantile(1.0 - spec.alpha, nu)
    t_lower = (d_bar - spec.delta_L) / se
    t_upper = (spec.delta_U - d_bar) / se
    return int(np.count_nonzero((t_lower > threshold) & (t_upper > threshold)))


def naive_power(spec, n1, n2, m, seed):
    """Estimate TOST power by simulating raw data.

    Parameters
    ----------
    spec : DesignSpec
    n1, n2 : int
        Group sizes, both >= 2.
    m : int
        Number of simulated trials.
    seed : int
        Base seed; replicate substreams are derived from it
        deterministically.

    Returns
    -------
    float
        Rejection fraction over the m trials.
    """
    n1, n2 = _check_count("n1", n1, 2), _check_count("n2", n2, 2)
    m = _check_count("m", m)
    bounds = np.linspace(0, m, _N_CHUNKS + 1, dtype=int)
    sizes = [b - a for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    children = np.random.SeedSequence(_check_seed(seed)).spawn(_N_CHUNKS)
    return sum(_chunk_rejections(spec, n1, n2, reps, child)
               for reps, child in zip(sizes, children)) / m
