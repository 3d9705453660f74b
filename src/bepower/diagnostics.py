"""Diagnostics for the root-finding assumption.

The curve solver banks on g(n) = se(n) - Lambda(n) having a single sign
change per point.  This module measures how often that fails: it scans
g on integer sample-size grids (group 2 rounded to the nearest integer,
ties to even), reports every crossing, where a point leaves the
rejection region (departure) and how long it stays out (duration), and
where se(n) peaks.  A bank of study scenarios covering unequal
variances, imbalanced allocation, and effects from central to
near-limit ships as named presets, so the aggregate rates can be
reproduced at any replication budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curve as _curve
from .qrng import _check_count, _check_seed, sobol_stream
from .special import inv_norm, t_quantile
from .tost import (DesignSpec, _g_in, _mapped, _screen, _t_band,
                   require_curve_spec)

__all__ = [
    "IntersectionReport",
    "SePeakReport",
    "scan_intersections",
    "scan_se_peak",
    "scenario_design",
    "scenario_summary",
    "SCENARIO_COMBOS",
    "SCENARIOS",
]

# point-block size for the grid matrices; keeps peak memory modest even
# on the n_max = 2500 scenarios
_BLOCK = 128

# (sigma1, sigma2, q) combinations of the scenario bank
SCENARIO_COMBOS = {
    1: (16.5, 16.5, 1.0),
    2: (18.0, 15.0, 1.0),
    3: (18.0, 15.0, 1.0 / 1.2),
    4: (18.0, 15.0, 1.2),
    5: (19.5, 13.0, 1.0),
    6: (19.5, 13.0, 1.0 / 1.5),
    7: (19.5, 13.0, 1.5),
}

# anticipated differences paired with the grid bound that covers the
# whole power curve (nearer the limit needs a longer grid)
_MU_GRID = ((0.0, 100), (-4.0, 100), (-8.0, 200), (-12.0, 500), (-16.0, 2500))

_LIMITS = 19.2
_ALPHA = 0.05


def scenario_design(combo, mu_diff):
    """Design and grid bound for one scenario of the bank.

    Parameters
    ----------
    combo : int
        Key into SCENARIO_COMBOS, 1 through 7.
    mu_diff : float
        One of 0, -4, -8, -12, -16.

    Returns
    -------
    (DesignSpec, int)
        The design and the n_max to scan.
    """
    sigma1, sigma2, q = SCENARIO_COMBOS[combo]
    for mu, n_max in _MU_GRID:
        if mu == mu_diff:
            spec = DesignSpec(mu_diff=mu, sigma1=sigma1, sigma2=sigma2,
                              delta_L=-_LIMITS, delta_U=_LIMITS,
                              alpha=_ALPHA, q=q)
            return spec, n_max
    raise KeyError(f"no scenario with mu_diff={mu_diff}")


SCENARIOS = {
    f"s{combo}_mu{abs(int(mu))}": scenario_design(combo, mu)
    for combo in SCENARIO_COMBOS
    for mu, _ in _MU_GRID
}


@dataclass(frozen=True)
class IntersectionReport:
    """Crossings of g on an integer grid for one point.

    crossings lists every located solution of se = Lambda in ascending
    order; when the point is already inside the rejection region at the
    grid start, the start value leads the list so that the first
    element always matches `smallest_crossing`.  departure_n is the
    smallest integer n that is outside the rejection region while n - 1
    is inside; duration the smallest integer count until re-entry.
    Both are None when the grid shows no such event (a re-entry beyond
    the scanned grid reports departure without duration).
    """

    point_index: int
    crossings: tuple
    departure_n: int | None
    duration: int | None


@dataclass(frozen=True)
class SePeakReport:
    """Integer grid argmax of se(n) for one point."""

    point_index: int
    argmax_n: int


def _integer_grid(spec, n_max):
    """Integer n1 grid with round-half-even n2, both sizes >= 2."""
    n_max = _check_count("n_max", n_max, 2)
    start = 2
    while int(np.rint(spec.q * start)) < 2:
        start += 1
    if start > n_max:
        raise ValueError("n_max leaves no feasible integer grid")
    n1 = np.arange(start, n_max + 1)
    n2 = np.rint(spec.q * n1).astype(int)
    return n1, n2


def _grid_matrices(points, spec, n1_grid, n2_grid):
    """In-rejection flags g <= 0 and se over points x grid.

    `_screen` decides each cell from `_t_band`, the bounds on the t
    quantiles of its grid column; only the cells it leaves open take
    their own quantile.  At alpha = 0.5 the band decides every cell.
    """
    se, margin, nu = _mapped(points[:, 0][:, None], points[:, 1][:, None],
                             inv_norm(points[:, 2])[:, None], spec,
                             n1_grid[None, :].astype(float),
                             n2_grid[None, :].astype(float))
    in_rej, open_ = _screen(_g_in, se, se, margin,
                            *_t_band(spec.alpha, n1_grid, n2_grid))
    amb = np.nonzero(open_)
    in_rej[amb] = _g_in(se[amb], margin[amb],
                        t_quantile(1.0 - spec.alpha, nu[amb]))
    return in_rej, se


def _departure(in_rej, n1_grid):
    """(departure_n, duration) of one in-rejection row: the first n out
    of the region after being in, and the count until re-entry; None for
    an event the row does not show."""
    leave = in_rej[:-1] & ~in_rej[1:]
    if not leave.any():
        return None, None
    k = int(np.argmax(leave)) + 1
    back = np.nonzero(in_rej[k:])[0]
    return (int(n1_grid[k]),
            int(n1_grid[k + back[0]] - n1_grid[k]) if back.size else None)


def scan_intersections(u, spec, n_max, tol=_curve.DEFAULT_TOL, point_index=0):
    """All crossings of se and Lambda on the integer grid [2, n_max].

    Evaluates g at every integer pair (n, round(q n)) and records each
    sign change, refined to `tol` with Brent's method on the
    continuous-allocation curve.  (With q = 1 the integer and
    continuous curves coincide at the grid; for fractional q a sign
    change whose continuous counterpart does not change sign within the
    bracketing integers is reported at the entry integer itself.)

    Returns
    -------
    IntersectionReport
    """
    require_curve_spec(spec)
    n1_grid, n2_grid = _integer_grid(spec, n_max)
    pts = np.asarray(u, dtype=float)[np.newaxis, :]
    in_rej = _grid_matrices(pts, spec, n1_grid, n2_grid)[0][0]

    crossings = [float(n1_grid[0])] if in_rej[0] else []
    flips = np.nonzero(in_rej[1:] != in_rej[:-1])[0]
    a, b = n1_grid[flips].astype(float), n1_grid[flips + 1].astype(float)
    # g on the continuous-allocation curve; every bracket is the one point's
    cont_g, _ = _curve._point_g(pts, spec)
    k = np.zeros(len(flips), dtype=np.int64)
    ga, gb = cont_g(k, a), cont_g(k, b)
    # fractional q only: where the integer-allocation state flipped but
    # the continuous-allocation curve does not change sign, report b
    roots = b.copy()
    # entry into the rejection region: same one-sided locator as the
    # curve solver, so first elements match it exactly
    entry = (ga > 0.0) & (gb <= 0.0)
    roots[entry] = _curve._locate(cont_g, k[entry], a[entry], b[entry],
                                  ga[entry], gb[entry], tol)
    exits = (ga <= 0.0) & (gb > 0.0)
    roots[exits] = _curve._refine(cont_g, k[exits], a[exits], b[exits],
                                  ga[exits], gb[exits], tol)[0]
    crossings.extend(roots.tolist())
    departure_n, duration = _departure(in_rej, n1_grid)
    return IntersectionReport(point_index=point_index,
                              crossings=tuple(crossings),
                              departure_n=departure_n,
                              duration=duration)


def scan_se_peak(u, spec, n_max, point_index=0):
    """Integer n at which the mapped standard error peaks.

    Ties resolve to the smallest n.  For most points this is the grid
    start, since se decays like n**-1/2; lower-tail variance
    coordinates can push the peak to small n > 2.
    """
    n1_grid, n2_grid = _integer_grid(spec, n_max)
    pts = np.asarray(u, dtype=float)[np.newaxis, :]
    se_row = _grid_matrices(pts, spec, n1_grid, n2_grid)[1][0]
    return SePeakReport(point_index=point_index,
                        argmax_n=int(n1_grid[int(np.argmax(se_row))]))


def scenario_summary(spec, n_max, m, reps, seed):
    """Aggregate crossing and peak statistics over replicated streams.

    For `reps` independently randomized Sobol' streams of length m,
    scans every point on the integer grid and aggregates: the fraction
    of points with two or more sign changes of g (prevalence), the mean
    departure and duration over those points, and the location of the
    se peak for all points.

    Returns
    -------
    dict
        Keys: prevalence, mean_departure, mean_duration, mean_argmax,
        frac_argmax_gt5, frac_argmax_gt10, m, reps, n_max.  The two
        means are NaN when no multi-crossing point turned up.
    """
    require_curve_spec(spec)
    m, reps = _check_count("m", m), _check_count("reps", reps)
    n1_grid, n2_grid = _integer_grid(spec, n_max)
    child_seeds = np.random.SeedSequence(_check_seed(seed)).generate_state(
        reps, np.uint64)

    multi = 0
    departures = []
    durations = []
    argmax_values = []
    for child in child_seeds:
        points = sobol_stream(3, m, int(child)).points
        for lo in range(0, m, _BLOCK):
            block = points[lo:lo + _BLOCK]
            in_rej, se_mat = _grid_matrices(block, spec, n1_grid, n2_grid)
            flips = in_rej[:, 1:] != in_rej[:, :-1]
            n_changes = flips.sum(axis=1)
            argmax_values.append(n1_grid[np.argmax(se_mat, axis=1)])
            for i in np.nonzero(n_changes >= 2)[0]:
                multi += 1
                # two sign changes always include a departure
                departure_n, duration = _departure(in_rej[i], n1_grid)
                departures.append(departure_n)
                if duration is not None:
                    durations.append(duration)
    argmax_all = np.concatenate(argmax_values)
    total = reps * m
    return {
        "prevalence": multi / total,
        "mean_departure": float(np.mean(departures)) if departures else math.nan,
        "mean_duration": float(np.mean(durations)) if durations else math.nan,
        "mean_argmax": float(np.mean(argmax_all)),
        "frac_argmax_gt5": float(np.mean(argmax_all > 5)),
        "frac_argmax_gt10": float(np.mean(argmax_all > 10)),
        "m": int(m),
        "reps": int(reps),
        "n_max": int(n_max),
    }
