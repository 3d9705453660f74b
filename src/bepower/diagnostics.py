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

A point's statistics are monotone segments in n: its chi-square
quantiles rise with the degrees of freedom, 1/(n - 1) and 1/n fall,
and d_bar moves monotonically toward mu_diff.  So the scans evaluate
each point exactly only at the ends of geometric blocks of the grid,
bound se, margin and the t quantile over every block's interior from
those ends, and decide whole interiors at once; only the cells the
bounds leave open are evaluated one by one (at m = 128 on the
scenario bank, about 33% of the cells at n_max = 100, 11% at 500 and
5% at 2500).  Every flag and se argmax is the one a cell-by-cell scan
gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curve as _curve
from .qrng import _check_count, _check_seed, sobol_stream
from .special import inv_chisq, inv_norm
from .tost import (_SLACK, DesignSpec, _check_point, _exact_in, _g_in,
                   _mapped, _margin, _sample_se, _screen, _statistics,
                   _t_band, require_curve_spec)

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

# points per grid scan; keeps peak memory modest even on the
# n_max = 2500 scenarios
_CHUNK = 128
# blocks of the integer n1 grid are one column wide while n1 < 8, then
# floor(n1 / 8) wide, so their ends grow geometrically by 1 + 1/8
_BLOCK_SHIFT = 3

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


def _block_ends(n1_grid):
    """Grid indices of the block ends; neighbouring blocks share one."""
    last = len(n1_grid) - 1
    ends = [0]
    while ends[-1] < last:
        i = ends[-1]
        ends.append(min(last, i + max(1, int(n1_grid[i]) >> _BLOCK_SHIFT)))
    return np.array(ends)


def _block_bounds(spec, n1e, n2e, x1, x2, d_bar, band):
    """Bounds over the interior of each block, as the (lo, hi) pairs
    (se, margin, t) that `_screen` takes, from a point's values at the
    block ends: chi-square quantiles x1 and x2, d_bar, and the t band
    of each end column.

    Over a block [a, b], n1 and n2 do not fall, so for each point
      - se_lo <= se <= se_hi: `_sample_se` of the end quantiles widened
        by _SLACK, at end a for se_lo and end b for se_hi, with the
        n-denominators at the other end;
      - margin_lo <= margin <= margin_hi, since d_bar moves
        monotonically from its value at a to its value at b;
      - t_lo <= t <= t_hi: the Welch df of the interior lies in
        [min(n1a, n2a) - 1, n1b + n2b - 2], so the band at end b gives
        t_lo and at end a gives t_hi.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        se_lo = _sample_se(x1[:, :-1] * (1.0 - _SLACK),
                           x2[:, :-1] * (1.0 - _SLACK), spec,
                           n1e[1:], n2e[1:])[2]
        se_hi = _sample_se(x1[:, 1:] * (1.0 + _SLACK),
                           x2[:, 1:] * (1.0 + _SLACK), spec,
                           n1e[:-1], n2e[:-1])[2]
    d_lo = np.minimum(d_bar[:, :-1], d_bar[:, 1:])
    d_hi = np.maximum(d_bar[:, :-1], d_bar[:, 1:])
    margin = (np.minimum(d_lo - spec.delta_L, spec.delta_U - d_hi),
              np.minimum(d_hi - spec.delta_L, spec.delta_U - d_lo))
    return (se_lo, se_hi), margin, (band[0][1:], band[1][:-1])


def _grid_scan(points, spec, n1_grid, n2_grid):
    """In-rejection flags g <= 0 over points x grid, and the grid index
    of each point's se argmax (ties to the smallest n).

    Block screen: every point is evaluated exactly at the block ends of
    `_block_ends`, and `_screen` decides each (point, block) pair from
    the `_block_bounds` those ends give; a decided pair's state holds
    at every interior cell.  The undecided pairs, and those whose se_hi
    reaches the point's largest se at the block ends (so could hold its
    argmax), are evaluated cell by cell.
    """
    alpha = spec.alpha
    u1, u2 = points[:, 0][:, None], points[:, 1][:, None]
    z3 = inv_norm(points[:, 2])[:, None]
    n1, n2 = n1_grid.astype(float), n2_grid.astype(float)
    ends = _block_ends(n1_grid)
    a, b = ends[:-1], ends[1:]

    # exact statistics at the block ends, one chi-square inversion each
    n1e, n2e = n1[ends], n2[ends]
    x1, x2 = inv_chisq(u1, n1e - 1.0), inv_chisq(u2, n2e - 1.0)
    d_bar, _, _, se, nu = _statistics(x1, x2, z3, spec, n1e, n2e)
    band = _t_band(alpha, n1e, n2e)
    bounds = _block_bounds(spec, n1e, n2e, x1, x2, d_bar, band)
    block_in, open_ = _screen(_g_in, *bounds)

    in_rej = np.empty((len(points), len(n1_grid)), dtype=bool)
    in_rej[:, :-1] = block_in[:, np.repeat(np.arange(len(a)), b - a)]
    in_rej[:, ends] = _exact_in(_g_in, se, _margin(d_bar, spec), nu, alpha,
                                band)
    se_all = np.full(in_rej.shape, -np.inf)
    se_all[:, ends] = se

    # the cells no block decides, flattened over (point, cell)
    se_hi = bounds[0][1]
    exact = (b - a > 1) & (open_ | (se_hi >= se.max(axis=1, keepdims=True)))
    p, k = np.nonzero(exact)
    width = b[k] - a[k] - 1
    start = np.cumsum(width) - width
    p = np.repeat(p, width)
    j = np.arange(width.sum()) + np.repeat(a[k] + 1 - start, width)
    se, margin, nu = _mapped(u1[p, 0], u2[p, 0], z3[p, 0], spec, n1[j],
                             n2[j])
    cols, col = np.unique(j, return_inverse=True)
    t_lo, t_hi = _t_band(alpha, n1[cols], n2[cols])
    in_rej[p, j] = _exact_in(_g_in, se, margin, nu, alpha,
                             (t_lo[col], t_hi[col]))
    se_all[p, j] = se
    return in_rej, np.argmax(se_all, axis=1)


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

    Takes g's sign at every integer pair (n, round(q n)), as the block
    screen of `_grid_scan` decides it, and records each sign change,
    refined to `tol` with Brent's method on the continuous-allocation
    curve.  (With q = 1 the integer and continuous curves coincide at
    the grid; for fractional q a sign change whose continuous
    counterpart does not change sign within the bracketing integers is
    reported at the entry integer itself.)

    Returns
    -------
    IntersectionReport
    """
    require_curve_spec(spec)
    n1_grid, n2_grid = _integer_grid(spec, n_max)
    pts = _check_point(u)[np.newaxis]
    in_rej = _grid_scan(pts, spec, n1_grid, n2_grid)[0][0]

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
    roots[exits] = _curve._brent(cont_g, k[exits], a[exits], b[exits],
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
    pts = _check_point(u)[np.newaxis]
    peak = _grid_scan(pts, spec, n1_grid, n2_grid)[1][0]
    return SePeakReport(point_index=point_index,
                        argmax_n=int(n1_grid[peak]))


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
        for lo in range(0, m, _CHUNK):
            in_rej, peak = _grid_scan(points[lo:lo + _CHUNK], spec, n1_grid,
                                      n2_grid)
            flips = in_rej[:, 1:] != in_rej[:, :-1]
            n_changes = flips.sum(axis=1)
            argmax_values.append(n1_grid[peak])
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
