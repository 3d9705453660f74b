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
and d_bar moves monotonically toward mu_diff.  So the scans cut the
grid into geometric blocks of about n1/64 cells, bound se over each
block's own cells from the chi-square knot tables at the block ends,
which the grid holds as one matrix (no quantile of the point's own;
the tables are cached per df in `tost._knot_table`), bound margin and
the t quantile from the block's first and last cells, and decide whole
blocks at once.  The
blocks the bounds leave open, and those that could hold the se argmax,
are evaluated cell by cell in one exact call, and each point's se peak
is taken from them (the README gives the measured share of exact
cells).  Exact cells are decided against their block's t band, and
take a t quantile of their own only where it leaves them open.  Every
flag and se argmax is the one a cell-by-cell scan gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import curve as _curve
from .qrng import _check_count, _check_seed, sobol_stream
from .tost import (DesignSpec, _check_group2, _check_point, _d_bar,
                   _exact_in, _g_in, _knot_bounds, _knot_table,
                   _prepare_points, _sample_se, _screen, _t_band, _unit,
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

# points per grid scan; keeps peak memory modest even on the
# n_max = 2500 scenarios
_CHUNK = 128
# blocks of the integer n1 grid are one column wide while n1 < 64, then
# floor(n1 / 64) wide, so their ends grow geometrically by 1 + 1/64
_BLOCK_SHIFT = 6

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

# the grid bound of each anticipated difference, long enough to cover
# the whole power curve (nearer the limit needs a longer grid)
_N_MAX = {0.0: 100, -4.0: 100, -8.0: 200, -12.0: 500, -16.0: 2500}

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
    n_max = _N_MAX[mu_diff]
    return DesignSpec(mu_diff=mu_diff, sigma1=sigma1, sigma2=sigma2,
                      delta_L=-_LIMITS, delta_U=_LIMITS, alpha=_ALPHA,
                      q=q), n_max


SCENARIOS = {
    f"s{combo}_mu{abs(int(mu))}": scenario_design(combo, mu)
    for combo in SCENARIO_COMBOS
    for mu in _N_MAX
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

    crossings: tuple
    departure_n: int | None
    duration: int | None


@dataclass(frozen=True)
class SePeakReport:
    """Integer grid argmax of se(n) for one point."""

    argmax_n: int


def _integer_grid(spec, n_max):
    """(n1, n2, first, last, knots, t): the integer n1 grid with
    round-half-even n2, both sizes >= 2 and stored as read-only floats
    (which a huge q does not overflow), and its blocks at spec.alpha:
    each block's first and last cell, the knot tables that bound the
    block's chi-square quantiles (see `_block_bounds`), and the block's
    t band (lo, hi).  knots is (x, lo, hi): x the knot-major matrix of
    the `_knot_table`s of the grid's distinct block-end dfs, and lo and
    hi, each of shape (2, blocks), the columns of x that hold the
    tables of groups 1 and 2 at the block's lower and upper end df.
    Block k holds the cells ends[k] to ends[k + 1] - 1, and the last
    block the grid's last cell too; a one-cell grid is the block [0, 0].
    The tuple depends on (alpha, q, n_max) alone and is cached.  A
    ValueError where n_max is no integer >= 2, q * n_max overflows the
    float range or the grid is empty."""
    return _cached_grid(spec.alpha, spec.q, _check_count("n_max", n_max, 2))


@functools.lru_cache(maxsize=4)
def _cached_grid(alpha, q, n_max):
    """The tuple of `_integer_grid`, read-only, for the last 4 (alpha,
    q, n_max).  Each grid stacks its own copy of its knot tables, taken
    from the `_knot_table` cache, once: 8.2 KB per end df, 4.3 MB for
    the 520 end dfs of the longest preset grid (q = 1.2, n_max = 2500)
    and 8 MB for the 982 of q = 1.5 at n_max = 1e5.  So a scan gathers
    its bounds from one matrix with no lookup per chunk.  Four grids
    cover the traffic seen: a run over the presets in name order reuses
    grids only where the s2 presets meet the four q = 1 grids of s1, and
    the benchmark cycles three.  A process that scans all 35 presets at
    m = 1024 peaks at about 82 MB.
    """
    _check_group2(q, n_max, "n_max")
    # rint(q n) >= 2 exactly when q n >= 1.5; 1.5 / q may round up to
    # the next integer, so start one below it and let the predicate
    # itself settle the first n
    start = max(2, math.ceil(min(1.5 / q, n_max + 1.0)) - 1)
    while start <= n_max and np.rint(q * start) < 2:
        start += 1
    if start > n_max:
        raise ValueError("n_max leaves no feasible integer grid")
    n1 = np.arange(start, n_max + 1, dtype=float)
    n2 = np.rint(q * n1)
    # block ends, shared by neighbouring blocks
    ends = [0]
    while len(ends) < 2 or ends[-1] < len(n1) - 1:
        i = ends[-1]
        ends.append(min(len(n1) - 1, i + max(1, int(n1[i]) >> _BLOCK_SHIFT)))
    ends = np.array(ends)
    first, last = ends[:-1], np.append(ends[1:-1] - 1, ends[-1])
    # the df of groups 1 and 2 at the block's first cell, and at the
    # next block's first cell (the grid's last for the last block), so
    # that neighbours share one table; a one-cell block's own
    top = np.where(last == first, first, ends[1:])
    sizes = np.array([[n1[c], n2[c]] for c in (first, top)])
    df, cols = np.unique(sizes - 1.0, return_inverse=True)
    x = np.stack([_knot_table(d) for d in df.tolist()], axis=1)
    lo, hi = cols.reshape(sizes.shape)
    # the block's Welch df lie between min(n1, n2) - 1 at its first cell
    # and n1 + n2 - 2 at its last
    t = _t_band(alpha, np.minimum(n1[first], n2[first]) - 1.0,
                n1[last] + n2[last] - 2.0)
    for arr in (n1, n2, first, last, x, lo, hi, *t):
        arr.setflags(write=False)
    return n1, n2, first, last, (x, lo, hi), t


def _block_bounds(i1, i2, z3, spec, grid):
    """Bounds over the cells of each block, as the (lo, hi) pairs (se,
    margin, t) that `_screen` takes, for points of knot indices (i1, i2)
    and z3 = inv_norm(u3) (see `tost._prepare_points`) on `grid` (see
    `_integer_grid`).

    Chi-square quantiles rise with the df, so the knot tables at the
    block's first cell bound them from below, and those at the next
    block's first cell (at the cell itself for a one-cell block) from
    above, gathered from the grid's matrix (`_knot_bounds`).  n1 and n2
    do not fall along the grid, so se_lo is `_sample_se` of the lower
    bounds with the n-denominators of the block's last cell and se_hi
    that of the upper bounds with those of its first cell; d_bar moves
    monotonically from its value at the first cell to its value at the
    last, which bound margin.  None of them costs a quantile of the
    point's own, and the t band comes with the grid.
    """
    n1, n2, first, last, knots, t = grid
    lo, hi = _knot_bounds(np.stack([i1, i2]), *knots)
    se = (_sample_se(*lo, spec, n1[last], n2[last])[2],
          _sample_se(*hi, spec, n1[first], n2[first])[2])
    d_a, d_b = (_d_bar(z3[:, None], spec, n1[c], n2[c]) for c in (first, last))
    d_lo, d_hi = np.minimum(d_a, d_b), np.maximum(d_a, d_b)
    return se, (np.minimum(d_lo - spec.delta_L, spec.delta_U - d_hi),
                np.minimum(d_hi - spec.delta_L, spec.delta_U - d_lo)), t


def _grid_scan(points, spec, grid):
    """In-rejection flags g <= 0 over points x grid (see
    `_integer_grid`), and the grid index of each point's se argmax (ties
    to the smallest n).

    Block screen: `_screen` decides each (point, block) pair from the
    knot-table `_block_bounds`, and a decided pair's state holds at
    every cell of the block.  One `_exact_in` call evaluates every cell
    of each open pair and of each pair whose se_hi reaches the point's
    largest se_lo: only those can hold its se argmax, which is taken
    over these cells.  Every exact cell is decided against its block's
    t band, which holds at every cell of the block.  The scan runs in the
    units of `_unit(spec)`.
    """
    spec = _unit(spec)[0]
    _, z3, (i1, i2) = _prepare_points(points)
    n1, n2, first, last, _, (t_lo, t_hi) = grid
    width = last - first + 1
    bounds = _block_bounds(i1, i2, z3, spec, grid)
    block_in, open_ = _screen(_g_in, *bounds)
    peak = bounds[0][1] >= bounds[0][0].max(axis=1, keepdims=True)
    in_rej = np.repeat(block_in, width, axis=1)
    # the open and peak pairs (p, k), row-major, and then each of their
    # w cells (p, j), with k its block
    p, k = np.divmod(np.flatnonzero(peak | open_), len(width))
    w = width[k]
    p, k, j = (np.repeat(v, w) for v in (p, k, first[k] - np.cumsum(w) + w))
    j += np.arange(len(j))
    in_rej[p, j], se = _exact_in(_g_in, points[p, 0], points[p, 1], z3[p],
                                 spec, n1[j], n2[j], (t_lo[k], t_hi[k]))
    # a stable sort by (p, -se) puts each row's largest se first, ties on
    # the smallest n; every row has exact cells, in the block of its
    # largest se_lo
    order = np.lexsort((-se, p))
    return in_rej, j[order[np.unique(p[order], return_index=True)[1]]]


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


def scan_intersections(u, spec, n_max, tol=_curve.DEFAULT_TOL):
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

    Raises
    ------
    ValueError
        If the spec does not satisfy delta_L < mu_diff < delta_U, tol
        is not positive and finite, n_max is not an integer or leaves
        no feasible grid, or u is not 3 coordinates strictly inside
        (0, 1).
    """
    require_curve_spec(spec)
    _curve._check_tol(tol)
    grid = _integer_grid(spec, n_max)
    n1_grid = grid[0]
    pts = _check_point(u)[np.newaxis]
    in_rej = _grid_scan(pts, spec, grid)[0][0]

    crossings = [float(n1_grid[0])] if in_rej[0] else []
    flips = np.nonzero(in_rej[1:] != in_rej[:-1])[0]
    a, b = n1_grid[flips], n1_grid[flips + 1]
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
    return IntersectionReport(crossings=tuple(crossings),
                              departure_n=departure_n, duration=duration)


def scan_se_peak(u, spec, n_max):
    """Integer n at which the mapped standard error peaks.

    Ties resolve to the smallest n.  For most points this is the grid
    start, since se decays like n**-1/2; lower-tail variance
    coordinates can push the peak to small n > 2.
    """
    grid = _integer_grid(spec, n_max)
    peak = _grid_scan(_check_point(u)[np.newaxis], spec, grid)[1][0]
    return SePeakReport(argmax_n=int(grid[0][peak]))


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
    grid = _integer_grid(spec, n_max)
    n1_grid = grid[0]
    child_seeds = np.random.SeedSequence(_check_seed(seed)).generate_state(
        reps, np.uint64)

    departures, durations, argmax_values = [], [], []
    for child in child_seeds:
        points = sobol_stream(3, m, int(child)).points
        for lo in range(0, m, _CHUNK):
            in_rej, peak = _grid_scan(points[lo:lo + _CHUNK], spec, grid)
            n_changes = (in_rej[:, 1:] != in_rej[:, :-1]).sum(axis=1)
            argmax_values.append(n1_grid[peak])
            # two sign changes always include a departure, so the
            # departures count the multi-crossing points
            for i in np.nonzero(n_changes >= 2)[0]:
                departure_n, duration = _departure(in_rej[i], n1_grid)
                departures.append(departure_n)
                if duration is not None:
                    durations.append(duration)
    argmax_all = np.concatenate(argmax_values)
    return {
        "prevalence": len(departures) / (reps * m),
        "mean_departure": float(np.mean(departures)) if departures else math.nan,
        "mean_duration": float(np.mean(durations)) if durations else math.nan,
        "mean_argmax": float(np.mean(argmax_all)),
        "frac_argmax_gt5": float(np.mean(argmax_all > 5)),
        "frac_argmax_gt10": float(np.mean(argmax_all > 10)),
        "m": int(m),
        "reps": int(reps),
        "n_max": int(n_max),
    }
