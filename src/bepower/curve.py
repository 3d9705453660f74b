"""Power curves by root-finding on sampling-distribution segments.

For a fixed unit-cube point u, the mapped standard error se(n) and the
rejection threshold Lambda(n) are continuous functions of a real-valued
sample size n (group 2 gets q * n).  The trial mapped from u lands in
the rejection region exactly where g(n) = se(n) - Lambda(n) <= 0, so
the whole power curve is recovered from one root of g per point: the
fraction of points whose smallest crossing lies at or below n is an
empirical power estimate at n.  Locating one root walks O(log2(B))
nodes of a geometric bracket grid, where the estimator's knot screen
decides most points' side of zero, then refines the last step by
Brent's method; g is evaluated exactly only where the screen leaves the
side open, at both ends of the last step and at Brent's iterates.  At
alpha = 0.5, where g jumps from se to -inf at its sign change, the
solver's g is a continuous twin with the same sign, -margin.

The recommended sample size is the type-1 empirical quantile of the
crossings at the target power.  Because g can, rarely, have several
roots, every point's crossing is checked against g's side at the
quantile itself, decided by the same screen as the walk; mismatched
points are re-solved starting from the quantile (the safeguard), which
restores exactness of the power estimate there.  The first solve is the
same re-solve from the domain start, where every point is preset to
have crossed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .qrng import _check_count, sobol_stream
from .special import _TINY, inv_norm, t_quantile
from .tost import (_check_group2, _check_point, _d_bar, _decide, _finite,
                   _g_in, _in_units, _mapped, _margin, _prepare_points,
                   _threshold, _unit, require_curve_spec)

__all__ = [
    "CENSORED",
    "DEFAULT_B",
    "CurvePoint",
    "PowerCurve",
    "se_of_n",
    "lambda_of_n",
    "smallest_crossing",
    "power_curve",
]

CENSORED = math.inf
DEFAULT_B = 65536.0
DEFAULT_TOL = 1e-6

# quantile ranks and final ceilings are guarded against float noise in
# products like 0.8 * m that are mathematically integral
_RANK_EPS = 1e-9

# scipy.optimize.brentq's defaults, which _brent reproduces
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


@dataclass(frozen=True)
class CurvePoint:
    """Root-finding result for one unit-cube point.

    crossing_n is the smallest located n with g(n) <= 0, or CENSORED
    (+inf) when g stays positive on the whole bracket grid up to B.
    g_evals counts every exact evaluation of g made for this point; the
    walk nodes the knot screen decides cost none.
    """

    crossing_n: float
    g_evals: int


@dataclass(frozen=True, eq=False)
class PowerCurve:
    """Empirical power curve and sample-size recommendation.

    crossings, g_evals and reinitialized are read-only arrays with one
    entry per unit-cube point: the located crossing (CENSORED when there
    is none by B), every exact evaluation of g made for the point (in
    the walk, Brent's steps and the safeguard; cells the knot screen
    decides cost none), and whether the safeguard re-solved it.
    n_star_initial is the target-power quantile of the raw crossings,
    n_star_final the quantile after the safeguard.
    rec_n1 and rec_n2 are the integer recommendations ceil(n*) and
    ceil(q n*).
    """

    crossings: np.ndarray
    g_evals: np.ndarray
    reinitialized: np.ndarray
    n_star_initial: float
    n_star_final: float
    rec_n1: int
    rec_n2: int
    target_power: float

    @property
    def m(self):
        return len(self.crossings)

    @property
    def censored_count(self):
        return int(np.count_nonzero(np.isinf(self.crossings)))

    @property
    def reinit_count(self):
        return int(np.count_nonzero(self.reinitialized))

    @property
    def g_evals_total(self):
        return int(self.g_evals.sum())

    def ecdf(self, n):
        """Fraction of points whose crossing is at or below n.

        Censored points count in the denominator, never the numerator,
        so the curve tops out below 1 when any point is censored, even
        at n = inf, and an int beyond the float range counts as +-inf.
        A NaN n raises ValueError.
        """
        if n != n:
            raise ValueError("n must not be NaN")
        n = n if _finite(n) else math.inf if n > 0 else -math.inf
        return float(np.count_nonzero(
            (self.crossings <= n) & (self.crossings < CENSORED))) / self.m


def _domain_start(q):
    """Smallest real n with both group sizes at least 2."""
    return max(2.0, 2.0 / q)


def _check_tol(tol):
    if not (0.0 < tol and _finite(tol)):
        raise ValueError("tol must be positive and finite")


def _check_solver_args(spec, B, tol):
    require_curve_spec(spec)
    if not (B >= 2.0 and (B == math.inf or _finite(B))):
        raise ValueError("B must be at least 2 (an int beyond the float "
                         "range is not)")
    _check_tol(tol)
    start = _domain_start(spec.q)
    if math.isinf(start):
        raise ValueError(f"the domain start 2/q = 2/{spec.q:g} overflows "
                         "the float range; raise q")
    if start > B:
        raise ValueError(
            f"censoring bound B={B:g} lies below the domain start "
            f"2/q={2.0 / spec.q:g}, where group 2 first has two subjects; "
            "raise B or q")


def _g(u1, u2, z3, spec, n):
    """g(n) = se(n) - Lambda(n), elementwise; group 2 gets q n."""
    se, margin, nu = _mapped(u1, u2, z3, spec, n, spec.q * n)
    return se - _threshold(margin, t_quantile(1.0 - spec.alpha, nu))


def _mapped_at(u, spec, n):
    """`_mapped` for the single point u at real n, inside the domain:
    mapped in the units of `_unit(spec)`, se and margin scaled back."""
    u = _check_point(u)
    if not (_finite(n) and n >= 2.0 and spec.q * n >= 2.0):
        raise ValueError("n must be finite, and n and q * n must both be "
                         "at least 2")
    n = float(n)
    _check_group2(spec.q, n)
    unit, e = _unit(spec)
    return _in_units(_mapped(float(u[0]), float(u[1]), inv_norm(float(u[2])),
                             unit, n, spec.q * n), (e, e, 0))


def se_of_n(u, spec, n):
    """Standard error of the mean difference as a function of real n.

    se(n) = sqrt(s1_sq(n) / n + s2_sq(n) / (q n)) with the variances
    mapped from u at degrees of freedom n - 1 and q n - 1.  Continuous
    and eventually O(n**-1/2), though it can rise over small n when
    both variance coordinates sit in the lower tail.
    """
    return float(_mapped_at(u, spec, n)[0])


def lambda_of_n(u, spec, n):
    """Rejection threshold as a function of real n.

    Lambda(n) = min(d_bar(n) - delta_L, delta_U - d_bar(n)) divided by
    the upper-alpha t quantile at the Welch degrees of freedom nu(n),
    and 0 whenever d_bar(n) falls outside the open limit interval.  As
    n grows, d_bar(n) tends to mu_diff and nu(n) to infinity, so
    Lambda(n) approaches min(mu_diff - delta_L, delta_U - mu_diff)
    divided by the normal quantile.
    """
    require_curve_spec(spec)
    _, margin, nu = _mapped_at(u, spec, n)
    return float(_threshold(margin, t_quantile(1.0 - spec.alpha, nu)))


def _point_g(points, spec):
    """The solver's g over a block of points as g(k, n) for point
    indices k, in the units of `_unit(spec)`, and the array counting the
    exact evaluations of g made for each point.

    g.side(k, n) is g(k, n) <= 0 at one n, decided by `tost._decide`
    from the points' z3 and knot indices, prepared once per curve by
    `tost._prepare_points`; only the cells it evaluates exactly count.
    At alpha = 0.5 the paper's g jumps from se to -inf where it changes
    sign, and Brent's interpolation gets nothing from the jump (up to
    49 evaluations a bracket), so there g is a twin: -margin,
    continuous in n, with the paper's sign exactly (margin = 0, where
    g = se > 0, maps to the smallest normal float).  The twin needs
    d_bar alone, so it inverts no chi-square or t quantile; a
    degenerate sample still raises in the walk's `side`.
    """
    spec = _unit(spec)[0]
    _, z3, (i1, i2) = _prepare_points(points)
    u1, u2 = points[:, 0], points[:, 1]
    evals = np.zeros(len(points), dtype=np.int64)

    def g(k, n):
        evals[k] += 1
        if spec.alpha < 0.5:
            return _g(u1[k], u2[k], z3[k], spec, n)
        margin = _margin(_d_bar(z3[k], spec, n, spec.q * n), spec)
        return np.where(margin > 0.0, -margin, np.maximum(-margin, _TINY))

    def side(k, n):
        # q * B may overflow where no walk goes, so each node reached
        # is checked, the domain start first
        _check_group2(spec.q, float(n))
        in_, exact = _decide(_g_in, u1[k], u2[k], z3[k], spec, n, spec.q * n,
                             (i1[k], i2[k]))
        evals[k[exact]] += 1
        return in_

    g.side = side
    return g, evals


def _brent(g, k, a, b, fa, fb, tol):
    """Brent's method on many brackets at once, in lockstep.

    A port of scipy.optimize.brentq (scipy/optimize/Zeros/brentq.c,
    xtol=tol, default rtol and maxiter): each bracket a < b, with end
    values fa, fb of opposite signs taken as given, takes the scalar
    routine's steps, so the roots agree to the bit.  g(k, x) evaluates
    brackets k at x.  Returns the roots and g there (the last iterate
    for a bracket still open after maxiter).
    """
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = np.zeros(len(a))
    done = (fa == 0.0) | (fb == 0.0)
    root, froot = np.where(fa == 0.0, a, b), np.where(fa == 0.0, fa, fb)
    with np.errstate(all="ignore"):
        for _ in range(_BRENT_MAXITER):
            flip = ((fpre != 0.0) & (fcur != 0.0)
                    & (np.signbit(fpre) != np.signbit(fcur)))
            xblk, fblk, spre, scur = np.where(
                flip, (xpre, fpre, xcur - xpre, xcur - xpre),
                (xblk, fblk, spre, scur))
            # keep the best estimate in xcur
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = np.where(swap, (xcur, xblk, xcur),
                                        (xpre, xcur, xblk))
            fpre, fcur, fblk = np.where(swap, (fcur, fblk, fcur),
                                        (fpre, fcur, fblk))
            delta = (tol + _BRENT_RTOL * np.abs(xcur)) / 2.0
            sbis = (xblk - xcur) / 2.0
            stop = ~done & ((fcur == 0.0) | (np.abs(sbis) < delta))
            root[stop], froot[stop] = xcur[stop], fcur[stop]
            done |= stop
            if done.all():
                return root, froot
            # secant step when only two points are known, otherwise
            # inverse quadratic interpolation; brackets already done
            # keep stepping, unevaluated, and are never read again
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk,
                -fcur * (xcur - xpre) / (fcur - fpre),
                -fcur * (fblk * dblk - fpre * dpre)
                / (dblk * dpre * (fblk - fpre)))
            short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                     & (2.0 * np.abs(stry)
                        < np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta)))
            spre, scur = np.where(short, (scur, stry), sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur,
                                   np.where(sbis > 0.0, delta, -delta))
            live = np.nonzero(~done)[0]
            fcur = fpre.copy()
            fcur[live] = g(k[live], xcur[live])
    root[~done], froot[~done] = xcur[~done], fcur[~done]
    return root, froot


def _locate(g, k, a, b, fa, fb, tol):
    """`_brent` roots of brackets with g(a) > 0 >= g(b), on the g <= 0
    side.

    A crossing is defined by g(n) <= 0, but Brent can stop a hair on
    the positive side: such a root is nudged right by tol, never past
    b, up to three times, then replaced by b, so g(root) <= 0 always
    holds.  Otherwise the quantile itself would trip the safeguard's
    sign check about half the time.
    """
    root, froot = _brent(g, k, a, b, fa, fb, tol)
    for _ in range(3):
        up = np.nonzero(froot > 0.0)[0]
        if not len(up):
            return root
        root[up] = np.minimum(root[up] + tol, b[up])
        froot[up] = g(k[up], root[up])
    return np.where(froot > 0.0, b, root)


def _bracket_nodes(start, B):
    """Geometric bracket grid from start up to and including B.

    The canonical grid is {2, 3, 4, 6, 8, 12, 16, 24, ...}: each power
    of two and 1.5 times it, so roughly two g evaluations per doubling
    of n.  Nodes at or below start are dropped in favor of start
    itself; B is always the last node.
    """
    nodes, v = [start], 2.0
    while v < B:
        nodes.extend(c for c in (v, 1.5 * v) if start < c < B)
        v *= 2.0
    return nodes + [float(B)] if B > start else nodes


def _crossings(g, k, nodes, tol, none):
    """Walk points along nodes to g's first change of side, then refine.

    Nodes ascend from g > 0 or descend from g <= 0 at nodes[0] for
    points k, so their direction gives that side; one `side` call of g
    per node covers the points still walking.  Either way the root found
    is where g enters g <= 0 as n grows; g at both ends of each point's
    last step goes to `_locate`, which puts the root on that side.
    Points that never change side get `none` (a walk of one node has no
    direction, so the caller names it).
    """
    nodes = np.asarray(nodes, dtype=float)
    down = nodes[-1] < nodes[0]
    step = np.zeros(len(k), dtype=np.int64)
    walking = np.arange(len(k))
    for j in range(1, len(nodes)):
        if not len(walking):
            break
        crossed = g.side(k[walking], nodes[j]) != down
        step[walking[crossed]] = j
        walking = walking[~crossed]
    out = np.full(len(k), none)
    hit = np.nonzero(step)[0]
    if len(hit):  # g on no points still costs the special calls' checks
        a, b = np.sort([nodes[step[hit] - 1], nodes[step[hit]]], axis=0)
        out[hit] = _locate(g, k[hit], a, b, g(k[hit], a), g(k[hit], b), tol)
    return out


def _resolve(g, crossings, anchor, nodes, tol):
    """Re-solve, in place, every crossing that disagrees with g's side
    at anchor, and return the indices of those points.

    A point claims to have crossed by anchor when its crossing is at or
    below it.  Claimed but g > 0 at anchor: walk up the nodes above it
    (CENSORED if g stays positive).  Not claimed but g <= 0 at anchor:
    walk down the nodes below it (nodes[0], the domain start, if g
    stays <= 0).
    """
    side = g.side(np.arange(len(crossings)), anchor)
    wrong = np.nonzero((crossings <= anchor) != side)[0]
    up, down = wrong[~side[wrong]], wrong[side[wrong]]
    crossings[up] = _crossings(
        g, up, [anchor] + [c for c in nodes if c > anchor], tol, CENSORED)
    crossings[down] = _crossings(
        g, down, [anchor] + [c for c in reversed(nodes) if c < anchor], tol,
        nodes[0])
    return wrong


def smallest_crossing(u, spec, B=DEFAULT_B, tol=DEFAULT_TOL):
    """Locate the smallest n in [2, B] with g(n) <= 0 for one point.

    Walks the geometric bracket grid until g changes sign, then hands
    the bracket to Brent's method with absolute tolerance `tol` in n.
    Returns crossing_n equal to the grid start (2, or 2/q when q < 1)
    when the point is already in the rejection region there, and
    CENSORED when g stays positive on the whole grid.  This is the
    solver of `power_curve` run on a single point.

    Raises
    ------
    ValueError
        If u is not 3 coordinates strictly inside (0, 1), or the spec
        does not satisfy delta_L < mu_diff < delta_U, or B is not at
        least 2 (NaN is not), or tol is not positive and finite, or the
        domain start 2/q lies above B.
    """
    _check_solver_args(spec, B, tol)
    g, evals = _point_g(_check_point(u)[np.newaxis], spec)
    start = _domain_start(spec.q)
    crossing = np.full(1, start)
    _resolve(g, crossing, start, _bracket_nodes(start, B), tol)
    return CurvePoint(float(crossing[0]), int(evals[0]))


def _type1_quantile(values, target_power):
    m = len(values)
    rank = max(1, min(m, math.ceil(target_power * m - _RANK_EPS)))
    return float(np.partition(values, rank - 1)[rank - 1])


def _censoring_error(crossings, B, target_power):
    n_censored = np.count_nonzero(np.isinf(crossings))
    return RuntimeError(
        f"censoring bound B={B:g} is too small: {n_censored} of "
        f"{len(crossings)} points have no crossing by n={B:g}, so the "
        f"{target_power:g} power quantile cannot be formed; raise B")


def power_curve(spec, target_power, m, seed, B=DEFAULT_B, tol=DEFAULT_TOL):
    """Approximate the power curve and recommend sample sizes.

    Locates the smallest crossing of every point of a randomized
    Sobol' stream, all points in lockstep: the side of zero of g at each
    bracket node for the points still walking (from the knot screen
    where it decides), then Brent's method on every bracket at once.
    Takes the type-1 empirical quantile of the crossings at
    `target_power`, then applies the safeguard: g's side at the
    quantile is decided for every point, and any point whose recorded
    crossing disagrees with it is re-solved starting from the
    quantile (upward for points that claimed to have crossed but test
    positive, downward for the reverse).  After the repair the fraction
    of crossings at or below the quantile equals the fraction of points
    with g <= 0 there exactly.  If the repair moves the quantile, the
    safeguard runs again at the new value, up to three rounds in total
    (a warning is issued if it still has not stabilized, which no
    studied design comes close to triggering).

    Parameters
    ----------
    spec : DesignSpec
        Must satisfy delta_L < mu_diff < delta_U.
    target_power : float
        Desired power, in (0, 1).
    m : int
        Number of Sobol' points.
    seed : int
        Digital-shift seed.
    B : float
        Censoring bound, at least 2 and at least the domain start 2/q:
        points with no crossing by B are recorded as CENSORED.  They
        may sit above the quantile, but if too many accumulate
        (fraction >= 1 - target_power) the quantile itself would be
        censored and a RuntimeError names the bound.
    tol : float
        Absolute tolerance in n for each located root, positive and
        finite.

    Returns
    -------
    PowerCurve
    """
    _check_solver_args(spec, B, tol)
    if not 0.0 < target_power < 1.0:
        raise ValueError("target_power must lie in (0, 1)")
    m = _check_count("m", m)
    points = sobol_stream(3, m, seed).points
    g, evals = _point_g(points, spec)
    start = _domain_start(spec.q)
    nodes = _bracket_nodes(start, B)
    crossings = np.full(m, start)
    _resolve(g, crossings, start, nodes, tol)
    if np.count_nonzero(np.isinf(crossings)) / m >= 1.0 - target_power:
        raise _censoring_error(crossings, B, target_power)

    n_star_initial = anchor = _type1_quantile(crossings, target_power)
    reinitialized = np.zeros(m, dtype=bool)
    for _ in range(3):
        reinitialized[_resolve(g, crossings, anchor, nodes, tol)] = True
        new_anchor = _type1_quantile(crossings, target_power)
        if new_anchor == anchor:
            break
        anchor = new_anchor
    else:
        warnings.warn("safeguard did not stabilize after 3 rounds; "
                      "recommendation uses the last quantile",
                      RuntimeWarning, stacklevel=2)

    n_star_final = anchor
    if math.isinf(n_star_final):
        raise _censoring_error(crossings, B, target_power)
    rec_n1 = int(math.ceil(n_star_final - _RANK_EPS))
    rec_n2 = int(math.ceil(spec.q * n_star_final - _RANK_EPS))
    for arr in (crossings, evals, reinitialized):
        arr.setflags(write=False)
    return PowerCurve(crossings=crossings, g_evals=evals,
                      reinitialized=reinitialized,
                      n_star_initial=n_star_initial,
                      n_star_final=n_star_final,
                      rec_n1=rec_n1, rec_n2=rec_n2,
                      target_power=target_power)
