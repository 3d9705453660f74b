"""Randomized Sobol' sequences.

Deterministic 3-dimensional (or d-dimensional) Sobol' points randomized
by a digital shift.  The raw sequence uses the standard Joe and Kuo
direction numbers via scipy's generator with 53 output bits, so every
raw coordinate is an exact dyadic rational k / 2**53 and the first 2**k
points of each coordinate equidistribute over the dyadic intervals of
width 2**-k.

Randomization XORs each coordinate's 53-bit integer representation with
a per-dimension shift drawn from a seeded PCG64 generator.  The shift
preserves the equidistribution structure while making every marginal
uniform on (0, 1).  Shifted coordinates are clamped to
[2**-64, 1 - 2**-53] so that downstream inverse CDFs always return
finite values; the clamp only ever moves the all-zero coordinate of the
origin point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

__all__ = ["SobolStream", "sobol_raw", "digital_shift", "sobol_stream"]

_BITS = 53
_SCALE = float(1 << _BITS)
_MAX_DIM = 21201  # extent of the direction-number table
CLAMP_LOW = 2.0 ** -64
CLAMP_HIGH = 1.0 - 2.0 ** -53


@dataclass(frozen=True)
class SobolStream:
    """A randomized Sobol' point set together with its provenance.

    Attributes
    ----------
    dimension : int
        Number of coordinates per point.
    m : int
        Number of points.
    seed : int
        Seed of the digital-shift generator.
    points : ndarray, shape (m, dimension)
        Randomized points, each coordinate strictly inside (0, 1).
        The array is read-only.
    """

    dimension: int
    m: int
    seed: int
    points: np.ndarray


def _check_count(name, value, low=1):
    """`value` as an int; a ValueError if it is a bool, is not integral
    or is below `low`."""
    try:
        ok = (not isinstance(value, (bool, np.bool_)) and int(value) == value
              and value >= low)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        kind = "a positive integer" if low == 1 else f"an integer >= {low}"
        raise ValueError(f"{name} must be {kind}")
    return int(value)


def _check_seed(seed):
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError("seed must be an integer")
    if seed < 0 or seed > 2 ** 64 - 1:
        raise ValueError("seed must be an unsigned 64-bit integer")
    return int(seed)


def sobol_raw(dimension, m):
    """First `m` points of the unrandomized Sobol' sequence.

    Index 0 (the origin) is included.  Coordinates are exact multiples
    of 2**-53.

    Parameters
    ----------
    dimension : int
        Number of dimensions, between 1 and 21201.
    m : int
        Number of points, at least 1.

    Returns
    -------
    ndarray, shape (m, dimension)
    """
    dimension, m = _check_count("dimension", dimension), _check_count("m", m)
    if dimension > _MAX_DIM:
        raise ValueError(f"dimension exceeds the direction-number table ({_MAX_DIM})")
    engine = qmc.Sobol(d=dimension, scramble=False, bits=_BITS)
    with warnings.catch_warnings():
        # non-power-of-two lengths are fine here; equidistribution claims
        # are only made (and tested) at power-of-two prefixes
        warnings.filterwarnings("ignore", message=".*balance properties.*")
        return engine.random(m)


def _shifts_from_seed(seed, dimension):
    """Per-dimension 53-bit shift words from a seeded PCG64 stream."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << _BITS, size=dimension, dtype=np.uint64)


def _apply_shift(points, shifts):
    """XOR fixed-precision digital shift, then clamp away from 0 and 1."""
    ints = np.round(np.asarray(points, dtype=float) * _SCALE).astype(np.uint64)
    ints ^= shifts[np.newaxis, :]
    out = ints.astype(float) / _SCALE
    return np.clip(out, CLAMP_LOW, CLAMP_HIGH)


def digital_shift(points, seed):
    """Randomize raw Sobol' points with a seeded digital shift.

    Parameters
    ----------
    points : ndarray, shape (m, dimension)
        Output of `sobol_raw`.
    seed : int
        Unsigned 64-bit seed.  The same (points, seed) pair always
        produces bit-identical output.

    Returns
    -------
    ndarray, shape (m, dimension)
        Shifted points clamped to [2**-64, 1 - 2**-53].
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    shifts = _shifts_from_seed(_check_seed(seed), pts.shape[1])
    return _apply_shift(pts, shifts)


def sobol_stream(dimension, m, seed):
    """Generate a randomized Sobol' stream in one call.

    Equivalent to ``digital_shift(sobol_raw(dimension, m), seed)``
    wrapped in a `SobolStream` record with a read-only points array.
    """
    pts = digital_shift(sobol_raw(dimension, m), seed)
    pts.flags.writeable = False
    return SobolStream(dimension=int(dimension), m=int(m), seed=int(seed), points=pts)
