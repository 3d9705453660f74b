"""Randomized Sobol' sequences.

Deterministic 3-dimensional (or d-dimensional) Sobol' points randomized
by a digital shift.  The raw sequence is the unscrambled Gray-code
Sobol' sequence with 53 output bits, bit for bit scipy's
``qmc.Sobol(d, scramble=False, bits=53)``: its Joe and Kuo direction
numbers (``poly`` and ``vinit``) are read from scipy's data file
``scipy/stats/_sobol_direction_numbers.npz`` without importing
``scipy.stats``, and extended by the Bratley-Fox recurrence.  Every raw
coordinate is an exact dyadic rational k / 2**53, and the first 2**k
points of each coordinate equidistribute over the dyadic intervals of
width 2**-k.  The points are built by doubling: the first 2**(b+1) are
the first 2**b followed by direction integer b XOR those same points in
reverse order (the reflected Gray code).

Randomization XORs each coordinate's 53-bit integer representation with
a per-dimension shift drawn from a seeded PCG64 generator.  The shift
preserves the equidistribution structure while making every marginal
uniform on (0, 1).  Shifted coordinates are clamped to
[2**-64, 1 - 2**-53] so that downstream inverse CDFs always return
finite values; the clamp only ever moves the all-zero coordinate of the
origin point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib.util import find_spec
from pathlib import Path

import numpy as np

__all__ = ["SobolStream", "sobol_raw", "digital_shift", "sobol_stream"]

_BITS = 53
_SCALE = float(1 << _BITS)
_MAX_DIM = 21201  # extent of the direction-number table
_DIRECTION_FILE = Path(find_spec("scipy").origin).parent.joinpath(
    "stats", "_sobol_direction_numbers.npz")
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
    """`value` as an int; a ValueError if it is a bool, is not integral,
    is below `low` or lies beyond the float range."""
    try:
        ok = (not isinstance(value, (bool, np.bool_)) and int(value) == value
              and value >= low and math.isfinite(value))
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
    # allocated first, so that an m beyond the 2**53 points of the
    # sequence fails as the MemoryError it is
    ints = np.zeros((m, dimension), dtype=np.uint64)
    v = _directions(dimension, (m - 1).bit_length())
    for b in range(v.shape[1]):
        half = 1 << b
        ints[half:2 * half] = v[:, b] ^ ints[half - 1::-1][:m - half]
    return ints / _SCALE


@functools.cache
def _direction_numbers():
    """scipy's Joe-Kuo table, loaded once per process: the primitive
    polynomials as a column, their degrees and the initial direction
    numbers."""
    if not _DIRECTION_FILE.is_file():
        raise RuntimeError(f"no Sobol' direction numbers at {_DIRECTION_FILE}")
    with np.load(_DIRECTION_FILE) as table:
        poly = table["poly"][:, np.newaxis]
        return poly, np.frexp(poly)[1] - 1, table["vinit"]


def _directions(dimension, nbits):
    """Direction integers of the first `dimension` coordinates for bits
    0 to nbits - 1, as scipy's `_initialize_v` builds them.

    Row 0 is all ones.  Row r takes its first deg initial numbers from
    the table, deg the degree of its primitive polynomial, and the rest
    from the Bratley-Fox recurrence

        v[j] = v[j - deg] ^ XOR over i = 1..deg of c_i * (v[j - i] << i)

    with c_i bit deg - i of the polynomial.  Column b is then shifted
    left by 52 - b.  The recurrence runs over all coordinates at once,
    one bit at a time, for the bits in use only.
    """
    p, deg, vinit = (a[:dimension] for a in _direction_numbers())
    # row 0 has degree 0, for which the recurrence keeps its ones
    v = np.ones((dimension, _BITS), dtype=np.int64)
    v[1:, :vinit.shape[1]] = vinit[1:]
    for j in range(1, nbits):
        i = np.arange(1, j + 1)
        c = (p >> np.maximum(deg - i, 0) & 1) * (i <= deg)
        new = np.bitwise_xor.reduce(c * (v[:, j - i] << i), axis=1)
        new ^= np.take_along_axis(v, j - deg, 1)[:, 0]
        v[:, j] = np.where(j < deg[:, 0], v[:, j], new)
    return (v[:, :nbits] << (_BITS - 1 - np.arange(nbits))).astype(np.uint64)


def _shifts_from_seed(seed, dimension):
    """Per-dimension 53-bit shift words from a seeded PCG64 stream."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << _BITS, size=dimension, dtype=np.uint64)


def _to_ints(points):
    """Raw coordinates as their 53-bit integers k, for k / 2**53."""
    return np.round(points * _SCALE).astype(np.uint64)


def _shifted(ints, shifts):
    """XOR the 53-bit integers with the shifts, then clamp away from 0
    and 1."""
    out = (ints ^ shifts[np.newaxis, :]).astype(float) / _SCALE
    return np.clip(out, CLAMP_LOW, CLAMP_HIGH)


def _checked_points(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    if not np.all((0.0 <= pts) & (pts < 1.0)):
        raise ValueError("points must be finite and lie in [0, 1)")
    return pts


def digital_shift(points, seed):
    """Randomize raw Sobol' points with a seeded digital shift.

    Parameters
    ----------
    points : ndarray, shape (m, dimension)
        Output of `sobol_raw`: finite coordinates in [0, 1).
    seed : int
        Unsigned 64-bit seed.  The same (points, seed) pair always
        produces bit-identical output.

    Returns
    -------
    ndarray, shape (m, dimension)
        Shifted points clamped to [2**-64, 1 - 2**-53].

    Raises
    ------
    ValueError
        If points is not a 2-d array of finite coordinates in [0, 1),
        or seed is not an unsigned 64-bit integer.
    """
    pts = _checked_points(points)
    shifts = _shifts_from_seed(_check_seed(seed), pts.shape[1])
    return _shifted(_to_ints(pts), shifts)


@functools.lru_cache(maxsize=4)
def _raw_ints(dimension, m):
    """The 53-bit integers of `sobol_raw(dimension, m)`, read-only.

    The raw sequence does not depend on the seed, so `sobol_stream`
    keeps the integers of its last few (dimension, m) pairs (1.5 MB at
    (3, 65536)) and a new seed only XORs, converts and clamps.  The
    points are checked to lie in [0, 1) once, here.
    """
    ints = _to_ints(_checked_points(sobol_raw(dimension, m)))
    ints.setflags(write=False)
    return ints


def sobol_stream(dimension, m, seed):
    """Generate a randomized Sobol' stream in one call.

    Equivalent to ``digital_shift(sobol_raw(dimension, m), seed)``
    wrapped in a `SobolStream` record with a read-only points array.
    The raw sequence of a (dimension, m) pair is built once and kept
    (see `_raw_ints`); the points array is new on every call.
    """
    # normalized before the lookup, so that True cannot pass as the key 1
    dimension, m = _check_count("dimension", dimension), _check_count("m", m)
    seed = _check_seed(seed)
    pts = _shifted(_raw_ints(dimension, m), _shifts_from_seed(seed, dimension))
    pts.flags.writeable = False
    return SobolStream(dimension=dimension, m=m, seed=seed, points=pts)
