import re
import time
import warnings

import numpy as np
import pytest
from scipy.stats import qmc

from bepower import qrng
from bepower.qrng import (
    CLAMP_HIGH,
    CLAMP_LOW,
    _raw_ints,
    _shifted,
    _to_ints,
    digital_shift,
    sobol_raw,
    sobol_stream,
)


def scipy_sobol(dimension, m):
    """The reference: scipy's unscrambled 53-bit Sobol' points."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*balance properties.*")
        return qmc.Sobol(dimension, scramble=False, bits=53).random(m)


@pytest.mark.parametrize("dimension, m", [
    (1, 1), (3, 1), (3, 5), (3, 1000), (3, 1024), (3, 65536), (7, 4097),
    (50, 3000), (1000, 33), (21201, 4), (21201, 129), (2, 2 ** 20 + 1)])
def test_raw_points_are_scipys_bit_for_bit(dimension, m):
    # also fails when a scipy release changes its direction-number file
    np.testing.assert_array_equal(sobol_raw(dimension, m),
                                  scipy_sobol(dimension, m))


def test_direction_integers_are_scipys_at_every_bit():
    # the points above reach bit 20 at most; scipy's engine keeps the
    # whole table, each row from its recurrence, in `_sv`
    engine = qmc.Sobol(21201, scramble=False, bits=53)
    np.testing.assert_array_equal(qrng._directions(21201, 53), engine._sv)


def test_power_of_two_prefixes_are_scipys_bit_for_bit():
    reference = scipy_sobol(3, 2 ** 16)
    for k in range(17):
        np.testing.assert_array_equal(sobol_raw(3, 2 ** k),
                                      reference[:2 ** k], err_msg=f"2 ** {k}")


def test_missing_direction_file_names_its_path(monkeypatch, tmp_path):
    missing = tmp_path / "stats" / "_sobol_direction_numbers.npz"
    monkeypatch.setattr(qrng, "_DIRECTION_FILE", missing)
    qrng._direction_numbers.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=re.escape(str(missing))):
            sobol_raw(3, 8)
    finally:
        qrng._direction_numbers.cache_clear()


def test_widest_table_builds_fast():
    # the direction integers are built for the bits in use, vectorised
    # over the coordinates
    start = time.perf_counter()
    pts = sobol_raw(21201, 2)
    assert time.perf_counter() - start < 1.0
    assert np.all(pts[1] == 0.5)


def test_first_point_is_origin():
    pts = sobol_raw(3, 1)
    assert pts.shape == (1, 3)
    assert np.all(pts == 0.0)


def test_second_point_is_center():
    pts = sobol_raw(3, 2)
    assert np.all(pts[1] == 0.5)


def test_raw_points_are_dyadic():
    pts = sobol_raw(4, 64)
    scaled = pts * 2.0**53
    assert np.all(scaled == np.round(scaled))


@pytest.mark.parametrize("k", range(1, 11))
def test_one_point_per_dyadic_cell(k):
    # first 2^10 points of each coordinate stratify every dyadic grid
    pts = sobol_raw(3, 1024)
    cells = np.floor(pts * 2**k).astype(int)
    for j in range(3):
        # within each consecutive block of 2^k points, all cells distinct
        blocks = cells[:, j].reshape(-1, 2**k)
        for row in blocks:
            assert len(set(row.tolist())) == 2**k


def test_stream_is_deterministic():
    a = sobol_stream(3, 512, seed=99)
    b = sobol_stream(3, 512, seed=99)
    assert np.array_equal(a.points, b.points)
    c = sobol_stream(3, 512, seed=100)
    assert not np.array_equal(a.points, c.points)


def test_stream_equals_shift_of_raw_points():
    # the stream shifts cached raw integers; bit for bit the shift of a
    # freshly built raw sequence
    for m in (1, 5, 128, 1000, 1024, 65536):
        raw = sobol_raw(3, m)
        for seed in (0, 1, 7, 2**64 - 1):
            s = sobol_stream(3, m, seed)
            assert (s.dimension, s.m, s.seed) == (3, m, seed)
            assert np.array_equal(s.points, digital_shift(raw, seed))


def test_raw_integers_are_cached_and_read_only():
    # every stream of one (dimension, m) shares them, so none may write
    ints = _raw_ints(3, 256)
    assert _raw_ints(3, 256) is ints
    assert ints.dtype == np.uint64
    np.testing.assert_array_equal(
        ints, np.round(sobol_raw(3, 256) * 2.0**53).astype(np.uint64))
    with pytest.raises(ValueError, match="read-only"):
        ints[0, 0] = 1
    assert _raw_ints.cache_info().maxsize is not None
    # a new stream is a new array, whatever the cache holds
    a, b = sobol_stream(3, 256, 4), sobol_stream(3, 256, 4)
    assert not np.shares_memory(a.points, b.points)
    assert not np.shares_memory(a.points, ints)


def test_stream_arguments_are_checked_with_a_warm_entry():
    # True and 1.0 hash as the warm key 1; the checks come before the
    # lookup
    sobol_stream(1, 8, 1)
    with pytest.raises(ValueError, match="dimension must be"):
        sobol_stream(True, 8, 1)
    with pytest.raises(ValueError, match="m must be"):
        sobol_stream(1, 8.5, 1)
    with pytest.raises(ValueError, match="seed must be"):
        sobol_stream(1, 8, 1.0)
    assert sobol_stream(1.0, 8, 1).dimension == 1


def test_stream_points_read_only():
    s = sobol_stream(2, 8, seed=1)
    with pytest.raises(ValueError):
        s.points[0, 0] = 0.25


def test_zero_shift_is_identity_up_to_clamp():
    pts = sobol_raw(3, 128)
    shifted = _shifted(_to_ints(pts), np.zeros(3, dtype=np.uint64))
    expected = np.clip(pts, CLAMP_LOW, CLAMP_HIGH)
    assert np.array_equal(shifted, expected)
    # only the origin row was altered
    assert np.array_equal(shifted[1:], pts[1:])


def test_shifted_points_stay_clamped():
    for seed in (0, 7, 2**64 - 1):
        pts = digital_shift(sobol_raw(3, 4096), seed)
        assert pts.min() >= CLAMP_LOW
        assert pts.max() <= CLAMP_HIGH


def test_shift_preserves_uniformity():
    pts = sobol_stream(3, 2**16, seed=123).points
    means = pts.mean(axis=0)
    variances = pts.var(axis=0)
    assert np.all(np.abs(means - 0.5) < 0.01)
    assert np.all(np.abs(variances - 1.0 / 12.0) < 0.01)


def test_xor_shift_changes_points():
    base = sobol_raw(3, 256)
    shifted = digital_shift(base, seed=5)
    assert not np.array_equal(shifted, np.clip(base, CLAMP_LOW, CLAMP_HIGH))


def test_argument_validation():
    with pytest.raises(ValueError):
        sobol_raw(0, 8)
    with pytest.raises(ValueError):
        sobol_raw(21202, 8)
    with pytest.raises(ValueError):
        sobol_raw(3, 0)
    with pytest.raises(ValueError, match="m must be"):
        sobol_stream(3, 1.5, 3)
    with pytest.raises(ValueError, match="dimension must be"):
        sobol_stream(2.5, 4, 3)
    with pytest.raises(ValueError, match="m must be"):
        sobol_raw(3, True)
    with pytest.raises(ValueError, match="seed must be"):
        sobol_stream(3, 8, seed=True)
    with pytest.raises(ValueError):
        sobol_stream(3, 8, seed=-1)
    with pytest.raises(ValueError):
        sobol_stream(3, 8, seed=2**64)
    with pytest.raises(ValueError):
        digital_shift(np.zeros((4, 3)), seed=1.5)
    with pytest.raises(ValueError):
        digital_shift(np.zeros(3), seed=1)


@pytest.mark.parametrize("points", [[[2.0, -0.5, 0.3]], [[np.nan, 0.5, 0.3]],
                                    [[0.5, np.inf, 0.3]], [[0.5, 0.5, 1.0]],
                                    [[0.5, 0.5, -1e-300]]],
                         ids=["outside", "nan", "inf", "one", "below_zero"])
def test_digital_shift_rejects_points_outside_unit_interval(points):
    # such points used to shift to 1.0 (and NaN warned) without complaint
    with pytest.raises(ValueError, match=r"finite and lie in \[0, 1\)"):
        digital_shift(points, 1)
