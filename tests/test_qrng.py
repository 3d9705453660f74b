import numpy as np
import pytest

from bepower.qrng import (
    CLAMP_HIGH,
    CLAMP_LOW,
    _apply_shift,
    digital_shift,
    sobol_raw,
    sobol_stream,
)


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


def test_stream_points_read_only():
    s = sobol_stream(2, 8, seed=1)
    with pytest.raises(ValueError):
        s.points[0, 0] = 0.25


def test_zero_shift_is_identity_up_to_clamp():
    pts = sobol_raw(3, 128)
    shifted = _apply_shift(pts, np.zeros(3, dtype=np.uint64))
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
