import numpy as np
import pytest

from bepower import DesignSpec, empirical_power, naive_power
from bepower.oracle import _raw_samples


def test_single_trial_is_zero_or_one(motivating):
    p = naive_power(motivating, 20, 20, 1, seed=1)
    assert p in (0.0, 1.0)


def test_rejection_fraction_is_exact_count(motivating):
    p = naive_power(motivating, 10, 10, 777, seed=2)
    assert (p * 777) == round(p * 777)


def test_deterministic(motivating):
    a = naive_power(motivating, 15, 15, 2048, seed=5)
    b = naive_power(motivating, 15, 15, 2048, seed=5)
    assert a == b
    assert a != naive_power(motivating, 15, 15, 2048, seed=6)


def test_sample_moments_and_variance_convention(motivating):
    # the simulated samples must carry the design's means and SDs, and
    # the variance must match an explicit two-pass n-1 computation
    child = np.random.SeedSequence(3).spawn(1)[0]
    y1, y2 = _raw_samples(motivating, 40, 30, 4000, child)
    assert y1.shape == (4000, 40) and y2.shape == (4000, 30)
    assert np.mean(y1) == pytest.approx(motivating.mu_diff, abs=0.1)
    assert np.mean(y2) == pytest.approx(0.0, abs=0.1)
    assert np.std(y1) == pytest.approx(motivating.sigma1, rel=0.02)
    assert np.std(y2) == pytest.approx(motivating.sigma2, rel=0.02)
    two_pass = np.sum((y1 - y1.mean(axis=1, keepdims=True)) ** 2, axis=1) / 39.0
    assert np.allclose(y1.var(axis=1, ddof=1), two_pass, rtol=1e-12)


def test_power_near_zero_outside_limits():
    spec = DesignSpec(30.0, 0.5, 0.5, -19.2, 19.2)
    assert naive_power(spec, 50, 50, 4096, seed=2) <= 0.001


def test_power_near_one_with_wide_limits():
    spec = DesignSpec(0.0, 1.0, 1.0, -10.0, 10.0)
    assert naive_power(spec, 50, 50, 4096, seed=2) >= 0.999


def test_agrees_with_mapped_estimator(motivating):
    # two estimators of the same integral, independent sampling routes;
    # 4 sigma of the naive binomial error at this m
    m = 16384
    p_naive = naive_power(motivating, 20, 20, m, seed=11)
    p_mapped = empirical_power(motivating, 20, 20, m, seed=12)
    assert abs(p_naive - p_mapped) <= 4.0 * np.sqrt(0.882 * 0.118 / m)


def test_frozen_value(motivating):
    # converged value for this design is about 0.8815
    assert naive_power(motivating, 20, 20, 65536, seed=7) == pytest.approx(
        0.8817138671875, rel=1e-12)


def test_validation(motivating):
    with pytest.raises(ValueError, match="n1 must be"):
        naive_power(motivating, 1, 20, 64, seed=1)
    with pytest.raises(ValueError, match="n2 must be"):
        naive_power(motivating, 20, 2.5, 64, seed=1)
    with pytest.raises(ValueError, match="m must be"):
        naive_power(motivating, 20, 20, 0, seed=1)
    with pytest.raises(ValueError, match="m must be"):
        naive_power(motivating, 20, 20, 1.5, seed=1)
    with pytest.raises(ValueError, match="n1 must be"):
        naive_power(motivating, True, 20, 64, seed=1)
    with pytest.raises(ValueError, match="seed must be"):
        naive_power(motivating, 20, 20, 64, seed=True)
