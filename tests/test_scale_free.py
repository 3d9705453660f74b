"""The scale-free core: designs are computed in units of 2 ** e.

Multiplying every response quantity of a design by 2 ** k changes no
decision, so every output of `spec.scaled(2.0 ** k)` equals that of
spec, and each statistic in the design's units is the unscaled one
times 2 ** k (2 ** 2k for a variance), rounded.  The fuzz draws fields
over the whole float range and checks that every accepted design works
or fails with a clear error, with no RuntimeWarning.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bepower import (CrossoverSpec, DesignSpec, crossover_sample_size,
                     empirical_power, lambda_of_n, naive_power, power_curve,
                     scan_intersections, scan_se_peak, scenario_summary,
                     se_of_n, smallest_crossing, stats_from_point,
                     to_two_group)
from bepower.qrng import sobol_stream

SCALE_DESIGNS = {
    "motivating": DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2),
    "mu16_q15": DesignSpec(-16.0, 18.0, 15.0, -19.2, 19.2, q=1.5),
    "a03_q08": DesignSpec(-4.0, 18.0, 15.0, -19.2, 19.2, alpha=0.3, q=0.8),
}
SCALE_KS = (-1000, -900, -400, -300, -60, -1, 1, 7, 100, 300, 400, 900, 1000)
POINTS = sobol_stream(3, 8, 3).points


def scale_free_outputs(spec):
    """Every output that the scale of the design must not move."""
    curve = power_curve(spec, 0.8, 512, 5)
    return {
        "curve": dataclasses.asdict(curve),
        "empirical": [empirical_power(spec, n, n, 4096, 7)
                      for n in (2, 10, 40)],
        "summary": scenario_summary(spec, 120, 128, 1, 3),
        "naive": naive_power(spec, 10, 12, 256, 3),
        "intersections": [scan_intersections(u, spec, 120) for u in POINTS],
    }


def scaled_statistics(spec):
    """Statistics in the design's units, each with the power of 2 ** k
    that it scales with."""
    out = []
    for u in POINTS:
        stats = stats_from_point(u, spec, 7.5, 11.0)
        out += [(stats.d_bar, 1), (stats.s1_sq, 2), (stats.s2_sq, 2),
                (stats.se, 1), (stats.nu, 0), (se_of_n(u, spec, 9.3), 1),
                (lambda_of_n(u, spec, 9.3), 1)]
    return out


@pytest.mark.parametrize("name", sorted(SCALE_DESIGNS))
def test_scaled_design_gives_the_same_outputs(name):
    spec = SCALE_DESIGNS[name]
    base = scale_free_outputs(spec)
    stats = scaled_statistics(spec)
    for k in SCALE_KS:
        scaled = spec.scaled(2.0 ** k)
        np.testing.assert_equal(scale_free_outputs(scaled), base,
                                err_msg=f"k = {k}")
        # the statistic times 2 ** k, rounded: inf where that overflows
        with np.errstate(over="ignore"):
            expected = [np.ldexp(v, p * k) for v, p in stats]
        got = [v for v, _ in scaled_statistics(scaled)]
        np.testing.assert_array_equal(got, expected, err_msg=f"k = {k}")
        assert np.isinf(got).any() == (k >= 900)


def fuzz_spec(cls, fields):
    """cls(*fields), or None where the constructor rejects it with a
    ValueError."""
    try:
        return cls(*fields)
    except ValueError:
        return None


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SIGMA = st.floats(5e-324, 1.7e308)
ALPHA = st.one_of(st.just(0.5), st.floats(0.5 - 1e-9, 0.5),
                  st.floats(1e-3, 0.5))
# the whole positive float range, subnormals included: q * n overflows
# above about 1e308 / n, and the domain start 2 / q below about 1e-308
Q = st.floats(5e-324, np.finfo(float).max)


@st.composite
def fuzz_fields(draw):
    """(mu, sigma1, sigma2, delta_L, delta_U, alpha, q): either every
    response field drawn over the whole float range, or a modest design
    scaled by one power of two from the whole exponent range."""
    if draw(st.booleans()):
        mu, lo, hi = sorted(draw(st.lists(FINITE, min_size=3, max_size=3)))
        if draw(st.booleans()):
            mu, lo = lo, mu
        response = (mu, draw(SIGMA), draw(SIGMA), lo, hi)
    else:
        k = draw(st.integers(-1070, 1015))
        half = draw(st.floats(0.1, 100.0))
        response = tuple(v * 2.0 ** k for v in (
            draw(st.floats(-1.0, 1.0)) * half, draw(st.floats(0.1, 100.0)),
            draw(st.floats(0.1, 100.0)), -half, half))
    return response + (draw(ALPHA), draw(Q))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(fields=fuzz_fields(), crossover=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(fields=(0.0, 1e-160, 1e-160, -1e-160, 1e-160, 0.05, 1.0),
         crossover=False, seed=1)
@example(fields=(-4e300, 1.7e308, 1.5e308, -1.9e300, 1.9e300, 0.5, 1e3),
         crossover=False, seed=2)
@example(fields=(0.0, 1e300, 1e-300, -1e-300, 1e-300, 0.05, 1.0),
         crossover=False, seed=3)
@example(fields=(0.0, 1.0, 1.0, -8e307, 8e307, 0.5 - 1e-16, 1e-3),
         crossover=False, seed=4)
@example(fields=(0.0, 5e-324, 5e-324, -1e-323, 1e-323, 0.05, 1.0),
         crossover=True, seed=5)
def test_fuzz_accepted_designs_work_or_fail_cleanly(fields, crossover, seed):
    if crossover:
        cspec = fuzz_spec(CrossoverSpec, fields)
        spec = None if cspec is None else to_two_group(cspec)
    else:
        spec = fuzz_spec(DesignSpec, fields)
    if spec is None:
        return
    u = (0.2, 0.7, 0.4)
    calls = [lambda: empirical_power(spec, 2, 3, 64, seed),
             lambda: stats_from_point(u, spec, 2.5, 30.0),
             lambda: naive_power(spec, 3, 2, 64, seed),
             lambda: scan_intersections(u, spec, 40),
             lambda: scan_se_peak(u, spec, 40),
             lambda: se_of_n(u, spec, 7.5),
             lambda: lambda_of_n(u, spec, 7.5),
             lambda: smallest_crossing(u, spec)]
    if spec.delta_L < spec.mu_diff < spec.delta_U:
        calls.append(lambda: power_curve(spec, 0.8, 64, seed))
        if crossover:
            calls.append(lambda: crossover_sample_size(cspec, 0.8, 64, seed))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            try:
                out = call()
            except (ValueError, RuntimeError):
                continue
            # a NaN is a silent failure, not a clean one
            assert out == out, "NaN output"

