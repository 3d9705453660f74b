import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from bepower import (
    CrossoverSpec,
    chow_sample_size,
    crossover_sample_size,
    power_curve,
    to_two_group,
)

from bepower.special import t_quantile
from oracles import t_quantile_ref

# log-scale bioequivalence setting: effect 0.05, limits 0.223, common
# period-difference SD of 0.4
BE_KW = dict(F=0.05, sigma_D1=0.4, sigma_D2=0.4, delta_L=-0.223,
             delta_U=0.223, alpha=0.05)

# a design on a scale where integers are valid, and for each field a
# Fraction, an np.float32 and an np.int64 it accepts (no integer is a
# valid alpha)
BASE_FIELDS = dict(F=5.0, sigma_D1=40.0, sigma_D2=30.0, delta_L=-22.3,
                   delta_U=22.3, alpha=0.05, q=1.25)
NON_FLOAT_FIELDS = [
    (name, value) for name, values in (
        ("F", (Fraction(9, 2), np.float32(5.1), np.int64(5))),
        ("sigma_D1", (Fraction(81, 2), np.float32(40.3), np.int64(41))),
        ("sigma_D2", (Fraction(301, 10), np.float32(30.1), np.int64(29))),
        ("delta_L", (Fraction(-223, 10), np.float32(-22.3), np.int64(-22))),
        ("delta_U", (Fraction(223, 10), np.float32(22.3), np.int64(22))),
        ("alpha", (Fraction(1, 20), np.float32(0.05))),
        ("q", (Fraction(5, 4), np.float32(1.25), np.int64(1))))
    for value in values]


class TestSpecAndMapping:
    @pytest.mark.parametrize(
        "name, value", NON_FLOAT_FIELDS,
        ids=[f"{n}-{type(v).__name__}" for n, v in NON_FLOAT_FIELDS])
    def test_non_float_fields_compute_as_their_floats(self, name, value):
        # each field is stored as the float it rounds to
        cspec = CrossoverSpec(**{**BASE_FIELDS, name: value})
        plain = CrossoverSpec(**{**BASE_FIELDS, name: float(value)})
        assert all(type(v) is float for v in vars(cspec).values())
        assert cspec == plain
        assert to_two_group(cspec) == to_two_group(plain)
        got, want = (crossover_sample_size(c, 0.8, 64, 5)
                     for c in (cspec, plain))
        np.testing.assert_equal(dataclasses.asdict(got),
                                dataclasses.asdict(want))

    def test_mapping_halves_period_difference_sds(self):
        cspec = CrossoverSpec(F=0.05, sigma_D1=0.4, sigma_D2=0.3,
                              delta_L=-0.223, delta_U=0.223, alpha=0.05,
                              q=1.25)
        spec = to_two_group(cspec)
        assert spec.mu_diff == cspec.F
        assert spec.sigma1 == 0.2 and spec.sigma2 == 0.15
        assert (spec.delta_L, spec.delta_U) == (-0.223, 0.223)
        assert spec.alpha == 0.05 and spec.q == 1.25

    def test_validation_uses_crossover_names(self):
        with pytest.raises(ValueError, match="sigma_D1 must be positive"):
            CrossoverSpec(**{**BE_KW, "sigma_D1": -1.0})
        with pytest.raises(ValueError, match="F must be finite"):
            CrossoverSpec(**{**BE_KW, "F": float("nan")})
        with pytest.raises(ValueError, match="invalid crossover design"):
            CrossoverSpec(**{**BE_KW, "alpha": 0.7})
        with pytest.raises(ValueError, match=r"alpha must exceed 2 \*\* -54"):
            CrossoverSpec(**{**BE_KW, "alpha": 1e-17})
        # the unit form checked is the group design's, with halved sigmas
        with pytest.raises(ValueError, match=r"sigma_D2 is lost in units of "
                           r"2 \*\* -?\d+, the scale of max\(sigma_D1, "
                           r"sigma_D2\)"):
            CrossoverSpec(**{**BE_KW, "sigma_D2": 5e-324})
        with pytest.raises(ValueError, match="F must be a real number"):
            CrossoverSpec(**{**BE_KW, "F": "0.05"})


class TestCrossoverSampleSize:
    def test_delegates_to_power_curve(self):
        cspec = CrossoverSpec(**BE_KW)
        a = crossover_sample_size(cspec, 0.8, 512, seed=5)
        b = power_curve(to_two_group(cspec), 0.8, 512, seed=5)
        assert a.rec_n1 == b.rec_n1 and a.rec_n2 == b.rec_n2
        assert a.n_star_final == b.n_star_final

    def test_symmetric_design_recommendation(self):
        # converged recommendation for this design is 18 per sequence
        pc = crossover_sample_size(CrossoverSpec(**BE_KW), 0.8, 2048, seed=5)
        assert pc.rec_n1 in (17, 18, 19)
        assert pc.rec_n2 == pc.rec_n1

    def test_asymmetric_limits_cost_subjects(self):
        shifted = CrossoverSpec(**{**BE_KW, "delta_L": -0.123})
        sym = crossover_sample_size(CrossoverSpec(**BE_KW), 0.8, 1024, seed=5)
        asym = crossover_sample_size(shifted, 0.8, 1024, seed=5)
        assert asym.rec_n1 > sym.rec_n1

    def test_effect_outside_limits_rejected(self):
        cspec = CrossoverSpec(**{**BE_KW, "F": 0.3})
        with pytest.raises(ValueError, match="F must lie strictly between"):
            crossover_sample_size(cspec, 0.8, 64, seed=1)

    def test_ints_beyond_float_range_rejected(self):
        cspec = CrossoverSpec(**BE_KW)
        with pytest.raises(ValueError, match="B must be"):
            crossover_sample_size(cspec, 0.8, 64, seed=1, B=10 ** 400)
        with pytest.raises(ValueError, match="tol must be"):
            crossover_sample_size(cspec, 0.8, 64, seed=1, tol=10 ** 400)

    def test_censoring_bound_error(self):
        with pytest.raises(RuntimeError, match="B=4"):
            crossover_sample_size(CrossoverSpec(**BE_KW), 0.8, 128, seed=1,
                                  B=4.0)


class TestChowSampleSize:
    def test_frozen_reference_case(self):
        assert chow_sample_size(0.05, 0.4, 0.223, 0.05, 0.2) == 24

    def test_returned_n_is_smallest_satisfying_inequality(self):
        # verify the defining inequality at n and its failure at n - 1
        # with bisection-inverted t quantiles
        for beta in (0.2, 0.1):
            n = chow_sample_size(0.05, 0.4, 0.223, 0.05, beta)

            def bound(k):
                df = 2 * k - 2
                t_a = t_quantile_ref(0.95, df)
                t_b = t_quantile_ref(1.0 - beta / 2.0, df)
                return (t_a + t_b) ** 2 * 0.4 ** 2 / (2.0 * (0.223 - 0.05) ** 2)

            assert n >= bound(n)
            assert n - 1 < bound(n - 1)

    def test_wide_limits_need_minimum_n(self):
        assert chow_sample_size(0.0, 0.1, 50.0, 0.05, 0.2) == 2

    def test_monotone_in_margin_and_sd(self):
        ns = [chow_sample_size(0.05, 0.4, d, 0.05, 0.2)
              for d in (0.2, 0.223, 0.25, 0.3)]
        assert ns == sorted(ns, reverse=True)
        ns = [chow_sample_size(0.05, s, 0.223, 0.05, 0.2)
              for s in (0.3, 0.4, 0.5)]
        assert ns == sorted(ns)

    def test_conservative_relative_to_curve(self):
        # the closed form sizes against the nearer limit only and is
        # known to over-recommend
        pc = crossover_sample_size(CrossoverSpec(**BE_KW), 0.8, 2048, seed=5)
        chow = chow_sample_size(0.05, 0.4, 0.223, 0.05, 0.2)
        assert chow > pc.rec_n1

    def test_infeasible_effect(self):
        with pytest.raises(ValueError, match="infeasible"):
            chow_sample_size(0.223, 0.4, 0.223, 0.05, 0.2)
        with pytest.raises(ValueError, match="infeasible"):
            chow_sample_size(-0.3, 0.4, 0.223, 0.05, 0.2)

    @pytest.mark.parametrize("F,sigma_D,delta_U,alpha,beta", [
        (0.05, 0.4, 0.223, 0.05, 0.2),
        (0.05, 0.4, 0.223, 0.05, 0.1),
        (0.0, 0.25, 0.223, 0.05, 0.2),
        (0.1, 0.6, 0.223, 0.1, 0.3),
        (0.15, 0.4, 0.223, 0.01, 0.05),
        (0.0, 0.1, 50.0, 0.05, 0.2),
        (0.21, 0.4, 0.223, 0.05, 0.2),  # near the limit: n in the thousands
    ])
    def test_search_matches_linear_scan(self, F, sigma_D, delta_U, alpha,
                                        beta):
        # the smallest n found by a plain scan over n = 2, 3, ...
        scale = sigma_D ** 2 / (2.0 * (delta_U - abs(F)) ** 2)
        n = 2
        while n < (t_quantile(1.0 - alpha, 2 * n - 2)
                   + t_quantile(1.0 - beta / 2.0, 2 * n - 2)) ** 2 * scale:
            n += 1
        assert chow_sample_size(F, sigma_D, delta_U, alpha, beta) == n

    def test_no_n_up_to_a_million(self):
        with pytest.raises(RuntimeError, match="1000000"):
            chow_sample_size(0.2229999, 0.4, 0.223, 0.05, 0.2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_non_finite_inputs_rejected(self, field, bad):
        # F, sigma_D, delta_U; NaN used to search up to n = 1e6
        args = [0.05, 0.4, 0.223, 0.05, 0.2]
        args[field] = bad
        with pytest.raises(ValueError, match="must be finite"):
            chow_sample_size(*args)

    @pytest.mark.parametrize("F,sigma_D,delta_U", [
        (0.0, 0.4, 1e-200),  # (delta_U - |F|) ** 2 underflows to 0
        (0.0, 1e300, 0.223),  # sigma_D ** 2 overflows
    ])
    def test_scale_beyond_float_range_needs_no_n(self, F, sigma_D, delta_U):
        # these leaked ZeroDivisionError and OverflowError
        with pytest.raises(RuntimeError, match="1000000"):
            chow_sample_size(F, sigma_D, delta_U, 0.05, 0.2)

    def test_scale_free_in_the_units(self):
        # the CLI's huge crossover design needs what its unit-scale twin does
        assert (chow_sample_size(0.0, 1e153, 1e155, 0.05, 0.2)
                == chow_sample_size(0.0, 0.01, 1.0, 0.05, 0.2) == 2)
        assert chow_sample_size(0.05e150, 0.4e150, 0.223e150, 0.05,
                                0.2) == 24

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="sigma_D"):
            chow_sample_size(0.05, 0.0, 0.223, 0.05, 0.2)
        with pytest.raises(ValueError, match="alpha and beta"):
            chow_sample_size(0.05, 0.4, 0.223, 0.0, 0.2)

    @pytest.mark.parametrize("alpha,beta,msg", [
        (1e-300, 0.2, r"alpha must exceed 2 \*\* -54"),
        (2.0 ** -54, 0.2, r"alpha must exceed 2 \*\* -54"),
        (0.05, 1e-17, r"beta must exceed 2 \*\* -53"),
        (0.05, 2.0 ** -53, r"beta must exceed 2 \*\* -53"),
    ])
    def test_levels_whose_complement_rounds_to_one(self, alpha, beta, msg):
        # t_quantile(1 - alpha) or t_quantile(1 - beta / 2) would get p = 1
        with pytest.raises(ValueError, match=msg):
            chow_sample_size(0.05, 0.4, 0.223, alpha, beta)
        # the next doubles up work
        assert chow_sample_size(0.05, 0.4, 0.223, 2.0 ** -53, 2.0 ** -52) > 2
