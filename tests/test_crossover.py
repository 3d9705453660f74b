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


class TestSpecAndMapping:
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
        with pytest.raises(ValueError, match=r"sigma_D2 \*\* 2 overflows"):
            CrossoverSpec(**{**BE_KW, "sigma_D2": 1e200})
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
        with pytest.raises(ValueError, match="strictly between"):
            crossover_sample_size(cspec, 0.8, 64, seed=1)

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

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="sigma_D"):
            chow_sample_size(0.05, 0.0, 0.223, 0.05, 0.2)
        with pytest.raises(ValueError, match="alpha and beta"):
            chow_sample_size(0.05, 0.4, 0.223, 0.0, 0.2)
