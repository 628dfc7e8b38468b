import math

import numpy as np
import pytest

from volumetrica.stats import (
    DegenerateDataError,
    bland_altman,
    bootstrap_ci,
    kfold,
    levene,
    one_way_anova,
    paired_t,
    shapiro_wilk,
    tukey_hsd,
)
from volumetrica.stats import special
from volumetrica.stats.special import betainc, studentized_range_cdf, t_two_sided

# frozen reference-oracle values (scipy 1.15.3, computed before the build)
STUDENTIZED_RANGE_REFERENCE = {
    (3.0, 3, 10): 0.8650165848104374,
    (3.877, 3, 10): 0.9500129112467469,
    (4.2, 4, 20): 0.9649114903317834,
    (2.5, 2, 5): 0.8626578735659658,
    (5.0, 6, 96): 0.9919686393102658,
    (3.63, 4, 1332): 0.9492711497317454,
}
SHAPIRO_LINEAR50 = (0.9555826875589973, 0.058091862177350316)


class TestBlandAltman:
    def test_equal_inputs(self):
        x = np.arange(5.0)
        ba = bland_altman(x, x)
        assert ba.bias == 0.0
        assert (ba.loa_lower, ba.loa_upper) == (0.0, 0.0)

    def test_constant_shift(self):
        x = np.arange(6.0)
        ba = bland_altman(x + 5.0, x)
        assert ba.bias == 5.0
        assert ba.sd_diff == 0.0
        assert (ba.loa_lower, ba.loa_upper) == (5.0, 5.0)

    def test_against_direct_formula(self):
        rng = np.random.default_rng(0)
        m = rng.normal(100, 10, 10).astype(np.longdouble)
        a = rng.normal(100, 10, 10).astype(np.longdouble)
        d = m - a
        bias = float(d.mean())
        sd = float(np.sqrt(((d - d.mean()) ** 2).sum() / 9))
        ba = bland_altman(m.astype(float), a.astype(float))
        assert ba.bias == pytest.approx(bias, abs=1e-12)
        assert ba.sd_diff == pytest.approx(sd, abs=1e-12)
        assert ba.loa_lower == pytest.approx(bias - 1.96 * sd, abs=1e-12)
        assert ba.loa_upper == pytest.approx(bias + 1.96 * sd, abs=1e-12)

    def test_limits_recompute_from_differences(self):
        rng = np.random.default_rng(1)
        ba = bland_altman(rng.normal(size=20), rng.normal(size=20))
        d = ba.differences
        sd = math.sqrt(np.sum((d - d.mean()) ** 2) / (len(d) - 1))
        assert ba.loa_upper == pytest.approx(float(d.mean()) + 1.96 * sd, abs=1e-12)

    def test_length_checks(self):
        with pytest.raises(ValueError):
            bland_altman([1.0], [1.0])
        with pytest.raises(ValueError):
            bland_altman([1.0, 2.0], [1.0, 2.0, 3.0])


class TestPairedT:
    def test_identical_vectors_degenerate(self):
        x = np.arange(5.0)
        with pytest.raises(DegenerateDataError):
            paired_t(x, x)

    def test_zero_statistic_two_sided_p_is_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([2.0, 1.0, 4.0, 3.0])  # differences +/-1, mean 0
        res = paired_t(x, y)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_matches_t_distribution_kernel(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, 12)
        y = rng.normal(0.4, 1, 12)
        res = paired_t(x, y)
        d = x - y
        t = d.mean() / (d.std(ddof=1) / math.sqrt(12))
        assert res.statistic == pytest.approx(t, rel=1e-12)
        assert res.p_value == pytest.approx(t_two_sided(t, 11), rel=1e-12)


class TestAnova:
    def test_equal_constant_groups_f_zero(self):
        groups = [[3.0, 3.0, 3.0], [3.0, 3.0], [3.0, 3.0, 3.0]]
        res = one_way_anova(groups)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_brute_force_sum_of_squares(self):
        # classic 3-group teaching dataset
        groups = [
            np.array([6.0, 8.0, 4.0, 5.0, 3.0, 4.0]),
            np.array([8.0, 12.0, 9.0, 11.0, 6.0, 8.0]),
            np.array([13.0, 9.0, 11.0, 8.0, 7.0, 12.0]),
        ]
        allv = np.concatenate(groups)
        grand = allv.mean()
        ss_total = np.sum((allv - grand) ** 2)
        ss_within = sum(np.sum((g - g.mean()) ** 2) for g in groups)
        ss_between = ss_total - ss_within
        f_oracle = (ss_between / 2.0) / (ss_within / 15.0)
        res = one_way_anova(groups)
        assert res.statistic == pytest.approx(f_oracle, abs=1e-9)
        assert res.df == (2.0, 15.0)

    def test_f_equals_t_squared_for_two_groups(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(0, 1, 14), rng.normal(0.6, 1, 17)
        res = one_way_anova([a, b])
        # unpaired equal-variance t statistic
        sp2 = ((len(a) - 1) * a.var(ddof=1) + (len(b) - 1) * b.var(ddof=1)) / (len(a) + len(b) - 2)
        t = (a.mean() - b.mean()) / math.sqrt(sp2 * (1 / len(a) + 1 / len(b)))
        assert res.statistic == pytest.approx(t * t, rel=1e-9)

    def test_distinct_means_zero_within_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            one_way_anova([[1.0, 1.0], [2.0, 2.0]])


class TestTukey:
    def test_p_values_against_frozen_reference(self):
        for (q, k, df), ref in STUDENTIZED_RANGE_REFERENCE.items():
            assert studentized_range_cdf(q, k, df) == pytest.approx(ref, abs=1e-6)

    def test_pairwise_structure(self):
        rng = np.random.default_rng(4)
        groups = [rng.normal(m, 1, 10) for m in (0.0, 0.5, 2.0, 2.1)]
        res = tukey_hsd(groups)
        assert len(res) == 6
        pairs = [pair for pair, _ in res]
        assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        far = dict(res)[(0, 2)]
        near = dict(res)[(2, 3)]
        assert far.p_value < near.p_value

    def test_identical_groups_degenerate(self):
        with pytest.raises(DegenerateDataError):
            tukey_hsd([[1.0, 1.0], [1.0, 1.0]])

    def test_vector_normal_functions_equal_the_scalar_ones(self):
        # the studentized range quadrature evaluates them on arrays; every
        # element must be the scalar function's float, bit for bit
        z = np.concatenate([np.random.default_rng(9).normal(0.0, 6.0, 999),
                            [0.0, -0.0, 8.5, -8.5, 38.5, -38.5, 1e-300, -1e-300]])
        for vec, scalar in [(special._phi_vec, special.normal_cdf),
                            (special._pdf_vec, special.normal_pdf)]:
            got = vec(z)
            assert got.dtype == np.float64 and got.shape == z.shape
            want = np.array([scalar(float(v)) for v in z])
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestShapiroWilk:
    def test_linear_sequence_frozen_fixture(self):
        res = shapiro_wilk(np.arange(1.0, 51.0))
        assert res.statistic < 0.99
        assert res.statistic == pytest.approx(SHAPIRO_LINEAR50[0], abs=1e-6)
        assert res.p_value == pytest.approx(SHAPIRO_LINEAR50[1], abs=1e-6)

    def test_size_limits(self):
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(ValueError):
            shapiro_wilk(np.arange(5001.0))

    def test_constant_input_degenerate(self):
        with pytest.raises(DegenerateDataError):
            shapiro_wilk(np.full(10, 3.0))

    def test_gaussian_data_high_p(self):
        rng = np.random.default_rng(123)
        res = shapiro_wilk(rng.normal(3.0, 1.5, 24))
        # frozen from the reference oracle on the identical sample
        assert res.statistic == pytest.approx(0.960496943660814, abs=1e-6)
        assert res.p_value == pytest.approx(0.4484897324468914, abs=1e-5)


class TestLevene:
    def test_identical_groups_degenerate(self):
        with pytest.raises(DegenerateDataError):
            levene([[2.0, 2.0, 2.0], [2.0, 2.0]])

    def test_mirrored_groups_f_zero(self):
        # same spread around different centers
        res = levene([[1.0, 3.0], [10.0, 12.0], [-5.0, -3.0]])
        assert res.statistic == pytest.approx(0.0, abs=1e-9)

    def test_detects_unequal_spread(self):
        rng = np.random.default_rng(5)
        res = levene([rng.normal(0, 1, 40), rng.normal(0, 6, 40)])
        assert res.p_value < 0.01


class TestBootstrap:
    def test_constant_vector(self):
        lo, hi = bootstrap_ci(np.full(10, 4.2), resamples=200, seed=1)
        assert lo == hi
        assert lo == pytest.approx(4.2, rel=1e-15)
        lo, hi = bootstrap_ci(np.full(10, 4.5), resamples=200, seed=1)
        assert lo == hi == 4.5  # dyadic value survives summation exactly

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=30)
        assert bootstrap_ci(v, 500, seed=7) == bootstrap_ci(v, 500, seed=7)
        assert bootstrap_ci(v, 500, seed=7) != bootstrap_ci(v, 500, seed=8)

    def test_coverage_monte_carlo(self):
        covered = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            sample = rng.normal(0.0, 1.0, 100)
            lo, hi = bootstrap_ci(sample, resamples=300, seed=seed)
            if lo <= 0.0 <= hi:
                covered += 1
        assert covered >= 90

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0])


class TestKfold:
    def test_ten_by_five(self):
        plan = kfold(10, 5, seed=0)
        sizes = [len(plan.test_indices(f)) for f in range(5)]
        assert sizes == [2, 2, 2, 2, 2]
        allidx = np.concatenate([plan.test_indices(f) for f in range(5)])
        assert sorted(allidx.tolist()) == list(range(10))

    def test_eleven_by_five_balance(self):
        plan = kfold(11, 5, seed=1)
        sizes = sorted((len(plan.test_indices(f)) for f in range(5)), reverse=True)
        assert sizes == [3, 2, 2, 2, 2]

    def test_partition_property(self):
        for seed in range(5):
            plan = kfold(23, 4, seed=seed)
            concat = np.concatenate([plan.test_indices(f) for f in range(4)])
            assert sorted(concat.tolist()) == list(range(23))

    def test_deterministic(self):
        np.testing.assert_array_equal(kfold(20, 5, seed=3).fold_of, kfold(20, 5, seed=3).fold_of)

    def test_n_less_than_k(self):
        with pytest.raises(ValueError):
            kfold(3, 5)


class TestBetainc:
    def test_boundaries(self):
        assert betainc(2.0, 3.0, 0.0) == 0.0
        assert betainc(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.uniform(0.5, 20, 2)
            x = rng.uniform(0, 1)
            assert betainc(a, b, x) == pytest.approx(1.0 - betainc(b, a, 1.0 - x), abs=1e-12)

    def test_uniform_case(self):
        for x in (0.1, 0.33, 0.77):
            assert betainc(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)
