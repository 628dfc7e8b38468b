import math

import numpy as np
import pytest

from volumetrica.geometry import SliceAreaSeries
from volumetrica.numopt import (
    FitError,
    LMConfig,
    LMError,
    Polynomial,
    ellipsoid_slice_profile,
    levenberg_marquardt,
    poly_integral,
    polyfit,
    refine_volume,
    select_degree,
)


# quadrature oracles for the regression and area-based estimators
def trapezoid(series: SliceAreaSeries) -> float:
    """Composite trapezoidal rule over the series samples."""
    if len(series) < 2:
        raise ValueError("trapezoid needs at least 2 samples")
    x, y = series.positions, series.areas
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def simpson(series: SliceAreaSeries) -> float:
    """Composite Simpson rule; needs an odd sample count (even panel count)."""
    n = len(series)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"simpson needs an odd sample count >= 3, got {n}")
    h = series.thickness
    y = series.areas
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def _series(y, h=1.0, x0=0.0):
    y = np.asarray(y, dtype=float)
    return SliceAreaSeries(x0 + np.arange(len(y)) * h, y, h)


class TestPolyfit:
    def test_exact_parabola(self):
        fit = polyfit(([0.0, 1.0, 2.0], [0.0, 1.0, 4.0]), 2)
        assert fit.mse == pytest.approx(0.0, abs=1e-18)
        np.testing.assert_allclose(fit.polynomial.coefficients, [0, 0, 1], atol=1e-9)

    def test_sample_series_degree8_mse(self, sample_nodule_series):
        fit = polyfit((sample_nodule_series.positions, sample_nodule_series.areas), 8)
        assert fit.mse == pytest.approx(10.0889, rel=0.02)

    def test_against_normal_equations_oracle(self):
        # extended-precision normal equations on the same scaled basis
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(-3, 5, 40))
        y = 2.0 - x + 0.5 * x**2 - 0.1 * x**3 + 0.02 * x**4 + rng.normal(0, 0.3, 40)
        fit = polyfit((x, y), 4)

        mid = np.longdouble(0.5) * (x.max() + x.min())
        half = np.longdouble(0.5) * (x.max() - x.min())
        u = (x.astype(np.longdouble) - mid) / half
        V = np.vander(u, 5, increasing=True)
        G = V.T @ V
        c_u = np.linalg.solve(G.astype(np.float64), (V.T @ y.astype(np.longdouble)).astype(np.float64))
        # map scaled-basis coefficients to the monomial basis
        shift = np.array([-float(mid / half), 1.0 / float(half)])
        coeffs = np.zeros(1)
        upow = np.array([1.0])
        for ck in c_u:
            coeffs = np.polynomial.polynomial.polyadd(coeffs, ck * upow)
            upow = np.polynomial.polynomial.polymul(upow, shift)
        np.testing.assert_allclose(fit.polynomial.coefficients, coeffs, rtol=1e-6, atol=1e-6)

    def test_underdetermined_rejected(self):
        with pytest.raises(FitError):
            polyfit(([0.0, 1.0], [1.0, 2.0]), 2)

    def test_duplicate_x_rejected(self):
        with pytest.raises(FitError):
            polyfit(([1.0, 1.0, 2.0], [0.0, 1.0, 2.0]), 1)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0, 10, 30))
        y = rng.normal(0, 5, 30)
        for degree in (2, 5, 8):
            fit = polyfit((x, y), degree)
            mid, half = 0.5 * (x.max() + x.min()), 0.5 * (x.max() - x.min())
            u = (x - mid) / half
            V = np.vander(u, degree + 1, increasing=True)
            resid = y - fit.polynomial(x)
            assert np.linalg.norm(V.T @ resid) < 1e-8 * np.linalg.norm(V.T @ y)


class TestSelectDegree:
    def test_mse_non_increasing_in_degree(self, sample_nodule_series):
        points = (sample_nodule_series.positions, sample_nodule_series.areas)
        mses = [polyfit(points, d).mse for d in range(2, 11)]
        for lo, hi in zip(mses[1:], mses[:-1]):
            assert lo <= hi + 1e-9

    def test_exact_cubic_tie_breaks_low(self):
        x = np.arange(8.0)
        y = 1.0 + 2 * x - 0.5 * x**2 + 0.25 * x**3
        best = select_degree((x, y))
        assert best.polynomial.degree == 3
        assert best.mse == pytest.approx(0.0, abs=1e-12)

    def test_four_points_capped_at_degree_3(self):
        x = np.arange(4.0)
        y = np.array([0.0, 3.0, -1.0, 2.0])
        best = select_degree((x, y))
        assert best.polynomial.degree == 3
        assert best.mse == pytest.approx(0.0, abs=1e-15)

    def test_sample_series_degree_window_selects_8(self, sample_nodule_series):
        best = select_degree((sample_nodule_series.positions, sample_nodule_series.areas), 2, 8)
        assert best.polynomial.degree == 8
        assert best.mse == pytest.approx(10.0889, rel=0.02)

    def test_too_few_points(self):
        with pytest.raises(FitError):
            select_degree(([0.0, 1.0], [0.0, 1.0]))


class TestPolyIntegral:
    def test_constant(self):
        p = Polynomial([1.0], (0.0, 5.0))
        assert poly_integral(p, 0.0, 5.0) == 5.0

    def test_sample_series_best_fit_integral(self, sample_nodule_series):
        fit = select_degree((sample_nodule_series.positions, sample_nodule_series.areas), 2, 8)
        assert poly_integral(fit.polynomial, 1.0, 11.0) == pytest.approx(737.2175, abs=1.0)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        coeffs = rng.normal(0, 1, 6)
        p = Polynomial(coeffs, (-1.0, 2.0))
        xs = np.linspace(-1.0, 2.0, 1_000_001)
        oracle = np.trapezoid(p(xs), xs)
        assert poly_integral(p, -1.0, 2.0) == pytest.approx(oracle, rel=1e-6)

    def test_linear_in_polynomial_and_additive(self):
        rng = np.random.default_rng(2)
        c1, c2 = rng.normal(size=4), rng.normal(size=4)
        p1, p2 = Polynomial(c1, (0, 1)), Polynomial(c2, (0, 1))
        psum = Polynomial(c1 + c2, (0, 1))
        assert poly_integral(psum, 0, 1) == pytest.approx(
            poly_integral(p1, 0, 1) + poly_integral(p2, 0, 1), rel=1e-12
        )
        assert poly_integral(p1, 0, 2) == pytest.approx(
            poly_integral(p1, 0, 1.3) + poly_integral(p1, 1.3, 2), rel=1e-12
        )

    def test_order_check(self):
        with pytest.raises(ValueError):
            poly_integral(Polynomial([1.0], (0, 1)), 2.0, 1.0)


class TestQuadrature:
    def test_constant_profile(self):
        series = _series([3.0] * 5, h=2.0)
        assert trapezoid(series) == pytest.approx(3.0 * 8.0)
        assert simpson(series) == pytest.approx(3.0 * 8.0)

    def test_simpson_exact_on_quadratics(self):
        x = np.arange(7.0)
        series = _series(2 + 3 * x + 0.5 * x**2)
        exact = 2 * 6 + 1.5 * 36 + 0.5 * 216 / 3
        assert simpson(series) == pytest.approx(exact, abs=1e-12)

    def test_sphere_profile_trapezoid(self):
        r = 10.0
        z = np.arange(-10.0, 10.5, 1.0)
        areas = np.maximum(math.pi * (r * r - z * z), 0.0)
        series = SliceAreaSeries(z, areas, 1.0)
        assert trapezoid(series) == pytest.approx(4.0 / 3.0 * math.pi * r**3, rel=0.01)

    def test_simpson_order4_convergence(self):
        # sin-shaped profile: error shrinks ~16x when spacing halves
        def err(n):
            x = np.linspace(0.0, math.pi, n + 1)
            series = SliceAreaSeries(x, np.sin(x), x[1] - x[0])
            return abs(simpson(series) - 2.0)

        ratio = err(8) / err(16)
        assert 10.0 < ratio < 24.0

    def test_count_and_spacing_validation(self):
        with pytest.raises(ValueError):
            simpson(_series([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValueError):
            trapezoid(_series([1.0]))


class TestLevenbergMarquardt:
    def test_linear_ls_two_accepted_steps(self):
        rng = np.random.default_rng(0)
        A = 5.0 * rng.normal(size=(20, 3))
        b = rng.normal(size=20)
        theta_star, *_ = np.linalg.lstsq(A, b, rcond=None)
        theta, diag = levenberg_marquardt(lambda t: A @ t - b, lambda t: A, np.zeros(3))
        assert diag.converged
        assert diag.accepted_steps <= 2
        np.testing.assert_allclose(theta, theta_star, atol=1e-8)

    def test_start_at_optimum_zero_accepted(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(15, 3))
        b = rng.normal(size=15)
        theta_star, *_ = np.linalg.lstsq(A, b, rcond=None)
        _, diag = levenberg_marquardt(lambda t: A @ t - b, lambda t: A, theta_star)
        assert diag.converged
        assert diag.accepted_steps == 0

    def test_exponential_decay_recovery(self):
        c1, c2 = 2.5, 0.7
        x = np.linspace(0.0, 5.0, 40)
        y = c1 * np.exp(-c2 * x)
        theta, diag = levenberg_marquardt(
            lambda t: t[0] * np.exp(-t[1] * x) - y,
            lambda t: np.stack([np.exp(-t[1] * x), -t[0] * x * np.exp(-t[1] * x)], axis=1),
            np.array([1.0, 0.1]),
        )
        assert diag.converged and diag.iterations <= 200
        np.testing.assert_allclose(theta, [c1, c2], rtol=1e-6)

    def test_accepted_steps_never_increase_norm(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0, 4, 30)
        y = 3.0 * np.exp(-1.1 * x) + rng.normal(0, 0.05, 30)
        _, diag = levenberg_marquardt(
            lambda t: t[0] * np.exp(-t[1] * x) - y,
            lambda t: np.stack([np.exp(-t[1] * x), -t[0] * x * np.exp(-t[1] * x)], axis=1),
            np.array([1.0, 0.2]),
        )
        norms = diag.residual_norms
        assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))

    def test_non_finite_residuals_rejected(self):
        with pytest.raises(LMError):
            levenberg_marquardt(
                lambda t: np.array([np.nan]), lambda t: np.ones((1, 1)), np.array([1.0])
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LMConfig(lambda_increase=0.5)
        with pytest.raises(ValueError):
            LMConfig(lambda_decrease=1.5)


class TestRefineVolume:
    def test_exact_profile_recovery(self):
        a, b, c, z0 = 6.0, 5.0, 8.0, 0.0
        pos = np.arange(-10.0, 10.5, 1.0)
        series = SliceAreaSeries(pos, ellipsoid_slice_profile(pos, (a, b, c, z0)), 1.0)
        v = refine_volume(series)
        assert v == pytest.approx(4.0 / 3.0 * math.pi * a * b * c, rel=1e-6)

    def test_all_zero_areas_degenerate(self):
        series = _series([0.0, 0.0, 0.0, 0.0])
        with pytest.raises(FitError):
            refine_volume(series)

    def test_noisy_profile_within_5pct(self):
        a, b, c, z0 = 7.0, 6.0, 9.0, 0.5
        truth = 4.0 / 3.0 * math.pi * a * b * c
        pos = np.arange(-12.0, 13.0, 1.0)
        clean = ellipsoid_slice_profile(pos, (a, b, c, z0))
        failures = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = np.maximum(clean * (1.0 + rng.normal(0, 0.02, len(pos))), 0.0)
            series = SliceAreaSeries(pos, noisy, 1.0)
            v = refine_volume(series)
            if abs(v - truth) / truth > 0.05:
                failures += 1
        assert failures == 0
