import json
import math

import numpy as np
import pytest

from volumetrica.estimators import (
    EstimateCase,
    area_based_estimate,
    discrepancy,
    estimate_all,
    ml_estimate,
    ml_estimate_slicewise,
    pairwise_discrepancy,
    regression_estimate,
    spherical_estimate,
)
from volumetrica.geometry import SliceAreaSeries
from volumetrica.grid import Spacing, VoxelGrid
from volumetrica.nn.inference import mask_training_target, prepare_input
from volumetrica.nn.network import build_segmenter_3d
from volumetrica.nn.training import TrainConfig, train
from volumetrica.phantoms import PhantomSpec, make_phantom


class TestSpherical:
    def test_reference_radius_6mm(self):
        assert spherical_estimate(6.0) == pytest.approx(904.779, abs=0.001)
        assert round(spherical_estimate(6.0)) == 905

    def test_inverse_radius_for_unit_volume(self):
        r = (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
        assert spherical_estimate(r) == pytest.approx(1.0, rel=1e-12)

    def test_cubic_scaling(self):
        assert spherical_estimate(4.0) == pytest.approx(8.0 * spherical_estimate(2.0))

    def test_nonpositive_radius(self):
        with pytest.raises(ValueError):
            spherical_estimate(0.0)


class TestAreaBased:
    def test_sample_series_sum_is_797(self, sample_nodule_series):
        assert area_based_estimate(sample_nodule_series) == pytest.approx(797.0, abs=1e-9)

    def test_constant_profile(self):
        series = SliceAreaSeries(np.arange(5.0) * 2.0, np.full(5, 7.0), 2.0)
        assert area_based_estimate(series) == pytest.approx(5 * 2.0 * 7.0)

    def test_empty_series(self):
        with pytest.raises(ValueError):
            area_based_estimate(SliceAreaSeries(np.empty(0), np.empty(0), 1.0))

    def test_riemann_vs_trapezoid_bound(self, sample_nodule_series):
        from test_numopt import trapezoid

        t = sample_nodule_series.thickness
        a = sample_nodule_series.areas
        riemann = area_based_estimate(sample_nodule_series)
        trap = trapezoid(sample_nodule_series)
        assert abs(riemann - trap) <= t * (a[0] + a[-1]) / 2.0 + 1e-12


class TestRegression:
    def test_sample_series_degree8_fit(self, sample_nodule_series):
        volume, fit = regression_estimate(sample_nodule_series)
        assert fit.polynomial.degree == 8
        assert volume == pytest.approx(737.2175, abs=1.0)
        assert fit.mse == pytest.approx(10.0889, rel=0.02)

    def test_parabolic_profile_matches_simpson(self):
        from test_numopt import simpson

        x = np.arange(9.0)
        areas = 2.0 + 8.0 * x - x**2
        series = SliceAreaSeries(x, np.maximum(areas, 0.0), 1.0)
        volume, _ = regression_estimate(series)
        assert volume == pytest.approx(simpson(series), abs=1e-9)

    def test_three_collinear_samples_equal_trapezoid(self):
        from test_numopt import trapezoid

        series = SliceAreaSeries(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]), 1.0)
        volume, _ = regression_estimate(series)
        assert volume == pytest.approx(trapezoid(series), abs=1e-9)

    def test_too_few_samples(self):
        series = SliceAreaSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 1.0)
        with pytest.raises(ValueError):
            regression_estimate(series)

    def test_negative_integral_clamped_and_flagged(self):
        # nearly-zero concave profile whose best fit dips negative
        x = np.arange(5.0)
        areas = np.array([0.0, 0.0, 1e-9, 0.0, 0.0])
        series = SliceAreaSeries(x, areas, 1.0)
        volume, fit = regression_estimate(series)
        assert volume >= 0.0


@pytest.fixture(scope="module")
def trained_net():
    cases = []
    for i, radius in enumerate([7.0, 9.0, 11.0]):
        spec = PhantomSpec(kind="sphere", radius=radius, noise_sigma=0.05, seed=i)
        grid, mask, _ = make_phantom(spec, (48, 48, 48), Spacing(1, 1, 1))
        cases.append((prepare_input(grid), mask_training_target(mask)))
    net = build_segmenter_3d(seed=1)
    train(net, cases, TrainConfig(epochs=120, loss="bce"))
    return net


class TestMlEstimate:
    def test_heldout_sphere_within_15pct(self, trained_net):
        spec = PhantomSpec(kind="sphere", radius=10.0, noise_sigma=0.05, seed=50)
        grid, _, volume = make_phantom(spec, (48, 48, 48), Spacing(1, 1, 1))
        v = ml_estimate(grid, trained_net, 0.5)
        assert v == pytest.approx(volume, rel=0.15)

    def test_matched_880mm3_phantom(self, trained_net):
        # sample-case target: a nodule of about 880 cubic millimeters
        r = (3.0 * 880.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
        spec = PhantomSpec(kind="sphere", radius=r, noise_sigma=0.05, seed=88)
        grid, _, volume = make_phantom(spec, (48, 48, 48), Spacing(1, 1, 1))
        assert volume == pytest.approx(880.0, abs=0.01)
        v = ml_estimate(grid, trained_net, 0.5)
        assert v == pytest.approx(880.0, rel=0.15)

    def test_untrained_weak_net_gives_zero_above_threshold(self):
        # sigma(0) = 0.5 everywhere with zeroed parameters; threshold 0.6
        net = build_segmenter_3d(seed=0)
        for p in net.parameters():
            p[...] = 0.0
        spec = PhantomSpec(kind="sphere", radius=8.0)
        grid, _, _ = make_phantom(spec, (48, 48, 48), Spacing(1, 1, 1))
        assert ml_estimate(grid, net, 0.6) == 0.0

    def test_threshold_monotone(self, trained_net):
        spec = PhantomSpec(kind="sphere", radius=9.0, seed=3)
        grid, _, _ = make_phantom(spec, (48, 48, 48), Spacing(1, 1, 1))
        v_low = ml_estimate(grid, trained_net, 0.05)
        v_high = ml_estimate(grid, trained_net, 0.95)
        assert v_high <= v_low

    def test_rank_guard(self, trained_net):
        from volumetrica.nn.network import build_segmenter_2d

        spec = PhantomSpec(kind="sphere", radius=8.0)
        grid, _, _ = make_phantom(spec, (32, 32, 32), Spacing(1, 1, 1))
        with pytest.raises(ValueError, match="3-D network"):
            ml_estimate(grid, build_segmenter_2d(), 0.5)
        with pytest.raises(ValueError, match="2-D network"):
            ml_estimate_slicewise(grid, trained_net, 0.5)


class TestSlicewiseEstimate:
    def test_saturated_net_counts_whole_grid(self):
        # zeroed weights with a high final bias: every output pixel fires,
        # so the volume must equal the full grid after the 2x rescale
        from volumetrica.nn.network import build_segmenter_2d

        net = build_segmenter_2d(seed=0)
        for p in net.parameters():
            p[...] = 0.0
        net.layers[-1].bias[...] = 10.0
        spec = PhantomSpec(kind="sphere", radius=6.0)
        grid, _, _ = make_phantom(spec, (32, 32, 40), Spacing(0.5, 0.5, 2.0))
        v = ml_estimate_slicewise(grid, net, 0.5)
        nx, ny, nz = grid.dims
        assert v == pytest.approx(nx * ny * nz * grid.spacing.voxel_volume_mm3)

    def test_trained_2d_net_segments_sphere(self):
        from volumetrica.nn.network import build_segmenter_2d
        from volumetrica.nn.training import TrainConfig, train

        spec = PhantomSpec(kind="sphere", radius=10.0, noise_sigma=0.05, seed=21)
        grid, mask, volume = make_phantom(spec, (32, 32, 32), Spacing(1, 1, 1))
        cases = [
            (grid.data[k][..., None], mask.data[k].astype(float)[..., None])
            for k in range(grid.dims[2])
        ]
        net = build_segmenter_2d(seed=0)
        train(net, cases, TrainConfig(epochs=60, loss="bce"))
        v = ml_estimate_slicewise(grid, net, 0.5)
        assert v == pytest.approx(volume, rel=0.15)

    def test_equals_stack_then_threshold(self):
        # each slice is thresholded as it is predicted; the volume must equal
        # the one from stacking every float prediction and thresholding once
        from volumetrica.nn.inference import cnn_volume, extract_tumor_mask
        from volumetrica.nn.network import build_segmenter_2d, predict

        net = build_segmenter_2d(seed=3)
        spec = PhantomSpec(kind="sphere", radius=6.0, noise_sigma=0.1, seed=4)
        grid, _, _ = make_phantom(spec, (40, 32, 10), Spacing(0.7, 0.6, 2.0))
        preds = np.stack([predict(net, sl[..., None]) for sl in grid.data])
        for q in (0.1, 0.5, 0.9):
            threshold = float(np.quantile(preds, q))
            expected = cnn_volume(extract_tumor_mask(preds, threshold), grid.dims, grid.spacing)
            assert expected > 0.0
            assert ml_estimate_slicewise(grid, net, threshold) == expected

    def test_series_grid_matches_its_decoded_grid(self):
        # a DICOM series gives the volume of the plain grid of its decoded
        # values, one plane at a time, without decoding the whole series
        from volumetrica import dicomlite as dl
        from volumetrica.nn.network import build_segmenter_2d, predict

        net = build_segmenter_2d(seed=3)
        spec = PhantomSpec(kind="sphere", radius=6.0, noise_sigma=0.1, seed=4)
        phantom, _, _ = make_phantom(spec, (40, 32, 10), Spacing(0.7, 0.6, 2.0))
        stored = np.round(np.clip(phantom.data + 1.0, 0.0, 4.0) * 1000).astype(np.uint16)
        series, _ = dl.read_series([
            dl.make_slice_dataset(plane, pixel_spacing=(0.6, 0.7), slice_thickness=2.0,
                                  position_z=2.0 * z, rescale=(0.001, -1.0))
            for z, plane in enumerate(stored)
        ])
        plain = VoxelGrid(stored * 0.001 - 1.0, series.spacing)
        preds = np.stack([predict(net, sl[..., None]) for sl in plain.data])
        threshold = float(np.quantile(preds, 0.5))
        expected = ml_estimate_slicewise(plain, net, threshold)
        assert expected > 0.0
        assert ml_estimate_slicewise(series, net, threshold) == expected
        assert series._decoded is None


class TestEstimateAll:
    def test_sphere_methods_agree(self, trained_net):
        spec = PhantomSpec(kind="sphere", radius=10.0, noise_sigma=0.05, seed=12)
        grid, mask, volume = make_phantom(spec, (64, 64, 64), Spacing(1, 1, 1))
        report = estimate_all(
            EstimateCase("s10", grid, mask, volume), network=trained_net
        )
        assert report.volumes["spherical"] == pytest.approx(volume, rel=0.10)
        assert report.volumes["area_based"] == pytest.approx(volume, rel=0.05)
        assert report.volumes["regression"] == pytest.approx(volume, rel=0.05)
        assert report.volumes["ml"] == pytest.approx(volume, rel=0.15)

    def test_errors_marked_not_zeroed(self):
        spec = PhantomSpec(kind="sphere", radius=6.0)
        grid, mask, volume = make_phantom(spec, (32, 32, 32), Spacing(1, 1, 1))
        report = estimate_all(EstimateCase("x", grid, mask, volume), network=None)
        assert "ml" in report.errors
        assert "ml" not in report.volumes

    def test_manual_radius_override(self):
        spec = PhantomSpec(kind="sphere", radius=6.0)
        grid, mask, volume = make_phantom(spec, (32, 32, 32), Spacing(1, 1, 1))
        report = estimate_all(
            EstimateCase("x", grid, mask, volume),
            methods=("spherical",),
            manual_radius=6.0,
        )
        assert report.volumes["spherical"] == pytest.approx(904.779, abs=0.001)

    def test_csv_route_matches_mask_route(self, tmp_path):
        from volumetrica.cli import main
        from volumetrica.geometry import slice_areas
        from volumetrica.io import write_series_csv

        spec = PhantomSpec(kind="lobulated", semi_axes=(9.0, 8.0, 7.0), noise_sigma=0.05, seed=4)
        grid, mask, volume = make_phantom(spec, (40, 40, 40), Spacing(0.8, 0.8, 1.5))
        csv = tmp_path / "areas.csv"
        write_series_csv(csv, slice_areas(mask))
        out = tmp_path / "est.json"
        assert main(["estimate", "--input", str(csv), "--out", str(out)]) == 0
        from_csv = json.loads(out.read_text())["payload"]["methods"]
        report = estimate_all(EstimateCase("lob", grid, mask, volume))
        for m in ("spherical", "area_based", "regression"):
            assert from_csv[m]["volume_mm3"] == report.volumes[m]

    def test_spherical_largest_on_oblate_ellipsoids(self, trained_net):
        # a = b = 2c forces max-cross-section inflation
        for a in (8.0, 10.0, 12.0):
            spec = PhantomSpec(kind="ellipsoid", semi_axes=(a, a, a / 2.0), noise_sigma=0.02, seed=int(a))
            grid, mask, volume = make_phantom(spec, (64, 64, 64), Spacing(1, 1, 1))
            report = estimate_all(EstimateCase(f"o{a}", grid, mask, volume), network=trained_net)
            others = [report.volumes[m] for m in ("ml", "area_based", "regression")]
            assert report.volumes["spherical"] > max(others)


class TestDiscrepancy:
    def _report(self, case_id, volumes):
        from volumetrica.estimators import EstimateReport

        r = EstimateReport(case_id=case_id)
        r.volumes = dict(volumes)
        return r

    def test_identical_volumes_zero_matrix(self):
        reports = [
            self._report(str(i), {m: 100.0 for m in ("ml", "spherical", "area_based", "regression")})
            for i in range(3)
        ]
        m = discrepancy(reports)
        off = m.values[~np.eye(4, dtype=bool)]
        np.testing.assert_array_equal(off, 0.0)

    def test_single_pair_value(self):
        assert pairwise_discrepancy(905.0, 737.2175) == pytest.approx(20.43, abs=0.01)

    def test_ratio_cohort_closed_form(self):
        reports = [
            self._report(str(i), {"ml": v, "spherical": 1.1 * v})
            for i, v in enumerate([100.0, 200.0, 55.0])
        ]
        m = discrepancy(reports, methods=("ml", "spherical"))
        assert m.entry("ml", "spherical") == pytest.approx(100 * 0.1 / 1.05, rel=1e-12)

    def test_symmetric_with_nan_diagonal(self):
        rng = np.random.default_rng(0)
        reports = [
            self._report(str(i), {m: float(rng.uniform(50, 150))
                                  for m in ("ml", "spherical", "area_based", "regression")})
            for i in range(5)
        ]
        m = discrepancy(reports)
        assert np.all(np.isnan(np.diag(m.values)))
        np.testing.assert_array_equal(m.values, m.values.T)

    def test_case_permutation_invariant(self):
        rng = np.random.default_rng(1)
        reports = [
            self._report(str(i), {m: float(rng.uniform(50, 150))
                                  for m in ("ml", "spherical", "area_based", "regression")})
            for i in range(6)
        ]
        m1 = discrepancy(reports)
        m2 = discrepancy(list(reversed(reports)))
        np.testing.assert_allclose(m1.values, m2.values, equal_nan=True)

    def test_errored_method_excluded_pairwise(self):
        r1 = self._report("a", {"ml": 100.0, "spherical": 110.0})
        r2 = self._report("b", {"spherical": 100.0})
        m = discrepancy([r1, r2], methods=("ml", "spherical"))
        assert m.entry("ml", "spherical") == pytest.approx(pairwise_discrepancy(100.0, 110.0))

    def test_no_overlap_is_undefined_marker(self):
        r1 = self._report("a", {"ml": 100.0})
        r2 = self._report("b", {"spherical": 100.0})
        m = discrepancy([r1, r2], methods=("ml", "spherical"))
        assert math.isnan(m.entry("ml", "spherical"))
