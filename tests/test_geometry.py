import math

import numpy as np
import pytest

from volumetrica.geometry import (
    SliceAreaSeries,
    ctr,
    max_equivalent_diameter,
    slice_areas,
    voxel_volume,
)
from volumetrica.grid import BinaryMask, Spacing


def _mask(data, spacing=(1.0, 1.0, 1.0)):
    return BinaryMask(np.asarray(data, dtype=bool), Spacing(*spacing))


class TestVoxelVolume:
    def test_all_false_is_zero(self):
        assert voxel_volume(_mask(np.zeros((4, 4, 4)))) == 0.0

    def test_counts_scale_by_voxel_volume(self):
        data = np.zeros((10, 10, 10), dtype=bool)
        data.flat[:1000] = True
        assert voxel_volume(_mask(data)) == 1000.0
        assert voxel_volume(_mask(data, (0.5, 0.5, 2.0))) == 1000 * 0.5 * 0.5 * 2.0

    def test_sphere_r8_half_mm(self):
        from volumetrica.phantoms import PhantomSpec, make_phantom

        spec = PhantomSpec(kind="sphere", radius=8.0)
        _, mask, analytic = make_phantom(spec, (48, 48, 48), Spacing(0.5, 0.5, 0.5))
        assert analytic == pytest.approx(2144.66, abs=0.01)
        assert voxel_volume(mask) == pytest.approx(analytic, rel=0.015)

    def test_monotone_under_union(self):
        rng = np.random.default_rng(0)
        m1 = rng.uniform(size=(6, 6, 6)) > 0.6
        m2 = rng.uniform(size=(6, 6, 6)) > 0.6
        v_union = voxel_volume(_mask(m1 | m2))
        assert v_union >= voxel_volume(_mask(m1))
        assert v_union >= voxel_volume(_mask(m2))

    def test_equals_slice_area_sum(self, sphere_phantom):
        _, mask, _ = sphere_phantom
        series = slice_areas(mask)
        assert voxel_volume(mask) == pytest.approx(
            float(series.areas.sum()) * mask.spacing.sz, abs=0.0
        )


class TestSliceAreas:
    def test_single_slice_pixel_count(self):
        data = np.zeros((3, 20, 20), dtype=bool)
        data[1].flat[:100] = True
        series = slice_areas(_mask(data, (0.5, 0.5, 1.0)))
        assert len(series) == 1
        assert series.areas[0] == pytest.approx(25.0)
        assert series.positions[0] == 1.0

    def test_sphere_max_area(self):
        from volumetrica.phantoms import PhantomSpec, make_phantom

        _, mask, _ = make_phantom(
            PhantomSpec(kind="sphere", radius=5.0), (32, 32, 32), Spacing(1, 1, 1)
        )
        series = slice_areas(mask)
        assert series.areas.max() == pytest.approx(math.pi * 25.0, rel=0.05)

    def test_empty_mask_gives_empty_series(self):
        series = slice_areas(_mask(np.zeros((4, 4, 4))))
        assert len(series) == 0

    def test_interior_gap_kept_as_zero(self):
        data = np.zeros((5, 4, 4), dtype=bool)
        data[1, 0, 0] = True
        data[3, 0, 0] = True
        series = slice_areas(_mask(data))
        assert len(series) == 3
        assert list(series.areas) == [1.0, 0.0, 1.0]

    def test_uniform_gap_enforced(self):
        with pytest.raises(ValueError, match="thickness"):
            SliceAreaSeries(np.array([0.0, 1.0, 2.5]), np.zeros(3), 1.0)


class TestDiameters:
    def test_equivalent_diameter_from_area(self):
        series = SliceAreaSeries(np.array([0.0]), np.array([math.pi * 36.0]), 1.0)
        assert max_equivalent_diameter(series) == pytest.approx(12.0)

    def test_zero_area_errors(self):
        series = SliceAreaSeries(np.array([0.0]), np.array([0.0]), 1.0)
        with pytest.raises(ValueError):
            max_equivalent_diameter(series)

    def test_matches_measured_12mm_nodule(self):
        # a 6 mm sphere has max diameter 12.0 mm (measured 1.20 cm)
        from volumetrica.phantoms import PhantomSpec, make_phantom

        _, mask, _ = make_phantom(
            PhantomSpec(kind="sphere", radius=6.0), (40, 40, 40), Spacing(0.5, 0.5, 0.5)
        )
        d = max_equivalent_diameter(slice_areas(mask))
        assert d == pytest.approx(12.0, rel=0.10)


class TestCtr:
    @pytest.mark.parametrize("solid,total,expected", [(6, 12, 0.5), (12, 12, 1.0), (0, 12, 0.0)])
    def test_basic_ratios(self, solid, total, expected):
        assert ctr(solid, total) == expected

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ctr(13.0, 12.0)
        with pytest.raises(ValueError):
            ctr(1.0, 0.0)
        with pytest.raises(ValueError):
            ctr(-1.0, 12.0)

    def test_scale_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            total = rng.uniform(1, 30)
            solid = rng.uniform(0, total)
            k = rng.uniform(0.01, 100)
            assert ctr(k * solid, k * total) == pytest.approx(ctr(solid, total), rel=1e-12)
