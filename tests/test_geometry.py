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

    @staticmethod
    def _summed(mask):
        """The bool -> int64 sum that ``slice_areas`` counted with before
        it counted plane by plane."""
        sp = mask.spacing
        counts = mask.data.sum(axis=(1, 2))
        nonzero = np.nonzero(counts)[0]
        if len(nonzero) == 0:
            return SliceAreaSeries(np.empty(0), np.empty(0), sp.sz)
        k0, k1 = int(nonzero[0]), int(nonzero[-1])
        ks = np.arange(k0, k1 + 1)
        return SliceAreaSeries(ks * sp.sz, counts[k0 : k1 + 1] * (sp.sx * sp.sy), sp.sz)

    @pytest.mark.parametrize("shape", [(1, 7, 5), (9, 16, 16), (24, 33, 17)])
    @pytest.mark.parametrize("seed", range(4))
    def test_per_plane_counts_equal_the_summed_counts(self, shape, seed):
        rng = np.random.default_rng(seed)
        data = rng.uniform(size=shape) < rng.uniform(0.0, 0.3)
        if shape[0] > 1:  # an empty, a full and another empty plane inside
            data[rng.integers(shape[0], size=2)] = False
            data[rng.integers(shape[0])] = True
        mask = _mask(data, (0.7, 0.6, 2.5))
        got, expected = slice_areas(mask), self._summed(mask)
        np.testing.assert_array_equal(got.positions, expected.positions, strict=True)
        np.testing.assert_array_equal(got.areas, expected.areas, strict=True)
        assert got.thickness == expected.thickness

    @pytest.mark.parametrize("fill", [False, True], ids=["empty", "full"])
    def test_empty_and_full_masks_equal_the_summed_counts(self, fill):
        mask = _mask(np.full((5, 6, 4), fill), (0.5, 0.5, 1.5))
        got, expected = slice_areas(mask), self._summed(mask)
        np.testing.assert_array_equal(got.areas, expected.areas, strict=True)
        np.testing.assert_array_equal(got.positions, expected.positions, strict=True)


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
