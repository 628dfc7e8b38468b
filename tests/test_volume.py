"""The one volume model (``grid.Volume``): a DICOM series grid, a mask
file, a thresholded mask and an in-memory grid or mask share one base.
Reading a volume's ``repr``, ``dims``, ``spacing``, hash or equality
reads none of its values, and its attributes are read-only."""

import argparse

import numpy as np
import pytest

from volumetrica import dicomlite as dl
from volumetrica import io as vio
from volumetrica.cli import _mask_for
from volumetrica.estimators import EstimateCase, estimate_all, estimate_series
from volumetrica.geometry import slice_areas
from volumetrica.grid import BinaryMask, Spacing, Volume, VoxelGrid
from volumetrica.nn.inference import mask_training_target, resize_volume


def _series_grid(tmp_path):
    rng = np.random.default_rng(0)
    for k in range(6):
        ds = dl.make_slice_dataset(rng.integers(0, 4096, size=(12, 10)), pixel_spacing=(0.7, 0.6),
                                   slice_thickness=2.5, position_z=2.5 * k, rescale=(0.001, -1.0))
        (tmp_path / f"s{k}.dcm").write_bytes(dl.write_file(ds))
    return dl.read_directory(tmp_path)[0]


def _mask_file(tmp_path):
    data = np.random.default_rng(1).uniform(size=(6, 12, 10)) > 0.5
    vio.write_volume(tmp_path / "mask.volv", BinaryMask(data, Spacing(0.5, 0.75, 2.0)))
    return vio.read_volume(tmp_path / "mask.volv")


def _thresholded(tmp_path):
    return _mask_for(_series_grid(tmp_path), argparse.Namespace(mask=None, input=str(tmp_path)))


ON_DEMAND = {"dicom-series": _series_grid, "mask-file": _mask_file, "thresholded": _thresholded}
IN_MEMORY = {
    "grid": lambda _: VoxelGrid(np.zeros((6, 12, 10)), Spacing(0.5, 0.75, 2.0)),
    "mask": lambda _: BinaryMask(np.ones((6, 12, 10), bool), Spacing(0.5, 0.75, 2.0)),
}
ALL = {**ON_DEMAND, **IN_MEMORY}


@pytest.mark.parametrize("make", ON_DEMAND.values(), ids=ON_DEMAND.keys())
def test_repr_of_an_on_demand_volume_reads_no_value(make, tmp_path):
    volume = make(tmp_path)
    planes = volume._planes
    assert volume._decoded is None and planes is not None
    text = repr(volume)
    assert volume == volume and hash(volume) == hash(volume)
    assert volume._decoded is None and volume._planes is planes
    assert text == f"{type(volume).__name__}(dims=(10, 12, 6), spacing={volume.spacing!r})"


@pytest.mark.parametrize("make", IN_MEMORY.values(), ids=IN_MEMORY.keys())
def test_an_in_memory_repr_shows_no_values(make, tmp_path):
    volume = make(tmp_path)
    assert repr(volume) == f"{type(volume).__name__}(dims=(10, 12, 6), spacing={volume.spacing!r})"
    assert volume == volume and hash(volume) == hash(volume)


@pytest.mark.parametrize("name", ["data", "spacing", "dims", "_planes", "_decoded", "extra"])
@pytest.mark.parametrize("make", ALL.values(), ids=ALL.keys())
def test_attributes_are_read_only(make, name, tmp_path):
    volume = make(tmp_path)
    before = (volume.spacing, volume._planes, volume._decoded)
    with pytest.raises(AttributeError):
        setattr(volume, name, None)
    with pytest.raises(AttributeError):
        delattr(volume, name)
    assert (volume.spacing, volume._planes, volume._decoded) == before


@pytest.mark.parametrize("make", ALL.values(), ids=ALL.keys())
def test_every_volume_is_a_grid_or_a_mask(make, tmp_path):
    volume = make(tmp_path)
    assert isinstance(volume, Volume)
    assert isinstance(volume, VoxelGrid) != isinstance(volume, BinaryMask)
    # its planes, lines and data carry its dtype and agree to the bit
    dtype = np.float64 if isinstance(volume, VoxelGrid) else bool
    planes = np.stack(list(volume.planes()))
    lines = volume.lines((slice(1, 5), np.array([0, 3, 7]), slice(None)))
    assert planes.dtype == lines.dtype == volume.data.dtype == dtype
    np.testing.assert_array_equal(planes, volume.data, strict=True)
    np.testing.assert_array_equal(lines, volume.data[1:5][:, [0, 3, 7]], strict=True)
    assert not volume.data.flags.writeable


@pytest.mark.parametrize("make", ALL.values(), ids=ALL.keys())
def test_a_volume_writes_and_reads_back(make, tmp_path):
    volume = make(tmp_path)
    vio.write_volume(tmp_path / "out.volv", volume)
    back = vio.read_volume(tmp_path / "out.volv")
    assert isinstance(back, BinaryMask) == isinstance(volume, BinaryMask)
    assert back.dims == volume.dims and back.spacing == volume.spacing
    np.testing.assert_array_equal(back.data, volume.data, strict=True)


def test_write_volume_refuses_what_is_not_a_volume(tmp_path):
    with pytest.raises(TypeError, match="cannot serialize"):
        vio.write_volume(tmp_path / "out.volv", np.zeros((2, 2, 2)))
    assert not (tmp_path / "out.volv").exists()


@pytest.mark.parametrize("make", [_mask_file, IN_MEMORY["mask"]], ids=["mask-file", "mask"])
def test_a_mask_resizes_like_its_array(make, tmp_path):
    mask = make(tmp_path)
    expected = resize_volume(np.array(mask.data), (8, 8, 8))
    np.testing.assert_array_equal(resize_volume(mask, (8, 8, 8)), expected, strict=True)
    np.testing.assert_array_equal(mask_training_target(mask, (8, 8, 8)), expected[..., None],
                                  strict=True)


class TestMlMarkers:
    """``ml`` is ``estimate_all``'s alone; a bare area series marks it."""

    def test_an_area_series_marks_ml(self, sample_nodule_series):
        report = estimate_series(sample_nodule_series, ["ml", "area_based"])
        assert report.errors == {"ml": "ValueError: ml needs voxel input, not an area series"}
        assert set(report.volumes) == {"area_based"}

    def test_a_case_without_a_network_marks_ml(self, sphere_phantom):
        grid, mask, _ = sphere_phantom
        report = estimate_all(EstimateCase("c", grid, mask))
        assert report.case_id == "c"
        assert report.errors == {"ml": "ValueError: no trained network supplied"}
        assert set(report.volumes) == {"spherical", "area_based", "regression"}
        assert report.metadata["slice_count"] == len(slice_areas(mask))
