import hashlib
import json
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from volumetrica import io as vio
from volumetrica.errors import InputError
from volumetrica.geometry import SliceAreaSeries, slice_areas, voxel_volume
from volumetrica import grid as vgrid
from volumetrica.grid import BinaryMask, Spacing, VoxelGrid


class TestVolvContainer:
    def test_grid_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = VoxelGrid(rng.normal(size=(4, 5, 6)), Spacing(0.5, 0.7, 2.0))
        path = tmp_path / "grid.volv"
        vio.write_volume(path, grid)
        loaded = vio.read_volume(path)
        assert isinstance(loaded, VoxelGrid)
        np.testing.assert_array_equal(loaded.data, grid.data)
        assert loaded.spacing == grid.spacing
        assert loaded.dims == (6, 5, 4)

    def test_mask_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        mask = BinaryMask(rng.uniform(size=(3, 4, 5)) > 0.5, Spacing(1, 1, 1))
        path = tmp_path / "mask.volv"
        vio.write_volume(path, mask)
        loaded = vio.read_volume(path)
        assert isinstance(loaded, BinaryMask)
        np.testing.assert_array_equal(loaded.data, mask.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.volv"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(ValueError, match="VOLV"):
            vio.read_volume(path)

    def test_read_holds_one_copy_of_the_grid(self, tmp_path):
        grid = VoxelGrid(np.random.default_rng(3).normal(size=(40, 48, 56)), Spacing(1, 1, 1))
        path = tmp_path / "grid.volv"
        vio.write_volume(path, grid)
        tracemalloc.start()
        try:
            loaded = vio.read_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.data, grid.data, strict=True)
        # the grid plus its finiteness check (one byte a voxel); the file
        # bytes held beside a decoded copy would be twice the grid
        assert peak < 1.25 * grid.data.nbytes

    def test_write_and_hash_hold_no_copy_of_the_grid(self, tmp_path):
        grid = VoxelGrid(np.random.default_rng(4).normal(size=(40, 96, 128)), Spacing(0.5, 1, 2))
        path = tmp_path / "grid.volv"
        tracemalloc.start()
        try:
            vio.write_volume(path, grid)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            digest = vio.sha256_file(path)
            hash_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        header = b"VOLV" + (1).to_bytes(4, "little") + bytes([1])
        header += b"".join(n.to_bytes(4, "little") for n in (128, 96, 40))
        header += np.array([0.5, 1.0, 2.0], dtype="<f8").tobytes()
        blob = path.read_bytes()
        assert blob == header + grid.data.astype("<f8").tobytes()
        assert digest == hashlib.sha256(blob).hexdigest()
        # the payload goes from the array's buffer; hashing reads 1 MiB chunks
        assert write_peak < grid.data.nbytes / 8
        assert hash_peak < (1 << 20) + grid.data.nbytes / 8

    def test_hash_of_files_around_the_chunk_size(self, tmp_path):
        path = tmp_path / "blob"
        rng = np.random.default_rng(6)
        for size in (0, 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, 3 << 20):
            data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            path.write_bytes(data)
            assert vio.sha256_file(path) == hashlib.sha256(data).hexdigest()

    def test_size_errors_name_both_sizes(self, tmp_path):
        path = tmp_path / "vol.volv"
        bad = tmp_path / "bad.volv"
        for volume, size in [(VoxelGrid(np.zeros((2, 3, 4)), Spacing(1, 1, 1)), 192),
                             (BinaryMask(np.ones((2, 3, 4)), Spacing(1, 1, 1)), 24)]:
            vio.write_volume(path, volume)
            blob = path.read_bytes()
            for data, message in [
                (blob[:44], "VOLV header truncated at 44 of 45 bytes"),
                (blob[:-1], f"VOLV payload is {size - 1} bytes, header declares {size}"),
                (blob + b"\x00", f"VOLV payload is {size + 1} bytes, header declares {size}"),
                (blob[:8] + b"\x07" + blob[9:], "unknown dtype code 7"),
            ]:
                bad.write_bytes(data)
                with pytest.raises(InputError, match=f"^{bad}: {message}$"):
                    vio.read_volume(bad)

    @pytest.mark.parametrize("kind", ["grid", "mask"])
    def test_corruption_fuzz_never_silent_garbage(self, tmp_path, kind):
        rng = np.random.default_rng(2)
        spacing = Spacing(0.5, 0.7, 2.0)
        if kind == "grid":
            volume = VoxelGrid(rng.normal(size=(2, 3, 4)), spacing)
        else:
            volume = BinaryMask(rng.uniform(size=(2, 3, 4)) > 0.5, spacing)
        path = tmp_path / "vol.volv"
        vio.write_volume(path, volume)
        blob = path.read_bytes()
        bad = tmp_path / "bad.volv"
        # no proper prefix and no over-long file may load
        for data in [blob[:cut] for cut in range(len(blob))] + [blob + b"\x00\x00"]:
            bad.write_bytes(data)
            with pytest.raises(ValueError):
                vio.read_volume(bad)
        # header corruption either loads a volume or raises ValueError
        for i in range(45):
            for flip in [1 << bit for bit in range(8)]:
                data = bytearray(blob)
                data[i] ^= flip
                bad.write_bytes(bytes(data))
                try:
                    loaded = vio.read_volume(bad)
                except ValueError:
                    continue
                assert isinstance(loaded, (VoxelGrid, BinaryMask))


class TestBoundedChecks:
    def test_grid_finiteness_check_holds_no_bool_grid(self):
        data = np.random.default_rng(7).normal(size=(40, 256, 256))
        tracemalloc.start()
        try:
            grid = VoxelGrid(data, Spacing(1, 1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(grid.data, data)
        # one band's bool temporary, not the 2.6 MB whole-grid one
        assert peak < vgrid._CHECK_VOXELS + (64 << 10)

    @pytest.mark.parametrize("check_voxels", [1, 12, 40, 1 << 20])
    def test_finiteness_verdict_is_unchanged(self, monkeypatch, check_voxels):
        monkeypatch.setattr(vgrid, "_CHECK_VOXELS", check_voxels)
        for shape in [(0, 3, 4), (3, 0, 4), (0, 0, 0), (1, 1, 1), (7, 3, 4)]:
            assert VoxelGrid(np.zeros(shape), Spacing(1, 1, 1)).data.shape == shape
        for bad in (np.nan, np.inf, -np.inf):
            for index in [(0, 0, 0), (3, 1, 2), (6, 2, 3)]:
                data = np.zeros((7, 3, 4))
                data[index] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    VoxelGrid(data, Spacing(1, 1, 1))

    def test_mask_read_holds_one_buffer(self, tmp_path):
        mask = BinaryMask(np.random.default_rng(8).uniform(size=(40, 256, 256)) > 0.5,
                          Spacing(1, 1, 1))
        path = tmp_path / "mask.volv"
        vio.write_volume(path, mask)
        tracemalloc.start()
        try:
            loaded = vio.read_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.data, mask.data, strict=True)
        # the payload buffer becomes the mask; a bool copy would double it
        assert peak < 1.1 * mask.data.nbytes

    def test_any_nonzero_mask_byte_reads_as_true(self, tmp_path):
        path = tmp_path / "mask.volv"
        vio.write_volume(path, BinaryMask(np.zeros((2, 2, 3), bool), Spacing(1, 1, 1)))
        payload = np.array([0, 1, 2, 127, 128, 255, 0, 3, 0, 64, 1, 0], dtype=np.uint8)
        blob = path.read_bytes()
        path.write_bytes(blob[: -payload.size] + payload.tobytes())
        loaded = vio.read_volume(path)
        assert loaded.data.dtype == bool
        np.testing.assert_array_equal(loaded.data.ravel(), payload != 0)
        # every bool holds the byte 0 or 1, so numpy reads them canonically
        np.testing.assert_array_equal(loaded.data.view(np.uint8).ravel(), payload != 0)


def _series_arrays(series: SliceAreaSeries):
    return series.positions, series.areas, np.array(series.thickness)


class TestMaskFile:
    """A mask VOLV is checked whole at ``read_volume`` and then read from
    its file one plane at a time; a file changed since never yields
    bytes."""

    @pytest.fixture
    def mask(self):
        data = np.random.default_rng(9).uniform(size=(6, 7, 8)) > 0.6
        return BinaryMask(data, Spacing(0.5, 0.75, 2.0))

    @pytest.fixture
    def path(self, mask, tmp_path):
        path = tmp_path / "mask.volv"
        vio.write_volume(path, mask)
        return path

    def test_planes_and_data_match_the_written_mask(self, mask, path):
        loaded = vio.read_volume(path)
        assert isinstance(loaded, BinaryMask)
        assert loaded.dims == (8, 7, 6) and loaded.spacing == mask.spacing
        planes = list(loaded.planes())
        assert len(planes) == 6 and all(p.dtype == bool and p.shape == (7, 8) for p in planes)
        np.testing.assert_array_equal(np.stack(planes), mask.data, strict=True)
        assert voxel_volume(loaded) == voxel_volume(mask)
        for got, expected in zip(_series_arrays(slice_areas(loaded)),
                                 _series_arrays(slice_areas(mask)), strict=True):
            np.testing.assert_array_equal(got, expected, strict=True)
        assert loaded._decoded is None  # nothing above read the whole mask
        np.testing.assert_array_equal(loaded.data, mask.data, strict=True)
        assert not loaded.data.flags.writeable
        assert loaded._planes is None
        # once whole, the planes are views of it
        assert all(np.shares_memory(p, loaded.data) for p in loaded.planes())

    def test_rewrites_the_same_bytes(self, path, tmp_path):
        copy = tmp_path / "copy.volv"
        vio.write_volume(copy, vio.read_volume(path))
        assert copy.read_bytes() == path.read_bytes()

    def _changes(self, path):
        """Ways to change the file at ``path`` after it was checked."""
        blob = path.read_bytes()
        flipped = blob[:-1] + bytes([blob[-1] ^ 1])

        def truncated():
            path.write_bytes(blob[:-1])

        def extended():
            path.write_bytes(blob + b"\x01")

        def replaced():  # same size, another inode
            other = path.with_suffix(".new")
            other.write_bytes(flipped)
            os.replace(other, path)

        def rewritten():  # same size and inode, a later modification time
            mtime = path.stat().st_mtime_ns
            with open(path, "r+b") as fh:
                fh.write(flipped)
            os.utime(path, ns=(mtime, mtime + 10**9))

        return {"truncated": truncated, "extended": extended, "replaced": replaced,
                "rewritten": rewritten}

    @pytest.mark.parametrize("change", ["truncated", "extended", "replaced", "rewritten"])
    def test_a_file_changed_after_read_raises(self, path, change):
        blob = path.read_bytes()
        loaded = vio.read_volume(path)
        self._changes(path)[change]()
        message = f"^{path}: VOLV file changed after it was checked$"
        with pytest.raises(InputError, match=message):
            next(loaded.planes())
        with pytest.raises(InputError, match=message):
            slice_areas(loaded)
        with pytest.raises(InputError, match=message):
            loaded.data
        assert loaded._decoded is None
        # the error stands while the file differs from the one checked
        path.write_bytes(blob)
        if change != "replaced":
            with pytest.raises(InputError, match=message):
                loaded.data

    def test_a_change_between_planes_stops_the_planes(self, path):
        loaded = vio.read_volume(path)
        planes = loaded.planes()
        next(planes)
        self._changes(path)["rewritten"]()
        with pytest.raises(InputError, match="VOLV file changed after it was checked"):
            next(planes)

    def test_threads_iterate_planes_at_once(self, tmp_path):
        data = np.random.default_rng(10).uniform(size=(30, 64, 64)) > 0.5
        path = tmp_path / "mask.volv"
        vio.write_volume(path, BinaryMask(data, Spacing(1, 1, 1)))
        loaded = vio.read_volume(path)
        start = threading.Barrier(8)

        def counts(_):
            start.wait(timeout=60)
            return [int(np.count_nonzero(plane)) for plane in loaded.planes()]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                results = list(pool.map(counts, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        expected = [int(n) for n in np.count_nonzero(data, axis=(1, 2))]
        assert len(results) == 8 and all(r == expected for r in results)
        assert loaded._decoded is None

    def test_slice_areas_holds_one_plane(self, tmp_path):
        data = np.random.default_rng(11).uniform(size=(40, 256, 256)) > 0.5
        path = tmp_path / "mask.volv"
        vio.write_volume(path, BinaryMask(data, Spacing(0.5, 0.5, 1.0)))
        plane = 256 * 256
        tracemalloc.start()
        try:
            areas = slice_areas(vio.read_volume(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = slice_areas(BinaryMask(data, Spacing(0.5, 0.5, 1.0)))
        for got, want in zip(_series_arrays(areas), _series_arrays(expected), strict=True):
            np.testing.assert_array_equal(got, want, strict=True)
        # one plane and the file's read buffer, not the 2.6 MB mask
        assert peak < 2 * plane


class TestSeriesCsv:
    def test_roundtrip(self, tmp_path):
        series = SliceAreaSeries(np.arange(1.0, 6.0), np.array([1.0, 4.0, 9.0, 4.0, 1.0]), 1.0)
        path = tmp_path / "series.csv"
        vio.write_series_csv(path, series)
        loaded = vio.read_series_csv(path)
        np.testing.assert_array_equal(loaded.positions, series.positions)
        np.testing.assert_array_equal(loaded.areas, series.areas)
        assert loaded.thickness == 1.0

    def test_rows_sorted_on_read(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("position_mm,area_mm2\n3,9\n1,1\n2,4\n")
        loaded = vio.read_series_csv(path)
        np.testing.assert_array_equal(loaded.positions, [1.0, 2.0, 3.0])

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("position_mm,area_mm2\n")
        with pytest.raises(ValueError):
            vio.read_series_csv(path)


class TestEnvelope:
    def test_canonical_json_stable(self):
        doc = {"b": 1.5, "a": [1, 2], "c": {"y": None, "x": "s"}}
        assert vio.canonical_json(doc) == vio.canonical_json(json.loads(vio.canonical_json(doc)))

    def test_envelope_fields(self, tmp_path):
        f = tmp_path / "input.bin"
        f.write_bytes(b"payload")
        env = vio.report_envelope("estimate", {"x": 1}, seed=7, config={"a": 2},
                                  checksums=vio.input_checksums([f]))
        assert env["tool"] == "volumetrica"
        assert env["seed"] == 7
        assert len(env["config_hash"]) == 64
        assert str(f) in env["input_checksums"]

    def test_config_hash_sensitive_to_content(self):
        assert vio.config_hash({"a": 1}) != vio.config_hash({"a": 2})
        assert vio.config_hash({"a": 1, "b": 2}) == vio.config_hash({"b": 2, "a": 1})

    def test_schemas_validate_reports(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        f = tmp_path / "in.bin"
        f.write_bytes(b"x")
        env = vio.report_envelope(
            "estimate",
            {"case_id": "c", "methods": {"area_based": {"volume_mm3": 5.0}}, "metadata": {}},
            seed=0, config={}, checksums=vio.input_checksums([f]),
        )
        schema_dir = resources.files("volumetrica") / "schemas"
        envelope_schema = json.loads((schema_dir / "envelope.schema.json").read_text())
        estimate_schema = json.loads((schema_dir / "estimate_report.schema.json").read_text())
        jsonschema.validate(env, envelope_schema)
        jsonschema.validate(env["payload"], estimate_schema)

    def test_estimate_schema_rejects_timings(self):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        schema_dir = resources.files("volumetrica") / "schemas"
        estimate_schema = json.loads((schema_dir / "estimate_report.schema.json").read_text())
        for entry in ({"volume_mm3": 5.0, "seconds": 0.1}, {"error": "x", "seconds": None}):
            payload = {"case_id": "c", "methods": {"area_based": entry}, "metadata": {}}
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(payload, estimate_schema)
