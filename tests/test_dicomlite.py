import argparse
import builtins
import collections
import contextlib
import io
import logging
import math
import os
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from volumetrica import cli
from volumetrica import dicomlite as dl
from volumetrica import io as vio
from volumetrica.cli import _mask_for, main
from volumetrica.grid import BinaryMask, Spacing, VoxelGrid
from volumetrica.nn.inference import prepare_input


def _implicit_bytes(elements):
    out = b""
    for (group, elem), value in elements:
        out += struct.pack("<HHI", group, elem, len(value)) + value
    return out


def _random_dataset(rng) -> dl.DicomDataset:
    rows, cols = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    px = rng.integers(0, 4000, size=(rows, cols)).astype(np.uint16)
    ds = dl.make_slice_dataset(
        px,
        pixel_spacing=(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0))),
        slice_thickness=float(rng.uniform(0.5, 5.0)),
        position_z=float(rng.uniform(-100, 100)),
        instance_number=int(rng.integers(1, 500)),
        rescale=(float(rng.uniform(0.5, 2.0)), float(rng.integers(-1024, 100))),
        signed=bool(rng.integers(0, 2)),
    )
    return ds


class TestRoundTrip:
    def test_minimal_dataset_roundtrip(self):
        px = np.arange(16, dtype=np.uint16).reshape(4, 4)
        ds = dl.make_slice_dataset(px)
        parsed = dl.parse_file(dl.write_file(ds))
        for tag, el in ds.elements.items():
            assert parsed.elements[tag].vr == el.vr
            assert parsed.elements[tag].value == el.value

    def test_hundred_randomized_files_bit_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            ds = _random_dataset(rng)
            blob = dl.write_file(ds)
            blob2 = dl.write_file(dl.parse_file(blob))
            assert blob2 == blob

    def test_empty_dataset_is_valid_meta_only_file(self):
        blob = dl.write_file(dl.DicomDataset())
        parsed = dl.parse_file(blob)
        assert parsed.conformant
        assert all(tag[0] == 0x0002 for tag in parsed.elements)

    def test_odd_length_value_padded_and_logged(self, caplog):
        ds = dl.DicomDataset()
        ds.put((0x0008, 0x0060), "CS", b"CTX")  # odd length
        with caplog.at_level(logging.WARNING, logger="volumetrica.dicomlite"):
            blob = dl.write_file(ds)
        assert "padding odd-length" in caplog.text
        assert dl.parse_file(blob).get((0x0008, 0x0060)).value == b"CTX "

    def test_oversized_short_form_value_rejected(self):
        ds = dl.DicomDataset()
        ds.put((0x0008, 0x0060), "CS", b"x" * 70000)
        with pytest.raises(ValueError, match="length field"):
            dl.write_file(ds)


class TestParsing:
    def test_forced_mode_without_magic(self):
        raw = _implicit_bytes(
            [
                ((0x0028, 0x0010), struct.pack("<H", 16)),
                ((0x0028, 0x0011), struct.pack("<H", 16)),
            ]
        )
        ds = dl.parse_file(raw)
        assert not ds.conformant
        assert ds.transfer_syntax == dl.IMPLICIT_VR_LE
        assert ds.ushort(dl.TAG_ROWS) == 16

    def test_unsupported_transfer_syntax(self):
        px = np.zeros((2, 2), dtype=np.uint16)
        blob = bytearray(dl.write_file(dl.make_slice_dataset(px)))
        jpeg = b"1.2.840.10008.1.2.4.50"
        explicit = dl._pad_uid(dl.EXPLICIT_VR_LE)
        idx = bytes(blob).find(explicit)
        blob[idx : idx + len(explicit)] = jpeg.ljust(len(explicit), b"\x00")
        with pytest.raises(dl.UnsupportedTransferSyntaxError):
            dl.parse_file(bytes(blob))

    def test_truncated_value_reports_offset(self):
        raw = _implicit_bytes([((0x0028, 0x0010), struct.pack("<H", 16))])
        with pytest.raises(dl.TruncatedFileError) as err:
            dl.parse_file(raw[:-1])
        assert err.value.offset >= 0

    def test_truncation_fuzz_never_silent_garbage(self):
        rng = np.random.default_rng(9)
        ds = _random_dataset(rng)
        blob = dl.write_file(ds)
        reference = dl.parse_file(blob)
        for _ in range(60):
            cut = int(rng.integers(1, len(blob)))
            try:
                parsed = dl.parse_file(blob[:cut])
            except dl.DicomParseError:
                continue
            # a prefix that happens to parse must never invent elements
            assert set(parsed.elements) <= set(reference.elements)

    def test_implicit_vr_dataset_via_declared_syntax(self):
        # conformant file whose dataset body is implicit VR
        px = np.arange(4, dtype=np.uint16).reshape(2, 2)
        src = dl.make_slice_dataset(px)
        body = _implicit_bytes(
            [(el.tag, el.value) for el in src.sorted_elements()]
        )
        meta_ts = dl._pad_uid(dl.IMPLICIT_VR_LE)
        meta = (
            struct.pack("<HH", 2, 0x10)
            + b"UI"
            + struct.pack("<H", len(meta_ts))
            + meta_ts
        )
        group_len = struct.pack("<HH", 2, 0) + b"UL" + struct.pack("<H", 4) + struct.pack("<I", len(meta))
        blob = b"\x00" * 128 + b"DICM" + group_len + meta + body
        parsed = dl.parse_file(blob)
        assert parsed.conformant
        assert parsed.transfer_syntax == dl.IMPLICIT_VR_LE
        assert parsed.ushort(dl.TAG_ROWS) == 2


class TestReadSeries:
    def _slice(self, value, z=None, instance=None, spacing=(1.0, 1.0), thickness=1.0, shape=(4, 4)):
        px = np.full(shape, value, dtype=np.uint16)
        return dl.make_slice_dataset(
            px, pixel_spacing=spacing, slice_thickness=thickness,
            position_z=z, instance_number=instance,
        )

    def test_shuffled_slices_sorted_by_z(self):
        datasets = [self._slice(v, z=z) for v, z in [(3, 30.0), (1, 10.0), (2, 20.0)]]
        grid, geometry = dl.read_series(datasets)
        assert [i for i, _ in geometry.slice_order] == [1, 2, 0]
        assert list(grid.data[:, 0, 0]) == [1.0, 2.0, 3.0]

    def test_instance_number_fallback(self):
        datasets = [self._slice(v, instance=i) for v, i in [(2, 2), (1, 1), (3, 3)]]
        grid, geometry = dl.read_series(datasets)
        assert list(grid.data[:, 0, 0]) == [1.0, 2.0, 3.0]

    def test_equal_keys_keep_input_order(self):
        datasets = [self._slice(v, z=5.0) for v in (1, 2, 3)]
        _, geometry = dl.read_series(datasets)
        assert [i for i, _ in geometry.slice_order] == [0, 1, 2]

    def test_missing_spacing_defaults_with_warning(self):
        px = np.zeros((4, 4), dtype=np.uint16)
        ds = dl.make_slice_dataset(px, pixel_spacing=None, slice_thickness=None)
        grid, geometry = dl.read_series([ds])
        assert grid.spacing.as_tuple() == (1.0, 1.0, 1.0)
        assert any("assigning default values" in w for w in geometry.warnings)

    def test_empty_input_errors(self):
        with pytest.raises(dl.NoValidImagesError, match="No valid DICOM images found"):
            dl.read_series([])

    def test_dimension_mismatch(self):
        with pytest.raises(dl.GeometryMismatchError):
            dl.read_series([self._slice(1, shape=(4, 4)), self._slice(1, shape=(8, 8))])

    def test_rescale_applied_exactly(self):
        rng = np.random.default_rng(3)
        stored = rng.integers(0, 3000, size=(6, 6)).astype(np.uint16)
        slope, intercept = 1.25, -1024.0
        ds = dl.make_slice_dataset(stored, rescale=(slope, intercept))
        grid, _ = dl.read_series([ds])
        np.testing.assert_array_equal(grid.data[0], stored.astype(np.float64) * slope + intercept)

    def test_signed_pixels(self):
        stored = np.array([[-5, 7], [0, -1]], dtype=np.int16)
        ds = dl.make_slice_dataset(stored, signed=True)
        grid, _ = dl.read_series([ds])
        np.testing.assert_array_equal(grid.data[0], stored.astype(np.float64))

    def test_row_spacing_listed_first(self):
        # PixelSpacing is "row\col" = (sy, sx)
        ds = self._slice(1, spacing=(2.0, 0.5))
        grid, geometry = dl.read_series([ds])
        assert grid.spacing.sy == 2.0
        assert grid.spacing.sx == 0.5
        assert geometry.pixel_spacing == (0.5, 2.0)

    def test_nonuniform_z_flagged(self):
        datasets = [self._slice(1, z=0.0), self._slice(1, z=1.0), self._slice(1, z=3.0)]
        _, geometry = dl.read_series(datasets)
        assert not geometry.uniform_z
        assert any("non-uniform" in w for w in geometry.warnings)

    def test_nonpositive_pixel_spacing_rejected(self):
        ds = self._slice(1)
        ds.put(dl.TAG_PIXEL_SPACING, "DS", b"0\\1.0")
        with pytest.raises(dl.GeometryMismatchError, match="PixelSpacing"):
            dl.read_series([ds])

    def test_nonpositive_thickness_rejected(self):
        ds = self._slice(1)
        ds.put(dl.TAG_SLICE_THICKNESS, "DS", b"-2")
        with pytest.raises(dl.GeometryMismatchError, match="SliceThickness"):
            dl.read_series([ds])

    def test_slices_without_pixel_data_skipped_with_warning(self):
        good = self._slice(1, z=0.0)
        bad = dl.DicomDataset()
        bad.put(dl.TAG_ROWS, "US", np.uint16(4).tobytes())
        grid, geometry = dl.read_series([bad, good])
        assert grid.data.shape[0] == 1
        assert any("skipped" in w for w in geometry.warnings)


class TestReadDirectory:
    def test_skips_unparsable_files_and_subdirectories(self, tmp_path):
        for k, z in enumerate([20.0, 10.0]):
            px = np.full((4, 4), 10 * (k + 1), dtype=np.uint16)
            ds = dl.make_slice_dataset(px, pixel_spacing=(0.5, 0.5),
                                       slice_thickness=2.0, position_z=z)
            (tmp_path / f"slice{k}.dcm").write_bytes(dl.write_file(ds))
        (tmp_path / "sub.dcm").mkdir()
        (tmp_path / "notes.txt").write_bytes(b"\x00" * 3)
        grid, geometry, skipped = dl.read_directory(tmp_path)
        assert grid.data.shape == (2, 4, 4)
        assert [i for i, _ in geometry.slice_order] == [1, 0]
        assert len(skipped) == 1 and skipped[0].startswith("notes.txt: ")

    def test_opens_each_slice_file_once(self, tmp_path, monkeypatch):
        for k, ds in enumerate(_series(4, (16, 16))):
            (tmp_path / f"slice{k}.dcm").write_bytes(dl.write_file(ds))
        opened = collections.Counter()
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened[os.path.basename(file)] += 1
            return real_open(file, *args, **kwargs)

        # Path.read_bytes opens through io.open, a bare open() through builtins
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        grid, _, _ = dl.read_directory(tmp_path)
        _ = grid.data  # decoding reads no file either
        assert opened == {f"slice{k}.dcm": 1 for k in range(4)}

    @pytest.mark.parametrize("change", [b"\x00\x00", None], ids=["grown", "shrunk"])
    def test_file_whose_size_changed_after_the_listing_is_skipped(self, tmp_path, monkeypatch,
                                                                  change):
        for k, ds in enumerate(_series(4, (8, 8))):
            (tmp_path / f"slice{k}.dcm").write_bytes(dl.write_file(ds))
        changed = tmp_path / "slice2.dcm"
        listing = dl.directory_files

        def listed_then_changed(path):
            files = listing(path)
            blob = changed.read_bytes()
            changed.write_bytes(blob + change if change else blob[:-2])
            return files

        parsed = []
        parse_file = dl.parse_file
        monkeypatch.setattr(dl, "directory_files", listed_then_changed)
        monkeypatch.setattr(dl, "parse_file", lambda data: parsed.append(len(data))
                            or parse_file(data))
        grid, geometry, skipped = dl.read_directory(tmp_path)
        assert skipped == [f"slice2.dcm: file size changed from the listed "
                           f"{len(dl.write_file(_series(4, (8, 8))[2]))} bytes"]
        assert len(parsed) == 3  # no prefix of the changed file was parsed
        assert sorted(i for i, _ in geometry.slice_order) == [0, 1, 2]
        assert grid.dims == (8, 8, 3)

    def test_large_non_dicom_file_is_not_held(self, tmp_path):
        for k, ds in enumerate(_series(4, (16, 16))):
            (tmp_path / f"slice{k}.dcm").write_bytes(dl.write_file(ds))
        (tmp_path / "archive.bin").write_bytes(b"\xff" * (4 << 20))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            grid, _, skipped = dl.read_directory(tmp_path)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert [entry.split(":")[0] for entry in skipped] == ["archive.bin"]
        # the 2 KiB of pixel bytes and the kept headers, not the 4 MiB file
        assert held < 64 << 10

    def test_planes_are_read_only_views_of_one_buffer(self, tmp_path):
        for k, ds in enumerate(_series(5, (12, 10))):
            (tmp_path / f"slice{k}.dcm").write_bytes(dl.write_file(ds))
        (tmp_path / "notes.txt").write_bytes(b"\x00" * 3)
        grid, _, _ = dl.read_directory(tmp_path)

        def owner(a):
            while (base := a.base if isinstance(a, np.ndarray) else a.obj) is not None:
                a = base
            return a

        planes = grid._planes
        buffers = {id(owner(plane)) for plane in planes}
        assert len(buffers) == 1
        assert owner(planes[0]).nbytes == sum(plane.nbytes for plane in planes)
        for plane in planes:
            assert not plane.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                plane[0, 0] = 1

    def test_a_python_tracer_reads_the_same_series(self, tmp_path):
        """A ``sys.settrace`` tracer (pdb, coverage) holds one more
        reference to each frame's locals; the read and an ``estimate``
        give the same grid and report bytes under one."""
        series = tmp_path / "series"
        series.mkdir()
        for k, ds in enumerate(_series(8, (16, 16))):
            (series / f"slice{k}.dcm").write_bytes(dl.write_file(ds))
        argv = ["estimate", "--input", str(series), "--methods", "area_based", "--seed", "1"]

        def run(name):
            grid, _, skipped = dl.read_directory(series)
            assert main(argv + ["--out", str(tmp_path / name)]) == 0
            return grid.data, skipped, (tmp_path / name).read_bytes()

        plain = run("plain.json")
        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: None)
        try:
            traced = run("traced.json")
        finally:
            sys.settrace(previous)
        np.testing.assert_array_equal(traced[0], plain[0], strict=True)
        assert traced[1:] == plain[1:]


@contextlib.contextmanager
def _traced():
    """Yields a list that holds the tracemalloc peak, in bytes, on exit."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def _series(n, shape, signed=False, rescale=(1.25, -1024.0), seed=0):
    """n slices in shuffled z order, stored values from a seeded rng."""
    rng = np.random.default_rng(seed)
    low = -2000 if signed else 0
    return [
        dl.make_slice_dataset(
            rng.integers(low, 4096, size=shape), pixel_spacing=(0.7, 0.7), slice_thickness=2.5,
            position_z=2.5 * ((7 * z) % n), rescale=rescale, signed=signed,
        )
        for z in range(n)
    ]


class TestBoundedDecode:
    @pytest.mark.parametrize("signed, rescale", [(False, (1.25, -1024.0)), (True, (-1.5, 3.0))])
    def test_grid_matches_per_slice_reference(self, signed, rescale):
        datasets = _series(9, (12, 10), signed=signed, rescale=rescale)
        grid, geometry = dl.read_series(datasets)
        dtype = "<i2" if signed else "<u2"
        expected = np.stack([
            np.frombuffer(datasets[i].get(dl.TAG_PIXEL_DATA).value, dtype=dtype)
            .reshape(12, 10).astype(np.float64) * rescale[0] + rescale[1]
            for i, _ in geometry.slice_order
        ])
        np.testing.assert_array_equal(grid.data, expected, strict=True)

    def test_read_holds_grid_raw_pixels_and_one_mask(self, tmp_path):
        for k, ds in enumerate(_series(24, (256, 256))):
            (tmp_path / f"slice{k:02d}.dcm").write_bytes(dl.write_file(ds))
        file_bytes = (tmp_path / "slice00.dcm").stat().st_size
        with _traced() as peak:
            grid, _, _ = dl.read_directory(tmp_path)
        # the float64 grid, the stored 16-bit pixels, the bool finiteness
        # check, and one file's bytes twice while it parses
        assert peak[0] <= grid.data.size * (8 + 2 + 1) + 2 * file_bytes + (256 << 10)

    def test_read_holds_grid_and_about_two_files(self, tmp_path):
        for k, ds in enumerate(_series(24, (256, 256))):
            (tmp_path / f"slice{k:02d}.dcm").write_bytes(dl.write_file(ds))
        paths = sorted(tmp_path.iterdir())
        file_bytes = paths[0].stat().st_size
        with _traced() as peak:
            grid, _, _ = dl.read_directory(tmp_path)
        # each slice's pixel bytes go once it is decoded: a file's bytes
        # twice while it parses, then one slice's next to the grid
        assert peak[0] <= grid.data.nbytes + 2 * file_bytes + (256 << 10)
        in_memory, _ = dl.read_series([dl.parse_file(p.read_bytes()) for p in paths])
        np.testing.assert_array_equal(grid.data, in_memory.data, strict=True)

    def test_declared_shape_beyond_pixel_data_never_sizes_the_grid(self):
        datasets = _series(40, (16, 16))
        for ds in datasets:
            ds.put(dl.TAG_ROWS, "US", struct.pack("<H", 4096))
            ds.put(dl.TAG_COLUMNS, "US", struct.pack("<H", 4096))
        with _traced() as peak, pytest.raises(dl.DicomParseError, match="pixel data has 512 bytes"):
            dl.read_series(datasets)
        assert peak[0] < 40 * 4096 * 4096 * 8

    def test_ingest_of_declared_shape_beyond_pixel_data_exits_2(self, tmp_path):
        series = tmp_path / "series"
        series.mkdir()
        for k, ds in enumerate(_series(3, (16, 16))):
            ds.put(dl.TAG_ROWS, "US", struct.pack("<H", 4096))
            ds.put(dl.TAG_COLUMNS, "US", struct.pack("<H", 4096))
            (series / f"slice{k}.dcm").write_bytes(dl.write_file(ds))
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(series), "--out", str(out)]) == 2
        assert not out.exists()

    def test_empty_rows_value_exits_2(self, tmp_path):
        ds = _series(1, (4, 4))[0]
        ds.put(dl.TAG_ROWS, "US", b"")
        with pytest.raises(dl.DicomParseError, match="US value has 0 bytes"):
            dl.read_series([ds])
        (tmp_path / "slice.dcm").write_bytes(dl.write_file(ds))
        assert main(["ingest", "--input", str(tmp_path), "--out", str(tmp_path / "out")]) == 2

    def test_every_slice_checked_before_any_is_decoded(self):
        datasets = _series(8, (128, 128))
        last = max(datasets, key=lambda ds: ds.numbers(dl.TAG_IMAGE_POSITION)[2])
        last.put(dl.TAG_PIXEL_DATA, "OW", last.get(dl.TAG_PIXEL_DATA).value[:-2])
        with _traced() as peak, pytest.raises(dl.DicomParseError, match="expected 32768"):
            dl.read_series(datasets)
        assert peak[0] < 128 * 128 * 8  # less than one decoded plane


class TestDecode:
    @pytest.mark.parametrize("dtype", ["u1", "i1", "<u2", "<i2"])
    def test_rounding_rescale_is_bit_exact(self, dtype):
        dtype = np.dtype(dtype)
        info = np.iinfo(dtype)
        raw = np.random.default_rng(dtype.itemsize).integers(
            info.min, info.max, size=(3, 7, 5), endpoint=True).astype(dtype)
        slope, intercept = 0.001, -1.024
        slices = []
        for z, plane in enumerate(raw):
            ds = dl.make_slice_dataset(np.zeros(plane.shape, np.uint16), position_z=float(z),
                                       rescale=(slope, intercept))
            ds.put(dl.TAG_BITS_ALLOCATED, "US", struct.pack("<H", 8 * dtype.itemsize))
            ds.put(dl.TAG_PIXEL_REPRESENTATION, "US", struct.pack("<H", int(info.min < 0)))
            ds.put(dl.TAG_PIXEL_DATA, "OW", plane.tobytes())
            slices.append(ds)
        grid, _ = dl.read_series(slices)
        np.testing.assert_array_equal(grid.data, raw.astype(np.float64) * slope + intercept,
                                      strict=True)


class TestHeaderMemory:
    def test_slices_keep_only_the_tags_the_series_reads(self, tmp_path, monkeypatch):
        n, extra = 12, 200
        for k, ds in enumerate(_series(n, (8, 8))):
            for e in range(extra):  # private tags the series never reads
                ds.put((0x0009, 0x1000 + e), "LO", b"private value %04d" % e)
            (tmp_path / f"slice{k:02d}.dcm").write_bytes(dl.write_file(ds))
        expected, _ = dl.read_series([dl.parse_file(p.read_bytes())
                                      for p in sorted(tmp_path.iterdir())])
        held = []
        read_series = dl.read_series

        def measured(datasets):
            held.append(tracemalloc.get_traced_memory()[0] - start)
            assert all(set(ds.elements) <= set(dl._SERIES_TAGS) for ds in datasets)
            return read_series(datasets)

        monkeypatch.setattr(dl, "read_series", measured)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            grid, _, _ = dl.read_directory(tmp_path)
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(grid.data, expected.data, strict=True)
        # the 200 extra elements of a slice take about 70 KiB parsed; its
        # kept tags about 3 KiB
        assert held[0] < n * 8192


def _typed_slices(formats, shape, seed=0):
    """One slice per ``(dtype, slope, intercept)`` in shuffled z order,
    with its stored values spanning the dtype's range; returns the
    datasets and the reference grid ``stored.astype(f8) * slope +
    intercept`` in z order."""
    rng = np.random.default_rng(seed)
    n = len(formats)
    datasets, planes = [None] * n, [None] * n
    for k, (dtype, slope, intercept) in enumerate(formats):
        dtype = np.dtype(dtype)
        info = np.iinfo(dtype)
        stored = rng.integers(info.min, info.max, size=shape, endpoint=True).astype(dtype)
        ds = dl.make_slice_dataset(np.zeros(shape, np.uint16), pixel_spacing=(0.7, 0.6),
                                   slice_thickness=2.0, position_z=2.0 * k,
                                   rescale=(slope, intercept))
        ds.put(dl.TAG_BITS_ALLOCATED, "US", struct.pack("<H", 8 * dtype.itemsize))
        ds.put(dl.TAG_PIXEL_REPRESENTATION, "US", struct.pack("<H", int(info.min < 0)))
        ds.put(dl.TAG_PIXEL_DATA, "OW", stored.tobytes())
        slot = (7 * k) % n  # a shuffled input order; n is never a multiple of 7
        datasets[slot] = ds
        planes[k] = stored.astype(np.float64) * slope + intercept
    return datasets, np.stack(planes)


_DTYPES = ["u1", "i1", "<u2", "<i2"]
_TARGETS = {
    # every pass reads unbroken runs of lines (slices)
    "unbroken": (32, 32, 32),
    # the z, y and x passes skip lines (index arrays)
    "gapped": (4, 6, 5),
}


class TestLazyDecode:
    """A series grid keeps stored integers and decodes on demand; every
    route to its values gives the bits of a full float64 decode."""

    def _check(self, grid, reference, target):
        plain = VoxelGrid(reference, grid.spacing)
        np.testing.assert_array_equal(prepare_input(grid, target), prepare_input(plain, target),
                                      strict=True)

    @pytest.mark.parametrize("target", _TARGETS.values(), ids=_TARGETS.keys())
    @pytest.mark.parametrize("slope", [1.25, -0.75])
    @pytest.mark.parametrize("dtype", _DTYPES)
    def test_resize_matches_full_decode(self, dtype, slope, target):
        datasets, reference = _typed_slices([(dtype, slope, -1024.0)] * 9, (40, 36))
        grid, _ = dl.read_series(datasets)
        assert isinstance(grid, VoxelGrid) and grid.dims == (36, 40, 9)
        self._check(grid, reference, target)
        # nothing above decoded the whole grid
        assert grid._decoded is None
        assert all(plane.dtype == np.dtype(dtype) for plane in grid._planes)
        np.testing.assert_array_equal(grid.data, reference, strict=True)
        assert grid._planes is None  # let go once decoded
        self._check(grid, reference, target)

    @pytest.mark.parametrize("target", _TARGETS.values(), ids=_TARGETS.keys())
    def test_slices_of_differing_dtype_and_rescale(self, target, tmp_path):
        formats = [(_DTYPES[k % 4], 0.5 + 0.25 * k, -10.0 * k) for k in range(11)]
        formats[3] = ("<u2", -1.5, 3.0)
        datasets, reference = _typed_slices(formats, (40, 36), seed=1)
        grid, _ = dl.read_series(datasets)
        # each slice keeps its own dtype, in z order
        assert [plane.dtype for plane in grid._planes] == [np.dtype(d) for d, _, _ in formats]
        self._check(grid, reference, target)
        # the same slices read from files
        for k, ds in enumerate(datasets):
            (tmp_path / f"s{k:02d}.dcm").write_bytes(dl.write_file(ds))
        from_files, _, _ = dl.read_directory(tmp_path)
        self._check(from_files, reference, target)
        np.testing.assert_array_equal(from_files.data, reference, strict=True)

    def test_series_already_on_the_target_lattice(self):
        datasets, reference = _typed_slices([("<i2", -0.5, 7.0)] * 32, (32, 32), seed=2)
        grid, _ = dl.read_series(datasets)
        self._check(grid, reference, (32, 32, 32))
        assert grid._decoded is None

    def test_threads_share_one_decode(self):
        datasets, reference = _typed_slices([("<u2", 1.25, -1024.0)] * 9, (256, 256), seed=3)
        grid, _ = dl.read_series(datasets)
        start = threading.Barrier(8)

        def read(_):
            start.wait(timeout=60)  # all eight ask for data at once
            return grid.data

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                results = list(pool.map(read, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        # a second decode would hand some thread another array
        assert len(results) == 8 and all(r is results[0] for r in results)
        assert not results[0].flags.writeable
        np.testing.assert_array_equal(results[0], reference, strict=True)

    def test_planes_decode_one_at_a_time(self):
        datasets, reference = _typed_slices([("i1", 3.0, 0.5)] * 5, (6, 7), seed=4)
        grid, _ = dl.read_series(datasets)
        for plane, expected in zip(grid.planes(), reference, strict=True):
            np.testing.assert_array_equal(plane, expected, strict=True)
        assert grid._decoded is None


_RESCALE_VALUES = [math.inf, -math.inf, math.nan, 1e305, -1e305, -2.5, 0.0, 1.0]
_STORED_RANGES = {
    "zero": ("<u2", 0, 0),
    "u2": ("<u2", 0, 4095),
    "i2-spans-0": ("<i2", -2000, 2000),
    # only one extreme overflows at slope ±1e305
    "mostly-negative": ("<i2", -2000, 5),
    "mostly-positive": ("<i2", -5, 2000),
    "positive": ("<i2", 3, 9),
    "negative": ("<i2", -9, -3),
    "u1": ("u1", 0, 255),
    "i1": ("i1", -128, 127),
}


class TestFiniteVerdict:
    """``read_series`` raises GeometryMismatchError exactly when the full
    decode holds a non-finite value, deciding from stored extremes."""

    @pytest.mark.parametrize("stored_range", _STORED_RANGES.values(), ids=_STORED_RANGES.keys())
    def test_raises_iff_full_decode_is_not_finite(self, stored_range, monkeypatch):
        dtype, low, high = stored_range
        hostile = np.linspace(low, high, 16).round().astype(dtype).reshape(4, 4)
        tame = np.arange(16, dtype=dtype).reshape(4, 4)
        datasets = []
        for z, stored in enumerate([tame, hostile]):
            ds = dl.make_slice_dataset(np.zeros((4, 4), np.uint16), position_z=float(z))
            ds.put(dl.TAG_BITS_ALLOCATED, "US", struct.pack("<H", 8 * stored.itemsize))
            ds.put(dl.TAG_PIXEL_REPRESENTATION, "US", struct.pack("<H", int(dtype[-2] == "i")))
            ds.put(dl.TAG_PIXEL_DATA, "OW", stored.tobytes())
            datasets.append(ds)
        # a DS value cannot carry inf or NaN, so the parsed rescale of the
        # hostile slice is replaced after its parse
        rescale = {}
        pixel_format = dl._pixel_format

        def injected(ds):
            dtype, slope, intercept = pixel_format(ds)
            return (dtype, *rescale.get(id(ds), (slope, intercept)))

        monkeypatch.setattr(dl, "_pixel_format", injected)
        for slope in _RESCALE_VALUES:
            for intercept in _RESCALE_VALUES:
                rescale[id(datasets[1])] = (slope, intercept)
                with np.errstate(all="ignore"):
                    full = np.stack([tame.astype(np.float64),
                                     hostile.astype(np.float64) * slope + intercept])
                    if np.isfinite(full).all():
                        grid, _ = dl.read_series(datasets)
                        np.testing.assert_array_equal(grid.data, full, strict=True)
                    else:
                        with pytest.raises(dl.GeometryMismatchError,
                                           match="grid data contains non-finite values"):
                            dl.read_series(datasets)

    def test_inf_slope_over_a_range_spanning_zero(self):
        stored = np.array([[[-3, 0, 5]]], dtype="<i2")
        with np.errstate(all="ignore"):
            for slope in (math.inf, -math.inf):
                assert not dl._decodes_finite(stored, np.array([slope]), np.array([0.0]))
            # inf * 0 alone is NaN
            assert not dl._decodes_finite(np.zeros((1, 1, 3), "<i2"), np.array([math.inf]),
                                          np.array([0.0]))

    @pytest.mark.parametrize("rows, cols", [(0, 4), (4, 0)])
    def test_empty_planes_reach_the_geometry_check(self, rows, cols):
        # no extremes to decode: the shape check decides, as for any grid
        ds = _series(1, (4, 4))[0]
        ds.put(dl.TAG_ROWS, "US", struct.pack("<H", rows))
        ds.put(dl.TAG_COLUMNS, "US", struct.pack("<H", cols))
        with pytest.raises(dl.GeometryMismatchError, match="rows and cols must be positive"):
            dl.read_series([ds, ds])

    def test_huge_rescale_through_the_cli_exits_2(self, tmp_path, capsys):
        for k, ds in enumerate(_series(3, (8, 8), rescale=(1e305, 0.0))):
            (tmp_path / f"s{k}.dcm").write_bytes(dl.write_file(ds))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["ingest", "--input", str(tmp_path), "--out", str(out)]) == 2
        assert "grid data contains non-finite values" in capsys.readouterr().err
        assert not out.exists()


class TestEstimateMemory:
    """No ``estimate`` path on a DICOM series holds its float64 grid."""

    @pytest.fixture
    def series_dir(self, tmp_path):
        d = tmp_path / "series"
        d.mkdir()
        for k, ds in enumerate(_series(24, (256, 256))):
            (d / f"slice{k:02d}.dcm").write_bytes(dl.write_file(ds))
        return d

    @pytest.mark.parametrize("with_mask", [True, False], ids=["mask", "no-mask"])
    def test_estimate_peaks_below_the_float_grid(self, series_dir, tmp_path, with_mask):
        extra = []
        if with_mask:
            mask = np.zeros((24, 256, 256), dtype=bool)
            mask[6:18, 80:170, 90:160] = True
            vio.write_volume(tmp_path / "mask.volv", BinaryMask(mask, Spacing(0.7, 0.7, 2.5)))
            extra = ["--mask", str(tmp_path / "mask.volv")]
        argv = ["estimate", "--input", str(series_dir), "--methods", "all",
                "--out", str(tmp_path / "est.json"), *extra]
        with _traced() as peak:
            assert main(argv) == 0
        assert peak[0] < 24 * 256 * 256 * 8

    def test_a_mask_costs_at_most_one_plane(self, series_dir, tmp_path, monkeypatch):
        # a mask file is read, and the no-mask threshold made, plane by
        # plane, so no mask is alive whole beside the series' stored
        # pixels; a whole mask would add its 1.5 MB. One worker, and a CSV
        # report, so no hash buffer overlaps.
        monkeypatch.setattr(cli, "spare_workers", lambda tasks: 1)
        mask = np.zeros((24, 256, 256), dtype=bool)
        mask[6:18, 80:170, 90:160] = True
        vio.write_volume(tmp_path / "mask.volv", BinaryMask(mask, Spacing(0.7, 0.7, 2.5)))
        argv = ["estimate", "--input", str(series_dir), "--methods", "all",
                "--format", "csv", "--out", str(tmp_path / "est.csv")]
        assert main(argv) == 0  # first-call allocations out of the way
        with _traced() as read:
            dl.read_directory(series_dir)
        peaks = {}
        for name, extra in [("no-mask", []), ("mask", ["--mask", str(tmp_path / "mask.volv")])]:
            with _traced() as peak:
                assert main(argv + extra) == 0
            peaks[name] = peak[0]
        plane = 256 * 256
        # the threshold holds one decoded float64 plane and its bool plane
        assert peaks["no-mask"] <= read[0] + 9 * plane + (256 << 10)
        assert peaks["mask"] <= peaks["no-mask"] + plane + (256 << 10)
        assert peaks["mask"] <= read[0] + plane + (256 << 10)

    def test_fallback_mask_matches_the_decoded_threshold(self, series_dir):
        grid, _, _ = dl.read_directory(series_dir)
        mask = _mask_for(grid, argparse.Namespace(mask=None, input=str(series_dir)))
        for plane, expected in zip(mask.planes(), grid.planes(), strict=True):
            np.testing.assert_array_equal(plane, expected > 0.5, strict=True)
        assert grid._decoded is None and mask._decoded is None
        np.testing.assert_array_equal(mask.data, grid.data > 0.5, strict=True)

    def test_ingest_stays_within_the_read_bound(self, series_dir, tmp_path):
        file_bytes = (series_dir / "slice00.dcm").stat().st_size
        out = tmp_path / "out"
        with _traced() as peak:
            assert main(["ingest", "--input", str(series_dir), "--out", str(out)]) == 0
        voxels = 24 * 256 * 256
        assert peak[0] <= voxels * (8 + 2 + 1) + 2 * file_bytes + (256 << 10)
        grid, _, _ = dl.read_directory(series_dir)
        np.testing.assert_array_equal(vio.read_volume(out / "grid.volv").data, grid.data,
                                      strict=True)
