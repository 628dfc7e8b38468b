import contextlib
import logging
import struct
import tracemalloc

import numpy as np
import pytest

from volumetrica import dicomlite as dl
from volumetrica.cli import main


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

    def test_file_shrunk_after_its_parse_raises_parse_error(self, tmp_path, monkeypatch):
        for k, ds in enumerate(_series(3, (16, 16))):
            (tmp_path / f"slice{k}.dcm").write_bytes(dl.write_file(ds))
        read_series = dl.read_series

        def shrink_then_read(datasets):
            path = tmp_path / "slice1.dcm"
            path.write_bytes(path.read_bytes()[:-2])
            return read_series(datasets)

        monkeypatch.setattr(dl, "read_series", shrink_then_read)
        with pytest.raises(dl.DicomParseError, match="pixel data has 510 bytes, expected 512"):
            dl.read_directory(tmp_path)

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
        for plane in raw:
            ds = dl.DicomDataset()
            ds.put(dl.TAG_PIXEL_DATA, "OW", plane.tobytes())
            slices.append(ds)
        data = np.empty(raw.shape)
        dl._decode(data, slices, [(dtype, slope, intercept)] * len(slices))
        np.testing.assert_array_equal(data, raw.astype(np.float64) * slope + intercept,
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
