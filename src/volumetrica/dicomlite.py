"""Minimal DICOM reader/writer for CT slice series.

Covers just enough of the format to ingest a slice series: explicit and
implicit VR little endian, flat datasets (no sequences), one frame per
file. The writer produces conformant explicit-VR files for fixtures and
round-trip testing.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from volumetrica.errors import InputError
from volumetrica.grid import Spacing, Volume, VoxelGrid
from volumetrica.io import directory_files

logger = logging.getLogger(__name__)

EXPLICIT_VR_LE = "1.2.840.10008.1.2.1"
IMPLICIT_VR_LE = "1.2.840.10008.1.2"

# tags touched by the ingestion path
TAG_META_GROUP_LENGTH = (0x0002, 0x0000)
TAG_META_VERSION = (0x0002, 0x0001)
TAG_MEDIA_SOP_CLASS = (0x0002, 0x0002)
TAG_MEDIA_SOP_INSTANCE = (0x0002, 0x0003)
TAG_TRANSFER_SYNTAX = (0x0002, 0x0010)
TAG_SOP_CLASS = (0x0008, 0x0016)
TAG_SOP_INSTANCE = (0x0008, 0x0018)
TAG_MODALITY = (0x0008, 0x0060)
TAG_SLICE_THICKNESS = (0x0018, 0x0050)
TAG_INSTANCE_NUMBER = (0x0020, 0x0013)
TAG_IMAGE_POSITION = (0x0020, 0x0032)
TAG_ROWS = (0x0028, 0x0010)
TAG_COLUMNS = (0x0028, 0x0011)
TAG_PIXEL_SPACING = (0x0028, 0x0030)
TAG_BITS_ALLOCATED = (0x0028, 0x0100)
TAG_BITS_STORED = (0x0028, 0x0101)
TAG_HIGH_BIT = (0x0028, 0x0102)
TAG_PIXEL_REPRESENTATION = (0x0028, 0x0103)
TAG_RESCALE_INTERCEPT = (0x0028, 0x1052)
TAG_RESCALE_SLOPE = (0x0028, 0x1053)
TAG_PIXEL_DATA = (0x7FE0, 0x0010)

# the tags read_series reads; read_directory keeps only these of a slice
_SERIES_TAGS = (
    TAG_ROWS,
    TAG_COLUMNS,
    TAG_BITS_ALLOCATED,
    TAG_PIXEL_REPRESENTATION,
    TAG_RESCALE_SLOPE,
    TAG_RESCALE_INTERCEPT,
    TAG_IMAGE_POSITION,
    TAG_INSTANCE_NUMBER,
    TAG_PIXEL_SPACING,
    TAG_SLICE_THICKNESS,
    TAG_PIXEL_DATA,
)

# VR dictionary for implicit-VR parsing of the tags above
_TAG_VR = {
    TAG_META_GROUP_LENGTH: "UL",
    TAG_META_VERSION: "OB",
    TAG_MEDIA_SOP_CLASS: "UI",
    TAG_MEDIA_SOP_INSTANCE: "UI",
    TAG_TRANSFER_SYNTAX: "UI",
    TAG_SOP_CLASS: "UI",
    TAG_SOP_INSTANCE: "UI",
    TAG_MODALITY: "CS",
    TAG_SLICE_THICKNESS: "DS",
    TAG_INSTANCE_NUMBER: "IS",
    TAG_IMAGE_POSITION: "DS",
    TAG_ROWS: "US",
    TAG_COLUMNS: "US",
    TAG_PIXEL_SPACING: "DS",
    TAG_BITS_ALLOCATED: "US",
    TAG_BITS_STORED: "US",
    TAG_HIGH_BIT: "US",
    TAG_PIXEL_REPRESENTATION: "US",
    TAG_RESCALE_INTERCEPT: "DS",
    TAG_RESCALE_SLOPE: "DS",
    TAG_PIXEL_DATA: "OW",
}

# VRs serialized with the 4-byte length form in explicit VR
_LONG_VRS = frozenset({"OB", "OW", "OF", "SQ", "UT", "UN"})
_STRING_VRS = frozenset({"IS", "DS", "CS", "LO"})


class DicomParseError(InputError):
    """File bytes do not parse under the supported subset."""


class UnsupportedTransferSyntaxError(DicomParseError):
    pass


class TruncatedFileError(DicomParseError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class NoValidImagesError(InputError):
    pass


class GeometryMismatchError(InputError):
    pass


@dataclass(frozen=True)
class DicomElement:
    tag: tuple[int, int]
    vr: str
    value: bytes


@dataclass
class DicomDataset:
    """Flat tag -> element map plus the declared transfer syntax."""

    elements: dict[tuple[int, int], DicomElement] = field(default_factory=dict)
    transfer_syntax: str = EXPLICIT_VR_LE
    conformant: bool = True

    def put(self, tag, vr: str, value: bytes) -> None:
        self.elements[tuple(tag)] = DicomElement(tuple(tag), vr, bytes(value))

    def __contains__(self, tag) -> bool:
        return tuple(tag) in self.elements

    def get(self, tag) -> DicomElement | None:
        return self.elements.get(tuple(tag))

    def sorted_elements(self) -> list[DicomElement]:
        return [self.elements[t] for t in sorted(self.elements)]

    # -- typed value accessors -------------------------------------------
    def ushort(self, tag) -> int | None:
        """US content; a value shorter than 2 bytes raises DicomParseError."""
        el = self.get(tag)
        if el is None:
            return None
        if len(el.value) < 2:
            raise DicomParseError(f"tag {tuple(tag)}: US value has {len(el.value)} bytes, need 2")
        return struct.unpack("<H", el.value[:2])[0]

    def text(self, tag) -> str | None:
        el = self.get(tag)
        if el is None:
            return None
        return str(el.value, "ascii", "replace").rstrip("\x00 ")

    def numbers(self, tag) -> list[float] | None:
        """DS/IS multi-valued numeric content, backslash separated; a
        value that is not a finite number raises DicomParseError."""
        raw = self.text(tag)
        if raw is None or raw.strip() == "":
            return None
        try:
            values = [float(part) for part in raw.split("\\")]
        except ValueError as exc:
            raise DicomParseError(f"tag {tuple(tag)}: {raw!r} is not a number list") from exc
        if not all(math.isfinite(v) for v in values):
            raise DicomParseError(f"tag {tuple(tag)}: {raw!r} holds a non-finite number")
        return values


def _parse_element(data: bytes, pos: int, explicit: bool):
    """Parse one element at pos; returns (element, new_pos)."""
    n = len(data)
    if pos + 8 > n:
        raise TruncatedFileError("element header runs past end of data", pos)
    group, elem = struct.unpack_from("<HH", data, pos)
    if explicit:
        vr = str(data[pos + 4 : pos + 6], "ascii", "replace")
        if not vr.isalpha() or not vr.isupper():
            raise DicomParseError(
                f"invalid VR {vr!r} for tag ({group:04X},{elem:04X}) at offset {pos}"
            )
        if vr in _LONG_VRS:
            if pos + 12 > n:
                raise TruncatedFileError("long-form length runs past end of data", pos)
            (length,) = struct.unpack_from("<I", data, pos + 8)
            body = pos + 12
        else:
            (length,) = struct.unpack_from("<H", data, pos + 6)
            body = pos + 8
    else:
        (length,) = struct.unpack_from("<I", data, pos + 4)
        body = pos + 8
        vr = _TAG_VR.get((group, elem), "UN")
    if length == 0xFFFFFFFF:
        raise DicomParseError(
            f"undefined-length element ({group:04X},{elem:04X}) not supported (flat datasets only)"
        )
    if body + length > n:
        raise TruncatedFileError(
            f"value of ({group:04X},{elem:04X}) declared {length} bytes but data ends", body
        )
    return DicomElement((group, elem), vr, data[body : body + length]), body + length


def parse_file(data: bytes | memoryview) -> DicomDataset:
    """Parse one DICOM file.

    Conformant files (128-byte preamble + "DICM" + explicit-VR meta
    group) may declare explicit or implicit VR little endian for the
    dataset. Without the magic the whole stream is retried as a raw
    implicit-VR dataset ("forced" mode) and flagged non-conformant.

    A memoryview is parsed in place: each element's value is a view of
    its bytes there, not a copy. Anything else is parsed as ``bytes``.
    """
    data = data.cast("B") if isinstance(data, memoryview) else bytes(data)
    ds = DicomDataset()
    if len(data) >= 132 and data[128:132] == b"DICM":
        pos = 132
        meta_end = None
        while pos < len(data):
            if meta_end is not None and pos >= meta_end:
                break
            group = struct.unpack_from("<H", data, pos)[0] if pos + 2 <= len(data) else None
            if group != 0x0002:
                break
            el, pos = _parse_element(data, pos, explicit=True)
            ds.elements[el.tag] = el
            if el.tag == TAG_META_GROUP_LENGTH:
                if len(el.value) != 4:
                    raise DicomParseError(f"meta group length is {len(el.value)} bytes, not 4")
                meta_end = pos + struct.unpack("<I", el.value)[0]
        syntax = ds.text(TAG_TRANSFER_SYNTAX) or EXPLICIT_VR_LE
        if syntax not in (EXPLICIT_VR_LE, IMPLICIT_VR_LE):
            raise UnsupportedTransferSyntaxError(
                f"transfer syntax {syntax!r} not supported (explicit/implicit VR little endian only)"
            )
        ds.transfer_syntax = syntax
    else:  # forced mode: no preamble/magic, assume raw implicit VR little endian
        ds.conformant = False
        ds.transfer_syntax = IMPLICIT_VR_LE
        pos = 0
    explicit = ds.transfer_syntax == EXPLICIT_VR_LE
    while pos < len(data):
        el, pos = _parse_element(data, pos, explicit=explicit)
        ds.elements[el.tag] = el
    return ds


def _pad_value(el: DicomElement) -> bytes:
    value = el.value
    if len(value) % 2 == 0:
        return value
    pad = b" " if el.vr in _STRING_VRS else b"\x00"
    logger.warning(
        "padding odd-length value of (%04X,%04X) %s to even length",
        el.tag[0],
        el.tag[1],
        el.vr,
    )
    return value + pad


def _encode_element(el: DicomElement) -> bytes:
    value = _pad_value(el)
    if len(value) > 0xFFFFFFFE:
        raise ValueError(f"value of {el.tag} exceeds the 32-bit length field")
    head = struct.pack("<HH", *el.tag)
    vr = el.vr.encode("ascii")
    if el.vr in _LONG_VRS:
        return head + vr + b"\x00\x00" + struct.pack("<I", len(value)) + value
    if len(value) > 0xFFFF:
        raise ValueError(
            f"value of {el.tag} ({len(value)} bytes) exceeds the short length field for VR {el.vr}"
        )
    return head + vr + struct.pack("<H", len(value)) + value


def write_file(ds: DicomDataset) -> bytes:
    """Serialize as preamble + DICM + explicit-VR-LE meta and dataset."""
    meta: dict[tuple[int, int], DicomElement] = {}
    body: list[DicomElement] = []
    for el in ds.sorted_elements():
        if el.tag[0] == 0x0002:
            meta[el.tag] = el
        else:
            body.append(el)
    meta.setdefault(TAG_META_VERSION, DicomElement(TAG_META_VERSION, "OB", b"\x00\x01"))
    meta[TAG_TRANSFER_SYNTAX] = DicomElement(
        TAG_TRANSFER_SYNTAX, "UI", _pad_uid(EXPLICIT_VR_LE)
    )
    meta_payload = b"".join(
        _encode_element(meta[t]) for t in sorted(meta) if t != TAG_META_GROUP_LENGTH
    )
    group_len = DicomElement(TAG_META_GROUP_LENGTH, "UL", struct.pack("<I", len(meta_payload)))
    out = [b"\x00" * 128, b"DICM", _encode_element(group_len), meta_payload]
    out.extend(_encode_element(el) for el in body)
    return b"".join(out)


def _pad_uid(uid: str) -> bytes:
    raw = uid.encode("ascii")
    return raw + b"\x00" if len(raw) % 2 else raw


def _encode_text(value: str) -> bytes:
    raw = value.encode("ascii")
    return raw + b" " if len(raw) % 2 else raw


def make_slice_dataset(
    pixels: np.ndarray,
    pixel_spacing: tuple[float, float] | None = (1.0, 1.0),
    slice_thickness: float | None = 1.0,
    position_z: float | None = None,
    instance_number: int | None = None,
    rescale: tuple[float, float] | None = None,
    signed: bool = False,
) -> DicomDataset:
    """Build a single-slice CT dataset around a 2-D uint16/int16 array.

    Fixture generator: pixel_spacing is (row, col) mm per DICOM
    convention; pass None to omit the geometry tags.
    """
    px = np.asarray(pixels)
    if px.ndim != 2:
        raise ValueError("pixels must be 2-D (rows, cols)")
    dtype = "<i2" if signed else "<u2"
    raw = np.ascontiguousarray(px.astype(dtype)).tobytes()
    ds = DicomDataset()
    ds.put(TAG_MODALITY, "CS", b"CT")
    ds.put(TAG_ROWS, "US", struct.pack("<H", px.shape[0]))
    ds.put(TAG_COLUMNS, "US", struct.pack("<H", px.shape[1]))
    ds.put(TAG_BITS_ALLOCATED, "US", struct.pack("<H", 16))
    ds.put(TAG_BITS_STORED, "US", struct.pack("<H", 16))
    ds.put(TAG_HIGH_BIT, "US", struct.pack("<H", 15))
    ds.put(TAG_PIXEL_REPRESENTATION, "US", struct.pack("<H", 1 if signed else 0))
    if pixel_spacing is not None:
        ds.put(TAG_PIXEL_SPACING, "DS", _encode_text(f"{pixel_spacing[0]:g}\\{pixel_spacing[1]:g}"))
    if slice_thickness is not None:
        ds.put(TAG_SLICE_THICKNESS, "DS", _encode_text(f"{slice_thickness:g}"))
    if position_z is not None:
        ds.put(TAG_IMAGE_POSITION, "DS", _encode_text(f"0\\0\\{position_z:g}"))
    if instance_number is not None:
        ds.put(TAG_INSTANCE_NUMBER, "IS", _encode_text(str(instance_number)))
    if rescale is not None:
        ds.put(TAG_RESCALE_SLOPE, "DS", _encode_text(f"{rescale[0]:g}"))
        ds.put(TAG_RESCALE_INTERCEPT, "DS", _encode_text(f"{rescale[1]:g}"))
    ds.put(TAG_PIXEL_DATA, "OW", raw)
    return ds


@dataclass(frozen=True)
class SeriesGeometry:
    rows: int
    cols: int
    pixel_spacing: tuple[float, float]  # (sx, sy) mm
    slice_thickness: float
    slice_order: tuple[tuple[int, float], ...]  # (input index, sort key)
    warnings: tuple[str, ...] = ()
    uniform_z: bool = True

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("rows and cols must be positive")
        if min(self.pixel_spacing) <= 0 or self.slice_thickness <= 0:
            raise ValueError("spacing components must be positive")


def _pixel_format(ds: DicomDataset) -> tuple[np.dtype, float, float]:
    """One slice's stored dtype, rescale slope and intercept. Raises
    DicomParseError on a BitsAllocated or PixelRepresentation it cannot
    decode (a missing one defaults to 16 bits, unsigned), and when its
    PixelData holds fewer pixels than Rows x Columns declare, so a header
    alone never sizes an allocation."""
    rows = ds.ushort(TAG_ROWS)
    cols = ds.ushort(TAG_COLUMNS)
    bits = ds.ushort(TAG_BITS_ALLOCATED)
    bits = 16 if bits is None else bits
    representation = ds.ushort(TAG_PIXEL_REPRESENTATION)
    if representation not in (None, 0, 1):
        raise DicomParseError(f"PixelRepresentation {representation} not supported")
    dtypes = {8: ("u1", "i1"), 16: ("<u2", "<i2")}
    if bits not in dtypes:
        raise DicomParseError(f"BitsAllocated {bits} not supported")
    dtype = np.dtype(dtypes[bits][representation == 1])
    size, need = len(ds.get(TAG_PIXEL_DATA).value), rows * cols * dtype.itemsize
    if size < need:
        raise DicomParseError(f"pixel data has {size} bytes, expected {need}")
    slope_vals = ds.numbers(TAG_RESCALE_SLOPE)
    inter_vals = ds.numbers(TAG_RESCALE_INTERCEPT)
    slope = slope_vals[0] if slope_vals else 1.0
    intercept = inter_vals[0] if inter_vals else 0.0
    return dtype, slope, intercept


def _decode(stored: np.ndarray, slope: float, intercept: float,
            out: np.ndarray | None = None) -> np.ndarray:
    """``stored * slope + intercept`` as float64, written into ``out`` when
    given: the exact int -> float64 cast, one rounded multiply and one
    rounded add. The only decode: a whole grid, the lines a resize reads
    and each slice's extremes all go through it, so they agree to the
    bit."""
    out = np.multiply(stored, slope, out=out, dtype=np.float64)
    out += intercept
    return out


def _decodes_finite(planes, slopes, intercepts) -> bool:
    """Whether every value ``_decode`` makes of each of ``planes`` with its
    slope and intercept is finite, decided from each plane's stored
    minimum and maximum alone.

    Exact, because both directions hold. The extremes are stored values,
    so a non-finite extreme is a non-finite value. Conversely, if both
    extremes decode finite, slope and intercept are finite: an infinite
    or NaN slope makes ``v * slope`` infinite or NaN for every ``v`` (NaN
    for ``0 * inf``), and an infinite or NaN intercept makes every sum
    infinite or NaN. With both finite, ``v -> v * slope`` is monotone in
    ``v`` (increasing for a positive slope, decreasing for a negative one,
    constant for zero) and round-to-nearest is monotone, overflow included
    (it goes to the infinity of the same sign), so ``fl(v * slope)`` is
    monotone; adding a finite intercept and rounding keeps it so. Every
    decoded value then lies between the two decoded extremes, which are
    finite."""
    return all(
        np.isfinite(_decode(np.array([plane.min(), plane.max()]), slope, intercept)).all()
        for plane, slope, intercept in zip(planes, slopes, intercepts)
        if plane.size
    )


class _SeriesGrid(VoxelGrid):
    """The VoxelGrid of a DICOM series, kept as one 2-D plane a slice: a
    view of the slice's PixelData bytes in its own stored dtype (two
    bytes a voxel or less), with its own slope and intercept.

    ``lines`` decodes only the lines it is asked for, plane by plane, and
    ``planes`` one plane at a time; ``data`` decodes the whole grid once
    (``Volume``). A line reads the same bits either way."""

    def __init__(self, planes: list[np.ndarray], slopes: list[float], intercepts: list[float],
                 spacing: Spacing):
        if not _decodes_finite(planes, slopes, intercepts):
            raise ValueError("grid data contains non-finite values")
        Volume.__init__(self, (len(planes), *planes[0].shape), spacing, planes)
        object.__setattr__(self, "_rescale", (slopes, intercepts))

    def _read(self, planes, outs):
        return map(_decode, planes, *self._rescale, outs)

    def lines(self, cuts) -> np.ndarray:
        planes = self._planes  # None once data has been decoded
        if planes is None:
            return super().lines(cuts)
        slopes, intercepts = self._rescale
        zs, ys, xs = cuts
        picked = np.arange(len(planes))[zs]
        out = np.empty([np.arange(n)[cut].size for n, cut in zip(self._shape, cuts)])
        for plane, k in zip(out, picked):
            # rows, then columns: two small gathers, faster than one np.ix_
            _decode(planes[k][ys][:, xs], slopes[k], intercepts[k], out=plane)
        return out


def read_series(datasets: list[DicomDataset]) -> tuple[VoxelGrid, SeriesGeometry]:
    """Assemble sorted slices into a voxel grid.

    Slices sort by the z component of ImagePositionPatient when every
    slice carries it, else by InstanceNumber, else input order; equal
    keys keep input order. Missing PixelSpacing/SliceThickness default
    to 1.0 mm with a recorded warning; a PixelSpacing with fewer than
    two values raises GeometryMismatchError.

    The grid holds one plane a slice, not float64 values: a view of the
    slice's PixelData bytes, without a copy, in its stored dtype (``u1``/
    ``i1``/``<u2``/``<i2``), with its slope and intercept. A grid whose
    decode would hold a non-finite value raises GeometryMismatchError
    here, decided from each plane's stored extremes. Its ``data`` decodes
    the whole grid on first read; ``VoxelGrid.lines`` decodes only the
    lines asked for.
    """
    usable: list[tuple[int, DicomDataset]] = []
    warnings: list[str] = []
    for i, ds in enumerate(datasets):
        if TAG_PIXEL_DATA not in ds or TAG_ROWS not in ds or TAG_COLUMNS not in ds:
            warnings.append(f"slice {i}: missing pixel data or dimensions, skipped")
            continue
        usable.append((i, ds))
    if not usable:
        raise NoValidImagesError("No valid DICOM images found")

    rows = usable[0][1].ushort(TAG_ROWS)
    cols = usable[0][1].ushort(TAG_COLUMNS)
    for i, ds in usable:
        if ds.ushort(TAG_ROWS) != rows or ds.ushort(TAG_COLUMNS) != cols:
            raise GeometryMismatchError(
                f"slice {i} is {ds.ushort(TAG_ROWS)}x{ds.ushort(TAG_COLUMNS)}, "
                f"series is {rows}x{cols}"
            )

    z_keys = [ds.numbers(TAG_IMAGE_POSITION) for _, ds in usable]
    if all(v is not None and len(v) >= 3 for v in z_keys):
        keys = [v[2] for v in z_keys]
    else:
        inst = [ds.numbers(TAG_INSTANCE_NUMBER) for _, ds in usable]
        if all(v is not None for v in inst):
            keys = [v[0] for v in inst]
        else:
            keys = [float(order) for order in range(len(usable))]
    order = sorted(range(len(usable)), key=lambda j: keys[j])

    first = usable[order[0]][1]
    if TAG_PIXEL_SPACING not in first:
        warnings.append("PixelSpacing missing: assigning default values (1.0, 1.0) mm")
        sy, sx = 1.0, 1.0
    else:
        spacing_vals = first.numbers(TAG_PIXEL_SPACING) or []
        if len(spacing_vals) < 2:
            raise GeometryMismatchError(
                f"PixelSpacing needs a row and a column spacing, got {spacing_vals}"
            )
        if min(spacing_vals) <= 0:
            raise GeometryMismatchError(f"non-positive PixelSpacing {spacing_vals}")
        sy, sx = spacing_vals[0], spacing_vals[1]  # row spacing first
    thick_vals = first.numbers(TAG_SLICE_THICKNESS)
    if thick_vals is None or thick_vals[0] <= 0:
        if thick_vals is not None and thick_vals[0] <= 0:
            raise GeometryMismatchError(f"non-positive SliceThickness {thick_vals}")
        warnings.append("SliceThickness missing: assigning default values (1.0 mm)")
        thickness = 1.0
    else:
        thickness = thick_vals[0]

    uniform_z = True
    sorted_keys = [keys[j] for j in order]
    if len(sorted_keys) > 2:
        gaps = np.diff(sorted_keys)
        if gaps.max() - gaps.min() > 1e-6 * max(abs(gaps).max(), 1.0):
            uniform_z = False
            warnings.append("non-uniform z gaps between slices; series flagged, not resampled")

    planes, slopes, intercepts = [], [], []
    for j in order:
        ds = usable[j][1]
        dtype, slope, intercept = _pixel_format(ds)
        pixels = np.frombuffer(ds.get(TAG_PIXEL_DATA).value, dtype, rows * cols)
        planes.append(pixels.reshape(rows, cols))
        slopes.append(slope)
        intercepts.append(intercept)
    try:
        grid = _SeriesGrid(planes, slopes, intercepts, Spacing(sx, sy, thickness))
        geometry = SeriesGeometry(
            rows=rows,
            cols=cols,
            pixel_spacing=(sx, sy),
            slice_thickness=thickness,
            slice_order=tuple((usable[j][0], keys[j]) for j in order),
            warnings=tuple(warnings),
            uniform_z=uniform_z,
        )
    except ValueError as exc:  # empty slices, non-finite spacing or decoded values
        raise GeometryMismatchError(str(exc)) from exc
    return grid, geometry


def _read_slice(path: Path, view: memoryview) -> tuple[DicomDataset, str | None, int]:
    """Read the file ``path`` into ``view``, which its listed size fills,
    and parse it there. Returns the tags ``read_series`` reads but
    PixelData, as bytes, and PixelData's VR (None without one) and size.
    Its bytes are moved to the start of ``view``, over the header: the
    overlapping assignment is a memmove, without a temporary. A file that
    is not its listed size raises DicomParseError, so no prefix of it is
    parsed."""
    with open(path, "rb") as fh:
        if fh.readinto(view) != len(view) or fh.read(1):
            raise DicomParseError(f"file size changed from the listed {len(view)} bytes")
    ds = parse_file(view)
    header = DicomDataset({t: DicomElement(t, ds.elements[t].vr, bytes(ds.elements[t].value))
                           for t in _SERIES_TAGS if t in ds and t != TAG_PIXEL_DATA})
    pixels = ds.get(TAG_PIXEL_DATA)
    if pixels is None:
        return header, None, 0
    size = len(pixels.value)
    view[:size] = pixels.value
    return header, pixels.vr, size


def read_directory(path, files=None) -> tuple[VoxelGrid, SeriesGeometry, list[str]]:
    """Parse every regular file in ``path`` (sorted by name) and assemble
    the series with ``read_series``. ``files`` is the listing
    ``io.directory_files(path)`` where the caller has made it already;
    without it the directory is listed here. Files that fail to parse,
    or whose size changed after the listing, are skipped and listed as
    ``"<name>: <reason>"`` in the third return value.

    The series is read into one numpy buffer, sized by the listed file
    sizes. Each file is read once, at a write head, and parsed in place;
    its PixelData bytes move down over its header, and the head advances
    by them alone. So the buffer ends as every slice's pixel bytes back to
    back, and it is shrunk to them (``ndarray.resize``, without a copy)
    and made read-only. Of each slice the tags ``read_series`` reads are
    kept, as bytes, and PixelData as a view into the buffer, which the
    grid's plane then views. So the read holds the series' pixel bytes
    (two bytes a voxel for 16-bit slices) in one allocation, never a
    float64 grid; that comes only when ``data`` is read."""
    files = directory_files(path) if files is None else files
    buffer = np.empty(sum(size for _, size in files), np.uint8)
    kept = []  # (header, PixelData VR, PixelData offset in the buffer, its size)
    skipped = []
    head = 0
    with memoryview(buffer) as whole:
        for p, size in files:
            try:
                header, vr, pixel_bytes = _read_slice(p, whole[head : head + size])
            except DicomParseError as exc:
                skipped.append(f"{p.name}: {exc}")
                continue
            kept.append((header, vr, head, pixel_bytes))
            head += pixel_bytes
    # the ``with`` block released the only view of the buffer, so it may
    # shrink in place; refcheck is off because a Python tracer (pdb,
    # ``sys.settrace``) holds this frame's locals, one more reference
    buffer.resize(head, refcheck=False)
    buffer.flags.writeable = False
    pixels = memoryview(buffer)
    for header, vr, start, size in kept:
        if vr is not None:
            header.elements[TAG_PIXEL_DATA] = DicomElement(TAG_PIXEL_DATA, vr,
                                                           pixels[start : start + size])
    grid, geometry = read_series([header for header, *_ in kept])
    return grid, geometry, skipped
