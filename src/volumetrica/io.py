"""File formats: the VOLV volume container, slice-area CSV, cohort
manifests, and deterministic report envelopes.

VOLV layout (little endian): magic "VOLV", u32 version, u8 dtype code
(1 = float64 grid, 2 = uint8 mask), u32 nx ny nz, f8 sx sy sz, then the
raw C-order (nz, ny, nx) payload.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import struct
import sys
from pathlib import Path

import numpy as np

from volumetrica import __version__
from volumetrica.errors import InputError
from volumetrica.geometry import SliceAreaSeries
from volumetrica.grid import BinaryMask, Spacing, Volume, VoxelGrid

_MAGIC = b"VOLV"
_DTYPE_GRID = 1
_DTYPE_MASK = 2
_DTYPES = {_DTYPE_GRID: np.dtype("<f8"), _DTYPE_MASK: np.dtype(np.uint8)}
_CODES = {VoxelGrid: _DTYPE_GRID, BinaryMask: _DTYPE_MASK}
_HEADER_BYTES = 45  # magic, u32 version, u8 code, 3 x u32 dims, 3 x f8 spacing


def write_volume(path, volume: Volume) -> None:
    # plane by plane, so a DICOM series is never decoded whole, nor a
    # mask file read whole
    code = next((_CODES[cls] for cls in type(volume).__mro__ if cls in _CODES), None)
    if code is None:
        raise TypeError(f"cannot serialize {type(volume)!r}")
    payload = (np.ascontiguousarray(plane, _DTYPES[code]) for plane in volume.planes())
    nx, ny, nz = volume.dims
    sp = volume.spacing
    header = _MAGIC + struct.pack("<IBIII", 1, code, nx, ny, nz) + struct.pack(
        "<ddd", sp.sx, sp.sy, sp.sz
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for chunk in payload:
            fh.write(chunk)  # the array's own buffer, not a bytes copy of it


def read_volume(path) -> VoxelGrid | BinaryMask:
    """Read a VOLV container; a truncated, corrupted or over-long file
    raises InputError. A grid's payload is read straight into the array
    the grid keeps. A mask's is not read here: the mask reads it from the
    file plane by plane (``_MaskFile``)."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_BYTES)
        if header[:4] != _MAGIC:
            raise InputError(f"{path}: not a VOLV container")
        if len(header) < _HEADER_BYTES:
            raise InputError(
                f"{path}: VOLV header truncated at {len(header)} of {_HEADER_BYTES} bytes"
            )
        version, code, nx, ny, nz = struct.unpack_from("<IBIII", header, 4)
        if version != 1:
            raise InputError(f"{path}: unsupported container version {version}")
        if code not in _DTYPES:
            raise InputError(f"{path}: unknown dtype code {code}")
        # sizes are checked before the header's dims reach an allocation
        declared = nx * ny * nz * _DTYPES[code].itemsize
        identity = _identity(fh)
        size = identity[0] - _HEADER_BYTES
        if size == declared and code == _DTYPE_GRID:
            payload = np.empty((nz, ny, nx), dtype=_DTYPES[code])
            size = fh.readinto(payload)  # short only if the file shrank meanwhile
        if size != declared:
            raise InputError(f"{path}: VOLV payload is {size} bytes, header declares {declared}")
    try:
        spacing = Spacing(*struct.unpack_from("<ddd", header, 21))
        if code == _DTYPE_GRID:
            return VoxelGrid(payload, spacing)
        return _MaskFile((nz, ny, nx), spacing, (path, identity))
    except ValueError as exc:  # invalid spacing or non-finite intensities
        raise InputError(f"{path}: {exc}") from exc


def _identity(fh) -> tuple[int, int, int, int]:
    """The size, device, inode and modification time of the open file ``fh``."""
    st = os.fstat(fh.fileno())
    return (st.st_size, st.st_dev, st.st_ino, st.st_mtime_ns)


class _MaskFile(BinaryMask):
    """The mask of a VOLV file that ``read_volume`` checked, read from the
    file (``_planes`` is its path and ``_identity``): each read opens it
    and reads its planes in z order, each byte becoming 0 or 1 in place,
    and after each plane checks that the file's size, device, inode and
    modification time are still those checked. A change of any of them
    (a file replaced, truncated, extended or rewritten at a later
    modification time) raises InputError naming it, before that plane is
    handed out; a rewrite that keeps all four, within the file system's
    timestamp granularity, is not seen."""

    __init__ = Volume.__init__

    def _read(self, planes, outs):
        path, identity = planes

        def read(out):
            raw = out.view(np.uint8)
            if fh.readinto(raw) != raw.nbytes or _identity(fh) != identity:
                raise InputError(f"{path}: VOLV file changed after it was checked")
            return np.not_equal(raw, 0, out=out)

        with open(path, "rb") as fh:
            fh.seek(_HEADER_BYTES)
            yield from map(read, outs)


def write_csv(path, header, rows) -> None:
    """Write a header and rows as CSV to ``path``, or to stdout when
    ``path`` is empty. Fields that hold a comma, quote or newline are
    quoted; floats are written as their repr."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    if path:
        Path(path).write_text(text.getvalue())
    else:
        sys.stdout.write(text.getvalue())


def write_series_csv(path, series: SliceAreaSeries) -> None:
    write_csv(
        path,
        ("position_mm", "area_mm2"),
        ((float(p), float(a)) for p, a in zip(series.positions, series.areas)),
    )


def read_series_csv(path) -> SliceAreaSeries:
    """Read `position_mm,area_mm2` rows; thickness is the uniform gap
    (1.0 for a single sample). A malformed file raises InputError."""
    rows = []
    for i, line in enumerate(_read_text(path).splitlines()):
        line = line.strip()
        if not line or (i == 0 and line.lower().startswith("position")):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise InputError(f"{path}: line {i + 1}: expected two columns")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise InputError(f"{path}: line {i + 1}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no samples")
    rows.sort()
    positions = np.array([r[0] for r in rows])
    areas = np.array([r[1] for r in rows])
    thickness = float(positions[1] - positions[0]) if len(rows) > 1 else 1.0
    try:
        return SliceAreaSeries(positions, areas, thickness)
    except ValueError as exc:  # non-finite, negative or unevenly spaced samples
        raise InputError(f"{path}: {exc}") from exc


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def _finite_number(parse):
    """A json.loads number hook that rejects literals a float cannot hold."""

    def number(text: str):
        value = parse(text)
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ValueError(f"number {text[:32]} is out of range")
        return value

    return number


def _no_constant(name: str):
    raise ValueError(f"{name} is not a number")


def read_json(path):
    """Parse a JSON file the user supplied. NaN, Infinity and literals
    that overflow a float, such as 1e999, raise InputError like any
    other malformed document; ``canonical_json`` never writes them."""
    text = _read_text(path)
    try:
        return json.loads(
            text,
            parse_float=_finite_number(float),
            parse_int=_finite_number(int),
            parse_constant=_no_constant,
        )
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise InputError(f"{path}: not valid JSON: {exc}") from exc


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, fixed separators, newline end."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def dump_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj))


def sha256_file(path) -> str:
    """Hex SHA-256 of a file, read through one 256 KiB buffer: it hashes
    as fast as a larger one, and the heap of the thread that hashes
    beside ``estimate`` keeps it resident."""
    h = hashlib.sha256()
    chunk = memoryview(bytearray(1 << 18))
    with open(path, "rb") as fh:
        while n := fh.readinto(chunk):
            h.update(chunk[:n])
    return h.hexdigest()


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def directory_files(path) -> list[tuple[Path, int]]:
    """Each regular file directly inside the directory ``path``, sorted by
    name, with its size in bytes."""
    path = Path(path)
    with os.scandir(path) as entries:
        files = sorted((e.name, e.stat().st_size) for e in entries if e.is_file())
    return [(path / name, size) for name, size in files]


def input_files(inputs) -> list[tuple[Path, int]]:
    """The files ``input_checksums`` hashes, with their sizes: each input
    file, and the files of each input directory; a path that is neither
    is left out."""
    files: list[tuple[Path, int]] = []
    for p in inputs:
        p = Path(p)
        if p.is_dir():
            files.extend(directory_files(p))
        elif p.is_file():
            files.append((p, p.stat().st_size))
    return files


def input_checksums(inputs) -> dict:
    """SHA-256 of each of ``input_files(inputs)`` by path."""
    return {str(p): sha256_file(p) for p, _ in input_files(inputs)}


def report_envelope(
    report_type: str, payload: dict, seed: int, config: dict, checksums: dict
) -> dict:
    """Common header every report carries: version, seed, config hash,
    and the ``input_checksums`` made by ``input_checksums``."""
    return {
        "tool": "volumetrica",
        "version": __version__,
        "report_type": report_type,
        "seed": seed,
        "config_hash": config_hash(config),
        "input_checksums": checksums,
        "payload": payload,
    }


def read_cohort_manifest(path) -> dict:
    """Accepts either a bare manifest or one wrapped in a report envelope.

    Each case is an object with an ``id``, string ``grid`` and ``mask``
    file names, and an ``analytic_volume_mm3`` that is a finite number
    > 0; anything else raises InputError."""
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise InputError(f"{path}: manifest must be a JSON object")
    if isinstance(manifest.get("payload"), dict):
        seed = manifest.get("seed", 0)
        manifest = dict(manifest["payload"])
        manifest.setdefault("seed", seed)
    seed = manifest.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InputError(f"{path}: manifest seed must be an integer, got {seed!r}")
    cases = manifest.get("cases")
    if not isinstance(cases, list) or not cases:
        raise InputError(f"{path}: manifest must carry a non-empty 'cases' list")
    for i, case in enumerate(cases):
        if not isinstance(case, dict) or "id" not in case:
            raise InputError(f"{path}: case {i} must be an object with an 'id'")
        for key in ("grid", "mask"):
            if not isinstance(case.get(key), str):
                raise InputError(f"{path}: case {case['id']!r} needs a string '{key}' file name")
        truth = case.get("analytic_volume_mm3")
        is_number = isinstance(truth, (int, float)) and not isinstance(truth, bool)
        if not (is_number and 0 < truth < math.inf):
            raise InputError(
                f"{path}: case {case['id']!r}: analytic_volume_mm3 must be a finite number > 0, "
                f"got {truth!r}"
            )
    return manifest
