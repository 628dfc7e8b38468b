"""File formats: the VOLV volume container, slice-area CSV, cohort
manifests, and deterministic report envelopes.

VOLV layout (little endian): magic "VOLV", u32 version, u8 dtype code
(1 = float64 grid, 2 = uint8 mask), u32 nx ny nz, f8 sx sy sz, then the
raw C-order (nz, ny, nx) payload.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from volumetrica import __version__
from volumetrica.geometry import SliceAreaSeries
from volumetrica.grid import BinaryMask, Spacing, VoxelGrid

_MAGIC = b"VOLV"
_DTYPE_GRID = 1
_DTYPE_MASK = 2
_DTYPES = {_DTYPE_GRID: np.dtype("<f8"), _DTYPE_MASK: np.dtype(np.uint8)}
_HEADER_BYTES = 45  # magic, u32 version, u8 code, 3 x u32 dims, 3 x f8 spacing


def write_volume(path, volume: VoxelGrid | BinaryMask) -> None:
    if isinstance(volume, VoxelGrid):
        code, payload = _DTYPE_GRID, np.ascontiguousarray(volume.data, dtype="<f8")
    elif isinstance(volume, BinaryMask):
        code, payload = _DTYPE_MASK, np.ascontiguousarray(volume.data, dtype=np.uint8)
    else:
        raise TypeError(f"cannot serialize {type(volume)!r}")
    nx, ny, nz = volume.dims
    sp = volume.spacing
    header = _MAGIC + struct.pack("<IBIII", 1, code, nx, ny, nz) + struct.pack(
        "<ddd", sp.sx, sp.sy, sp.sz
    )
    Path(path).write_bytes(header + payload.tobytes())


def read_volume(path) -> VoxelGrid | BinaryMask:
    """Read a VOLV container; a truncated, corrupted or over-long file
    raises ValueError."""
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise ValueError(f"{path}: not a VOLV container")
    if len(data) < _HEADER_BYTES:
        raise ValueError(f"{path}: VOLV header truncated at {len(data)} of {_HEADER_BYTES} bytes")
    version, code, nx, ny, nz = struct.unpack_from("<IBIII", data, 4)
    if version != 1:
        raise ValueError(f"{path}: unsupported container version {version}")
    if code not in _DTYPES:
        raise ValueError(f"{path}: unknown dtype code {code}")
    count = nx * ny * nz
    expected = _HEADER_BYTES + count * _DTYPES[code].itemsize
    if len(data) != expected:
        raise ValueError(
            f"{path}: VOLV payload is {len(data) - _HEADER_BYTES} bytes, "
            f"header declares {expected - _HEADER_BYTES}"
        )
    spacing = Spacing(*struct.unpack_from("<ddd", data, 21))
    payload = np.frombuffer(data, dtype=_DTYPES[code], count=count, offset=_HEADER_BYTES)
    if code == _DTYPE_GRID:
        return VoxelGrid(payload.reshape(nz, ny, nx).copy(), spacing)
    return BinaryMask(payload.reshape(nz, ny, nx).astype(bool), spacing)


def write_series_csv(path, series: SliceAreaSeries) -> None:
    lines = ["position_mm,area_mm2"]
    lines.extend(f"{float(p)!r},{float(a)!r}" for p, a in zip(series.positions, series.areas))
    Path(path).write_text("\n".join(lines) + "\n")


def read_series_csv(path) -> SliceAreaSeries:
    """Read `position_mm,area_mm2` rows; thickness is the uniform gap
    (1.0 for a single sample)."""
    rows = []
    text = Path(path).read_text()
    for i, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line or (i == 0 and line.lower().startswith("position")):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: line {i + 1}: expected two columns")
        rows.append((float(parts[0]), float(parts[1])))
    if not rows:
        raise ValueError(f"{path}: no samples")
    rows.sort()
    positions = np.array([r[0] for r in rows])
    areas = np.array([r[1] for r in rows])
    thickness = float(positions[1] - positions[0]) if len(rows) > 1 else 1.0
    return SliceAreaSeries(positions, areas, thickness)


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, fixed separators, newline end."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def dump_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def report_envelope(report_type: str, payload: dict, seed: int, config: dict, inputs=()) -> dict:
    """Common header every report carries: version, seed, config hash,
    input checksums. Directory inputs contribute their files."""
    files: list[Path] = []
    for p in inputs:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(q for q in p.iterdir() if q.is_file()))
        elif p.is_file():
            files.append(p)
    return {
        "tool": "volumetrica",
        "version": __version__,
        "report_type": report_type,
        "seed": seed,
        "config_hash": config_hash(config),
        "input_checksums": {str(p): sha256_file(p) for p in files},
        "payload": payload,
    }


def write_cohort_manifest(path, cases: list[dict], seed: int) -> None:
    dump_json(path, {"seed": seed, "cases": cases})


def read_cohort_manifest(path) -> dict:
    """Accepts either a bare manifest or one wrapped in a report envelope."""
    manifest = json.loads(Path(path).read_text())
    if "payload" in manifest and isinstance(manifest["payload"], dict):
        seed = manifest.get("seed", 0)
        manifest = dict(manifest["payload"])
        manifest.setdefault("seed", seed)
    if "cases" not in manifest or not isinstance(manifest["cases"], list):
        raise ValueError(f"{path}: manifest must carry a 'cases' list")
    return manifest
