"""Voxel-grid data model.

Canonical memory layout for all volumes in this package: C-contiguous
arrays indexed ``[z, y, x]`` (row-major, z-outermost). ``dims`` tuples
are always reported as ``(nx, ny, nz)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Spacing:
    """Physical voxel size in millimetres. ``sz`` is the slice thickness."""

    sx: float
    sy: float
    sz: float

    def __post_init__(self):
        for name in ("sx", "sy", "sz"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"spacing {name} must be finite and > 0, got {v!r}")

    @property
    def voxel_volume_mm3(self) -> float:
        return self.sx * self.sy * self.sz

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.sx, self.sy, self.sz)


def _freeze(a: np.ndarray) -> np.ndarray:
    """Read-only view; never flips flags on a caller-owned buffer."""
    a = np.ascontiguousarray(a).view()
    a.flags.writeable = False
    return a


# voxels per band of the finiteness check: its bool temporary stays near
# 128 KiB (or one slice, if larger) instead of one byte per voxel of the
# whole grid
_CHECK_VOXELS = 1 << 17


def _all_finite(a: np.ndarray) -> bool:
    """``np.all(np.isfinite(a))``, checked in bands of first-axis slices."""
    step = max(1, _CHECK_VOXELS // max(1, math.prod(a.shape[1:])))
    return all(np.isfinite(a[k : k + step]).all() for k in range(0, a.shape[0], step))


def cut_lines(a: np.ndarray, lines) -> np.ndarray:
    """``a`` cut to ``lines`` (a slice or sorted indices per axis): a
    view when every cut is a slice, else a copy in ``a``'s dtype."""
    if all(isinstance(cut, slice) for cut in lines):
        return a[tuple(lines)]
    return a[np.ix_(*(np.arange(n)[cut] for n, cut in zip(a.shape, lines)))]


@dataclass(frozen=True)
class VoxelGrid:
    """Scalar intensity volume with physical spacing.

    ``data`` has shape ``(nz, ny, nx)``, dtype float64, all values finite.
    """

    data: np.ndarray
    spacing: Spacing

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.float64)
        if a.ndim != 3:
            raise ValueError(f"grid data must be 3-D (nz, ny, nx), got shape {a.shape}")
        if not _all_finite(a):
            raise ValueError("grid data contains non-finite values")
        object.__setattr__(self, "data", _freeze(a))

    @property
    def dims(self) -> tuple[int, int, int]:
        nz, ny, nx = self.data.shape
        return (nx, ny, nz)

    def lines(self, cuts) -> np.ndarray:
        """The grid's values on ``cuts`` (a slice or sorted indices per
        axis, ``[z, y, x]``) as float64: here ``cut_lines`` of ``data``.
        A grid that keeps its values in another form (a DICOM series'
        stored integers) computes only these."""
        return cut_lines(self.data, cuts)

    def planes(self):
        """Each ``[y, x]`` plane in z order, one at a time, through
        ``lines``: a DICOM series decodes a plane, never the whole grid."""
        every = slice(None)
        for z in range(self.dims[2]):
            yield self.lines((slice(z, z + 1), every, every))[0]


@dataclass(frozen=True)
class BinaryMask:
    """Boolean volume with the same layout and spacing rules as VoxelGrid."""

    data: np.ndarray
    spacing: Spacing

    def __post_init__(self):
        a = np.asarray(self.data)
        if a.ndim != 3:
            raise ValueError(f"mask data must be 3-D (nz, ny, nx), got shape {a.shape}")
        object.__setattr__(self, "data", _freeze(a.astype(bool, copy=False)))

    @property
    def dims(self) -> tuple[int, int, int]:
        nz, ny, nx = self.data.shape
        return (nx, ny, nz)
