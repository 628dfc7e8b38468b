"""Voxel-grid data model.

Canonical memory layout for all volumes in this package: C-contiguous
arrays indexed ``[z, y, x]`` (row-major, z-outermost). ``dims`` tuples
are always reported as ``(nx, ny, nz)``.
"""

from __future__ import annotations

import math
import threading
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
        """Each ``[y, x]`` plane in z order, one at a time: here views of
        ``data``; a grid kept in another form makes each plane alone."""
        return iter(self.data)


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

    def planes(self):
        """Each ``[y, x]`` plane in z order, one at a time: here views of
        ``data``; a mask kept in a file reads each plane alone."""
        return iter(self.data)


class OnDemand:
    """The base of a ``VoxelGrid`` (float64) or ``BinaryMask`` (bool) of
    ``shape`` (``[z, y, x]``) that keeps its values in another form
    (``_planes``: a DICOM series' stored integers, a mask file, the grid
    a mask is thresholded from) and makes them on demand, through the
    subclass's ``_read``.

    ``planes`` makes one plane at a time, each into a fresh array.
    ``data`` makes the whole volume on its first read, once even when
    threads race for it, and then lets ``_planes`` go; later planes are
    views of it. A plane so holds the same bits either way. ``dims`` and
    ``spacing`` need no read."""

    def __init__(self, shape: tuple[int, int, int], spacing: Spacing, planes):
        dtype = np.dtype(np.float64 if isinstance(self, VoxelGrid) else bool)
        fields = {"spacing": spacing, "_shape": tuple(shape), "_dtype": dtype,
                  "_planes": planes, "_decoded": None, "_lock": threading.Lock()}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _read(self, planes, outs):
        """An iterator that fills each of ``outs`` (writable ``[y, x]``
        arrays in z order) with its plane of ``planes`` and yields it.
        A ``map`` over ``outs`` keeps no plane between two, so the next
        is made only after the caller lets the last one go."""
        raise NotImplementedError

    @property
    def data(self) -> np.ndarray:
        if self._decoded is None:
            with self._lock:
                if self._decoded is None:
                    data = np.empty(self._shape, self._dtype)
                    for _ in self._read(self._planes, data):
                        pass
                    data.flags.writeable = False
                    object.__setattr__(self, "_decoded", data)
                    object.__setattr__(self, "_planes", None)
        return self._decoded

    @property
    def dims(self) -> tuple[int, int, int]:
        nz, ny, nx = self._shape
        return (nx, ny, nz)

    def planes(self):
        planes = self._planes  # None once data has been made, and then for good
        if planes is None:
            return iter(self._decoded)
        nz, *plane = self._shape
        return self._read(planes, (np.empty(plane, self._dtype) for _ in range(nz)))
