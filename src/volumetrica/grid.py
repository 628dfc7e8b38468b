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


class Volume:
    """A 3-D volume of ``shape`` (``[z, y, x]``) with physical ``spacing``:
    a ``VoxelGrid`` (float64) or a ``BinaryMask`` (bool). Its attributes
    are read-only, and its ``repr`` reads no value.

    A volume made from an array holds it as ``data``. One that keeps its
    values in another form (``_planes``: a DICOM series' stored integers,
    a mask file, the grid a mask is thresholded from) makes them on
    demand through its ``_read``; such a subclass takes this constructor
    (``__init__ = Volume.__init__``). Its ``planes`` makes one plane at a
    time, each into a fresh array. Its ``data`` makes the whole volume on
    the first read, once even when threads race for it, and then lets
    ``_planes`` go; later planes are views of it. A plane so holds the
    same bits either way. ``dims`` and ``spacing`` need no read."""

    _dtype: np.dtype  # of ``data`` and of each plane

    def __init__(self, shape: tuple[int, int, int], spacing: Spacing, planes, data=None):
        fields = {"spacing": spacing, "_shape": tuple(shape), "_planes": planes,
                  "_decoded": data, "_lock": None if data is not None else threading.Lock()}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r}: {type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dims={self.dims}, spacing={self.spacing})"

    def _read(self, planes, outs):
        """An iterator that fills each of ``outs`` (writable ``[y, x]``
        arrays in z order) with its plane of ``planes`` and yields it.
        A ``map`` over ``outs`` keeps no plane between two, so the next
        is made only after the caller lets the last one go."""
        raise NotImplementedError

    @property
    def data(self) -> np.ndarray:
        """The whole volume, ``[z, y, x]``, read-only."""
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

    def lines(self, cuts) -> np.ndarray:
        """The volume's values on ``cuts`` (a slice or sorted indices per
        axis, ``[z, y, x]``) in its dtype: here ``cut_lines`` of ``data``.
        A grid that keeps its values in another form (a DICOM series'
        stored integers) computes only these."""
        return cut_lines(self.data, cuts)

    def planes(self):
        """Each ``[y, x]`` plane in z order, one at a time."""
        planes = self._planes  # None once data has been made, and then for good
        if planes is None:
            return iter(self._decoded)
        nz, *plane = self._shape
        return self._read(planes, (np.empty(plane, self._dtype) for _ in range(nz)))


class VoxelGrid(Volume):
    """Scalar intensity volume: ``data`` has shape ``(nz, ny, nx)``, dtype
    float64, all values finite."""

    _dtype = np.dtype(np.float64)

    def __init__(self, data, spacing: Spacing):
        a = np.asarray(data, dtype=np.float64)
        if a.ndim != 3:
            raise ValueError(f"grid data must be 3-D (nz, ny, nx), got shape {a.shape}")
        if not _all_finite(a):
            raise ValueError("grid data contains non-finite values")
        super().__init__(a.shape, spacing, None, _freeze(a))


class BinaryMask(Volume):
    """Boolean volume with the same layout and spacing rules as VoxelGrid."""

    _dtype = np.dtype(bool)

    def __init__(self, data, spacing: Spacing):
        a = np.asarray(data)
        if a.ndim != 3:
            raise ValueError(f"mask data must be 3-D (nz, ny, nx), got shape {a.shape}")
        super().__init__(a.shape, spacing, None, _freeze(a.astype(bool, copy=False)))
