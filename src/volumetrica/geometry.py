"""Geometric primitives: voxel counting, slice areas, diameters, CTR."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from volumetrica.grid import BinaryMask


@dataclass(frozen=True)
class SliceAreaSeries:
    """Ordered (axial position mm, cross-sectional area mm^2) samples.

    Positions are strictly increasing with uniform gaps equal to
    ``thickness``; interior slices with no object carry area 0.
    """

    positions: np.ndarray
    areas: np.ndarray
    thickness: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        ar = np.asarray(self.areas, dtype=np.float64)
        if pos.shape != ar.shape or pos.ndim != 1:
            raise ValueError("positions and areas must be 1-D arrays of equal length")
        if not (math.isfinite(self.thickness) and self.thickness > 0):
            raise ValueError(f"thickness must be finite and > 0, got {self.thickness!r}")
        if not np.all(np.isfinite(ar) & (ar >= 0)):
            raise ValueError("areas must be finite and >= 0")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if len(pos) > 1:
            gaps = np.diff(pos)
            if np.any(gaps <= 0):
                raise ValueError("positions must be strictly increasing")
            if np.any(np.abs(gaps - self.thickness) > 1e-9 * self.thickness):
                raise ValueError("consecutive position gaps must equal thickness")
        pos = pos.view()
        ar = ar.view()
        pos.flags.writeable = False
        ar.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "areas", ar)

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def span(self) -> tuple[float, float]:
        if len(self) == 0:
            raise ValueError("empty series has no span")
        return (float(self.positions[0]), float(self.positions[-1]))


def voxel_volume(mask: BinaryMask) -> float:
    """Volume in mm^3: active-voxel count, plane by plane, times the
    voxel volume."""
    count = sum(map(np.count_nonzero, mask.planes()))
    return float(count) * mask.spacing.voxel_volume_mm3


def slice_areas(mask: BinaryMask) -> SliceAreaSeries:
    """Per-slice pixel-count areas over the contiguous z-span of the mask.

    One sample per z-slice between the first and last non-empty slice;
    interior empty slices keep area 0 so positions stay uniform.
    Position of slice k is ``k * sz``. Empty mask gives an empty series.
    """
    sp = mask.spacing
    # a plane at a time, and map holds none between two, so a mask kept
    # in a file is never read whole: count_nonzero without an axis is a
    # fast byte count, with one it is a bool -> int64 sum
    counts = np.fromiter(map(np.count_nonzero, mask.planes()), np.intp, mask.dims[2])
    nonzero = np.nonzero(counts)[0]
    if len(nonzero) == 0:
        return SliceAreaSeries(np.empty(0), np.empty(0), sp.sz)
    k0, k1 = int(nonzero[0]), int(nonzero[-1])
    ks = np.arange(k0, k1 + 1)
    return SliceAreaSeries(ks * sp.sz, counts[k0 : k1 + 1] * (sp.sx * sp.sy), sp.sz)


def max_equivalent_diameter(series: SliceAreaSeries) -> float:
    """Diameter of the circle whose area equals the largest slice area."""
    if len(series) == 0 or not np.any(series.areas > 0):
        raise ValueError("series has no positive slice area")
    return 2.0 * math.sqrt(float(series.areas.max()) / math.pi)


def ctr(d_solid: float, d_total: float) -> float:
    """Solid-component diameter over total diameter, in [0, 1]."""
    if not (d_total > 0):
        raise ValueError(f"total diameter must be > 0, got {d_total!r}")
    if not (0 <= d_solid <= d_total):
        raise ValueError(
            f"solid diameter must satisfy 0 <= d_solid <= d_total, got {d_solid!r} vs {d_total!r}"
        )
    return d_solid / d_total
