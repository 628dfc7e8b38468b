"""Geometric primitives: voxel counting, slice areas, diameters, CTR."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from volumetrica.grid import BinaryMask


class DegenerateSliceError(ValueError):
    """Slice has too few pixels for the requested measurement."""


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
    """Volume in mm^3: active-voxel count times the voxel volume."""
    return float(np.count_nonzero(mask.data)) * mask.spacing.voxel_volume_mm3


def slice_areas(mask: BinaryMask) -> SliceAreaSeries:
    """Per-slice pixel-count areas over the contiguous z-span of the mask.

    One sample per z-slice between the first and last non-empty slice;
    interior empty slices keep area 0 so positions stay uniform.
    Position of slice k is ``k * sz``. Empty mask gives an empty series.
    """
    sp = mask.spacing
    counts = mask.data.sum(axis=(1, 2))
    nonzero = np.nonzero(counts)[0]
    if len(nonzero) == 0:
        return SliceAreaSeries(np.empty(0), np.empty(0), sp.sz)
    k0, k1 = int(nonzero[0]), int(nonzero[-1])
    ks = np.arange(k0, k1 + 1)
    return SliceAreaSeries(ks * sp.sz, counts[k0 : k1 + 1] * (sp.sx * sp.sy), sp.sz)


def ellipse_fit_area(slice_mask: np.ndarray, sx: float, sy: float) -> float:
    """Moment-based ellipse area of a 2-D pixel mask, in mm^2.

    Fits an ellipse by matching the centroid and central second moments
    of the true pixel centers; for a filled ellipse this recovers its
    area pi * (2*sqrt(l1)) * (2*sqrt(l2)) * sx * sy.
    """
    m = np.asarray(slice_mask, dtype=bool)
    if m.ndim != 2:
        raise ValueError("slice mask must be 2-D")
    ys, xs = np.nonzero(m)
    if len(xs) < 3:
        raise DegenerateSliceError(f"need >= 3 pixels for an ellipse fit, got {len(xs)}")
    pts = np.stack([xs, ys]).astype(np.float64)
    pts -= pts.mean(axis=1, keepdims=True)
    cov = pts @ pts.T / len(xs)
    eigvals = np.linalg.eigvalsh(cov)
    eigvals = np.clip(eigvals, 0.0, None)
    return float(math.pi * 4.0 * math.sqrt(eigvals[0] * eigvals[1]) * sx * sy)


def max_equivalent_diameter(series: SliceAreaSeries) -> float:
    """Diameter of the circle whose area equals the largest slice area."""
    if len(series) == 0 or not np.any(series.areas > 0):
        raise ValueError("series has no positive slice area")
    return 2.0 * math.sqrt(float(series.areas.max()) / math.pi)


def max_feret_diameter(mask: BinaryMask) -> float:
    """Largest in-plane caliper distance over all slices, in mm.

    Non-default alternative to the equivalent diameter; measures the
    max pairwise distance between boundary pixel centers per slice.
    """
    sp = mask.spacing
    best = 0.0
    for sl in mask.data:
        if not sl.any():
            continue
        # boundary pixels only; 4-neighborhood erosion by shifting
        inner = sl.copy()
        inner[1:, :] &= sl[:-1, :]
        inner[:-1, :] &= sl[1:, :]
        inner[:, 1:] &= sl[:, :-1]
        inner[:, :-1] &= sl[:, 1:]
        ys, xs = np.nonzero(sl & ~inner)
        if len(xs) == 0:
            ys, xs = np.nonzero(sl)
        px = xs * sp.sx
        py = ys * sp.sy
        d2 = (px[:, None] - px[None, :]) ** 2 + (py[:, None] - py[None, :]) ** 2
        best = max(best, float(np.sqrt(d2.max())))
    if best == 0.0 and not mask.data.any():
        raise ValueError("empty mask has no diameter")
    return best


def ctr(d_solid: float, d_total: float) -> float:
    """Solid-component diameter over total diameter, in [0, 1]."""
    if not (d_total > 0):
        raise ValueError(f"total diameter must be > 0, got {d_total!r}")
    if not (0 <= d_solid <= d_total):
        raise ValueError(
            f"solid diameter must satisfy 0 <= d_solid <= d_total, got {d_solid!r} vs {d_total!r}"
        )
    return d_solid / d_total
