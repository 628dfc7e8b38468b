"""Volume-grid preparation and mask-to-volume conversion around the
segmentation network."""

from __future__ import annotations

from functools import partial

import numpy as np

from volumetrica.grid import BinaryMask, Spacing, Volume, VoxelGrid, cut_lines


# Bytes of float64 source planes that one band of output z slices may
# hold. A band is at least one slice; a grid of up to this size resizes
# in one band.
_BAND_BYTES = 4 << 20


def _axis_weights(n_src: int, n_tgt: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower source index and blend fraction of each target position."""
    if n_tgt == 1:
        pos = np.array([(n_src - 1) / 2.0])
    else:
        pos = np.arange(n_tgt) * ((n_src - 1) / (n_tgt - 1))
    i0 = np.clip(np.floor(pos).astype(int), 0, n_src - 2)
    return i0, pos - i0


def _lerp(a: np.ndarray, i0: np.ndarray, frac: np.ndarray, axis: int) -> np.ndarray:
    """``a`` at positions ``i0 + frac`` along ``axis``: float64 copies of
    the planes below and above, blended in place as ``lo * (1 - frac) +
    hi * frac``."""
    lo = np.take(a, i0, axis=axis).astype(np.float64, copy=False)
    hi = np.take(a, i0 + 1, axis=axis).astype(np.float64, copy=False)
    shape = [1] * a.ndim
    shape[axis] = frac.size
    frac = frac.reshape(shape)
    lo *= 1.0 - frac
    hi *= frac
    lo += hi
    return lo


def _lines(i0: np.ndarray, frac: np.ndarray):
    """The source lines a blend at ``i0 + frac`` reads (a slice when they
    run unbroken, else their sorted indices) and the blend remapped onto
    them."""
    lines = np.union1d(i0, i0 + 1)
    first, last = int(lines[0]), int(lines[-1])
    if last - first + 1 == lines.size:
        return slice(first, last + 1), (i0 - first, frac)
    # i0 and i0 + 1 are both kept, so i0 + 1 lands next to i0
    return lines, (np.searchsorted(lines, i0), frac)


def resize_volume(grid, target: tuple[int, int, int] = (32, 32, 32)) -> np.ndarray:
    """Trilinear resample onto the target lattice (align-corners).

    Accepts a volume (VoxelGrid or BinaryMask) or a raw (nz, ny, nx)
    array of real or bool values; returns a float64 array of the target
    shape with values inside the input range. The output is made in bands
    of z slices: each band cuts out only the source lines that its z, y
    and x passes blend and runs the passes in turn, the first casting to
    float64, so the memory beside the input and the output stays near
    ``_BAND_BYTES`` whatever the grid size. A volume's lines come from
    ``Volume.lines`` (a view where a pass reads every line; a DICOM
    series decodes only them), an array's from ``cut_lines``.
    """
    if isinstance(grid, Volume):
        shape, cut = grid.dims[::-1], grid.lines
    else:
        data = np.asarray(grid)
        if data.ndim != 3:
            raise ValueError("volume must be 3-D")
        shape, cut = data.shape, partial(cut_lines, data)
    if tuple(shape) == tuple(target):
        return cut((slice(None),) * 3).astype(np.float64, copy=True)
    weights = []
    for axis, (n_src, n_tgt) in enumerate(zip(shape, target)):
        if n_src < 2:
            raise ValueError(f"axis {axis} has extent {n_src}; need >= 2 to interpolate")
        if n_tgt < 1:
            raise ValueError("target extents must be >= 1")
        weights.append(None if n_src == n_tgt else _axis_weights(n_src, n_tgt))
    wz = weights[0]
    (ys, wy), (xs, wx) = (
        (slice(None), None) if w is None else _lines(*w) for w in weights[1:]
    )
    out = np.empty(tuple(target))
    plane = np.arange(shape[1])[ys].size * np.arange(shape[2])[xs].size
    # a band's source planes, then the z pass's two blended copies
    planes = 1 if wz is None else 4
    band = max(1, _BAND_BYTES // (planes * plane * 8))
    for k0 in range(0, out.shape[0], band):
        rows = slice(k0, k0 + band)
        zs, wb = (rows, None) if wz is None else _lines(wz[0][rows], wz[1][rows])
        slab = cut((zs, ys, xs))  # the first pass makes float64 copies
        for axis, w in ((0, wb), (1, wy), (2, wx)):
            if w is not None:
                slab = _lerp(slab, *w, axis)
        out[rows] = slab
    return out


def extract_tumor_mask(pred: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Binarize a prediction map; threshold must lie strictly in (0, 1)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    pred = np.asarray(pred)
    if pred.ndim >= 2 and pred.shape[-1] == 1:
        pred = pred[..., 0]
    return pred > threshold


def cnn_volume(pred_mask: np.ndarray, source_dims, spacing: Spacing) -> float:
    """Total volume of a predicted mask, rescaled to source geometry.

    The prediction lattice may be coarser than the source grid (the
    network downsamples); each predicted pixel then covers
    (nx/ox)*(ny/oy) source pixels per slice and each predicted slice
    spans (nz/oz) source slices.
    """
    mask = np.asarray(pred_mask, dtype=bool)
    if mask.ndim != 3:
        raise ValueError("predicted mask must be 3-D (z, y, x)")
    nx, ny, nz = source_dims
    oz, oy, ox = mask.shape
    pixel_area = (nx / ox) * (ny / oy) * spacing.sx * spacing.sy
    slice_areas = mask.sum(axis=(1, 2)) * pixel_area
    thickness = (nz / oz) * spacing.sz
    return float(slice_areas.sum() * thickness)


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """Overlap score 2|A&B| / (|A|+|B|); two empty masks count as 1."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError("masks must share a shape")
    denom = int(a.sum()) + int(b.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / denom


def prepare_input(grid: VoxelGrid, target: tuple[int, int, int] = (32, 32, 32)) -> np.ndarray:
    """Resize and append the channel axis expected by the 3-D network."""
    return resize_volume(grid, target)[..., None]


def mask_training_target(mask: BinaryMask, target: tuple[int, int, int] = (32, 32, 32)) -> np.ndarray:
    """Fractional-occupancy target: the mask resampled like the input."""
    return resize_volume(mask, target)[..., None]
