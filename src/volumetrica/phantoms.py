"""Synthetic phantoms with analytically known volumes.

Stand-ins for clinical data: spheres and ellipsoids carry closed-form
volumes; lobulated shapes (ellipsoid plus low-order sinusoidal radial
perturbations) get an oracle volume from high-order spherical
quadrature of the star-shaped boundary.

Voxel (i, j, k) has its center at ((i+0.5)*sx, (j+0.5)*sy, (k+0.5)*sz);
a voxel belongs to the mask iff its center lies inside the shape.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from volumetrica.errors import InputError
from volumetrica.grid import BinaryMask, Spacing, VoxelGrid

_KINDS = ("sphere", "ellipsoid", "lobulated")
_MAX_LOBES = 8
_MAX_LOBE_AMPLITUDE = 0.2
# intensities are 0 or 1; a larger sigma is noise, not a phantom, and
# 1e308 would overflow the grid to inf
_MAX_NOISE_SIGMA = 1e3
# voxels a phantom grid may hold (256^3, or 512^2 x 64): rasterizing
# holds several float64 arrays of the grid's size at once
_MAX_VOXELS = 1 << 24
# Gauss-Legendre nodes in cos(theta) and uniform nodes in phi of the
# oracle quadrature for lobulated volumes
_QUAD_POLAR = 128
_QUAD_AZIM = 256


class ShapeOutOfBoundsError(InputError):
    """Shape does not fit inside the grid with a one-voxel margin."""


@dataclass(frozen=True)
class Lobe:
    """One sinusoidal radial perturbation term of a lobulated phantom."""

    amplitude_mm: float
    polar_freq: int
    azim_freq: int
    phase: float


@dataclass(frozen=True)
class PhantomSpec:
    """Declarative phantom description.

    ``center`` is in mm; ``None`` places the shape at the grid center
    when rasterized. For lobulated shapes the perturbation terms are
    drawn deterministically from ``seed`` with total amplitude
    ``lobe_amplitude`` (a fraction <= 0.2 of the smallest semi-axis).
    """

    kind: str
    radius: float | None = None
    semi_axes: tuple[float, float, float] | None = None
    center: tuple[float, float, float] | None = None
    noise_sigma: float = 0.0
    seed: int = 0
    lobe_count: int = 4
    lobe_amplitude: float = 0.15
    lobes: tuple[Lobe, ...] = field(init=False, default=())
    analytic_volume: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown phantom kind {self.kind!r}")
        if self.kind == "sphere":
            if self.radius is None or not self.radius > 0:
                raise ValueError("sphere needs a positive radius")
            object.__setattr__(self, "semi_axes", (self.radius,) * 3)
        else:
            if self.semi_axes is None or len(self.semi_axes) != 3:
                raise ValueError(f"{self.kind} needs three semi-axes")
            if not all(s > 0 for s in self.semi_axes):
                raise ValueError("semi-axes must be positive")
            object.__setattr__(self, "semi_axes", tuple(float(s) for s in self.semi_axes))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.noise_sigma <= _MAX_NOISE_SIGMA:
            raise ValueError(
                f"noise sigma must be in [0, {_MAX_NOISE_SIGMA:g}], got {self.noise_sigma!r}"
            )
        if self.center is not None and (
            len(self.center) != 3 or not all(math.isfinite(c) for c in self.center)
        ):
            raise ValueError(f"center must be three finite numbers, got {self.center!r}")
        if self.kind == "lobulated":
            if not 1 <= self.lobe_count <= _MAX_LOBES:
                raise ValueError(f"lobe count must be in [1, {_MAX_LOBES}]")
            if not 0 < self.lobe_amplitude <= _MAX_LOBE_AMPLITUDE:
                raise ValueError(f"lobe amplitude must be in (0, {_MAX_LOBE_AMPLITUDE}]")
            object.__setattr__(self, "lobes", _draw_lobes(self))
        object.__setattr__(self, "analytic_volume", _analytic_volume(self))

    @classmethod
    def from_dict(cls, d: dict) -> "PhantomSpec":
        kind = d.get("shape")
        kwargs = {"kind": kind}
        if "radius_mm" in d:
            kwargs["radius"] = _number(d["radius_mm"], "radius_mm")
        if "semi_axes_mm" in d:
            kwargs["semi_axes"] = tuple(_number(v, "semi_axes_mm") for v in d["semi_axes_mm"])
        if d.get("center_mm") is not None:
            kwargs["center"] = tuple(_number(v, "center_mm") for v in d["center_mm"])
        for key in ("noise_sigma", "lobe_amplitude"):
            if key in d:
                kwargs[key] = _number(d[key], key)
        for key in ("seed", "lobe_count"):
            if key in d:
                kwargs[key] = _integer(d[key], key)
        return cls(**kwargs)


def _integer(value, name: str) -> int:
    """``int(value)`` of a spec value that holds an integer; a bool or a
    number with a fractional part raises rather than truncates."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(value, name: str) -> float:
    """``float(value)`` of a spec value that holds a number; a bool or a
    string raises rather than converts."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _draw_lobes(spec: PhantomSpec) -> tuple[Lobe, ...]:
    rng = np.random.default_rng(spec.seed)
    raw = rng.uniform(0.3, 1.0, size=spec.lobe_count)
    total = spec.lobe_amplitude * min(spec.semi_axes)
    amps = raw / raw.sum() * total
    lobes = []
    for a in amps:
        lobes.append(
            Lobe(
                amplitude_mm=float(a),
                polar_freq=int(rng.integers(2, 7)),
                azim_freq=int(rng.integers(0, 6)),
                phase=float(rng.uniform(0.0, 2.0 * math.pi)),
            )
        )
    return tuple(lobes)


def _boundary_radius(spec: PhantomSpec, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Boundary distance from the center along (theta, phi), in mm."""
    a, b, c = spec.semi_axes
    st, ct = np.sin(theta), np.cos(theta)
    ux = st * np.cos(phi)
    uy = st * np.sin(phi)
    uz = ct
    r_e = 1.0 / np.sqrt((ux / a) ** 2 + (uy / b) ** 2 + (uz / c) ** 2)
    if spec.kind != "lobulated":
        return r_e
    pert = np.zeros_like(r_e)
    for lobe in spec.lobes:
        if lobe.azim_freq == 0:
            pert += lobe.amplitude_mm * np.cos(lobe.polar_freq * theta + lobe.phase)
        else:
            # sin(n*theta) vanishes at both poles, keeping the boundary
            # single-valued where phi is undefined
            pert += lobe.amplitude_mm * np.sin(lobe.polar_freq * theta) * np.cos(
                lobe.azim_freq * phi + lobe.phase
            )
    return r_e + pert


def _analytic_volume(spec: PhantomSpec) -> float:
    a, b, c = spec.semi_axes
    if spec.kind in ("sphere", "ellipsoid"):
        return 4.0 / 3.0 * math.pi * a * b * c
    return _quadrature_volume(spec)


def _quadrature_volume(spec: PhantomSpec) -> float:
    """Oracle volume of a star-shaped boundary: (1/3) * integral of R^3 dOmega.

    Gauss-Legendre in cos(theta), uniform (spectrally accurate) in phi.
    """
    t, w = np.polynomial.legendre.leggauss(_QUAD_POLAR)
    theta = np.arccos(t)
    phi = np.arange(_QUAD_AZIM) * (2.0 * math.pi / _QUAD_AZIM)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    r3 = _boundary_radius(spec, th, ph) ** 3
    inner = r3.sum(axis=1) * (2.0 * math.pi / _QUAD_AZIM)
    return float((inner * w).sum() / 3.0)


def _placed_center(
    spec: PhantomSpec, dims: tuple[int, int, int], spacing: Spacing
) -> tuple[float, float, float]:
    """The shape center in mm; raises ShapeOutOfBoundsError unless the
    shape fits inside the grid with a one-voxel margin."""
    nx, ny, nz = dims
    reach = max(spec.semi_axes) + sum(l.amplitude_mm for l in spec.lobes)
    if spec.center is None:
        center = (nx * spacing.sx / 2.0, ny * spacing.sy / 2.0, nz * spacing.sz / 2.0)
    else:
        center = spec.center
    lo = (center[0] - reach, center[1] - reach, center[2] - reach)
    hi = (center[0] + reach, center[1] + reach, center[2] + reach)
    bounds = (nx * spacing.sx, ny * spacing.sy, nz * spacing.sz)
    margins = (spacing.sx, spacing.sy, spacing.sz)
    for ax in range(3):
        if lo[ax] < margins[ax] or hi[ax] > bounds[ax] - margins[ax]:
            raise ShapeOutOfBoundsError(
                f"shape reach [{lo[ax]:.2f}, {hi[ax]:.2f}] mm exceeds axis {ax} "
                f"extent {bounds[ax]:.2f} mm with one-voxel margin"
            )
    return center


def make_phantom(
    spec: PhantomSpec, dims: tuple[int, int, int], spacing: Spacing
) -> tuple[VoxelGrid, BinaryMask, float]:
    """Rasterize a phantom into a grid.

    Returns the intensity grid (1.0 inside, 0.0 outside, plus optional
    Gaussian noise), the boolean mask, and the analytic volume in mm^3.
    """
    nx, ny, nz = dims
    a, b, c = spec.semi_axes
    center = _placed_center(spec, dims, spacing)

    xs = (np.arange(nx) + 0.5) * spacing.sx - center[0]
    ys = (np.arange(ny) + 0.5) * spacing.sy - center[1]
    zs = (np.arange(nz) + 0.5) * spacing.sz - center[2]
    Z, Y, X = np.meshgrid(zs, ys, xs, indexing="ij")

    if spec.kind == "lobulated":
        rho = np.sqrt(X**2 + Y**2 + Z**2)
        theta = np.arccos(np.clip(np.divide(Z, rho, out=np.zeros_like(Z), where=rho > 0), -1, 1))
        phi = np.arctan2(Y, X)
        inside = rho <= _boundary_radius(spec, theta, phi)
    else:
        inside = (X / a) ** 2 + (Y / b) ** 2 + (Z / c) ** 2 <= 1.0

    mask = BinaryMask(inside, spacing)
    intensity = inside.astype(np.float64)
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        intensity = intensity + rng.normal(0.0, spec.noise_sigma, size=intensity.shape)
    grid = VoxelGrid(intensity, spacing)
    return grid, mask, spec.analytic_volume


def load_phantom_config(d: dict) -> tuple[PhantomSpec, tuple[int, int, int], Spacing]:
    """Parse the documented key-value schema into rasterization inputs.

    Required keys: shape, dims, spacing_mm, and radius_mm or
    semi_axes_mm. Optional: center_mm, noise_sigma, seed, lobe_count,
    lobe_amplitude. ``dims`` may hold at most ``_MAX_VOXELS`` voxels.
    A missing, mistyped or out-of-range value raises
    InputError, and a shape that does not fit its grid
    ShapeOutOfBoundsError.
    """
    try:
        if not isinstance(d, dict):
            raise TypeError(f"expected an object, got {d!r}")
        dims = tuple(_integer(v, "dims") for v in d["dims"])
        if len(dims) != 3 or any(n <= 0 for n in dims):
            raise ValueError(f"dims must be three positive integers, got {dims}")
        if math.prod(dims) > _MAX_VOXELS:
            raise ValueError(f"dims {list(dims)} hold {math.prod(dims)} voxels, more than "
                             f"the {_MAX_VOXELS} a phantom may have")
        sp = d["spacing_mm"]
        spacing = Spacing(*(_number(sp[i], "spacing_mm") for i in range(3)))
        spec = PhantomSpec.from_dict(d)
    except KeyError as exc:
        raise InputError(f"invalid phantom config: missing key {exc}") from exc
    except (TypeError, IndexError, ValueError, OverflowError) as exc:
        raise InputError(f"invalid phantom config: {exc}") from exc
    _placed_center(spec, dims, spacing)
    return spec, dims, spacing
