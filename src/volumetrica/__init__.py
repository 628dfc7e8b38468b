"""Volume estimation for compact 3D objects in voxel grids.

Four estimators (spherical approximation, slice-area summation,
polynomial-regression integration, and a small convolutional
segmentation network) behind one interface, plus the statistical
machinery to compare them on synthetic phantom cohorts.
"""

__version__ = "0.1.0"

from volumetrica.grid import BinaryMask, Spacing, VoxelGrid
from volumetrica.geometry import (
    SliceAreaSeries,
    ctr,
    max_equivalent_diameter,
    slice_areas,
    voxel_volume,
)
from volumetrica.phantoms import PhantomSpec, make_phantom

__all__ = [
    "BinaryMask",
    "PhantomSpec",
    "SliceAreaSeries",
    "Spacing",
    "VoxelGrid",
    "ctr",
    "make_phantom",
    "max_equivalent_diameter",
    "slice_areas",
    "voxel_volume",
]
