"""The four volume estimators behind one interface, plus the
cross-method discrepancy matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from volumetrica.errors import InputError
from volumetrica.geometry import SliceAreaSeries, max_equivalent_diameter, slice_areas
from volumetrica.grid import BinaryMask, Spacing, VoxelGrid
from volumetrica.nn.inference import cnn_volume, extract_tumor_mask, prepare_input
from volumetrica.nn.network import Network, predict
from volumetrica.numopt import FitResult, poly_integral, select_degree

METHODS = ("ml", "spherical", "area_based", "regression")

# numopt.select_degree fits every degree from the minimum to the cap and
# keeps a higher one only when it lowers the mse by more than 1e-12
# relative; nested fits have non-increasing mse, so it ends at the cap or
# at a lower degree whose higher fits gain only rounding (64 of 114
# phantom profiles). 8 matches the reference measurement workflow
REGRESSION_DEGREE_MIN = 2
REGRESSION_DEGREE_MAX = 8


def spherical_estimate(r: float) -> float:
    """V = 4/3 pi r^3."""
    if not r > 0:
        raise ValueError(f"radius must be > 0, got {r!r}")
    return 4.0 / 3.0 * math.pi * r**3


def area_based_estimate(series: SliceAreaSeries) -> float:
    """V = sum of slice area times thickness."""
    if len(series) == 0:
        raise ValueError("empty series")
    return float(series.areas.sum() * series.thickness)


def regression_estimate(series: SliceAreaSeries) -> tuple[float, FitResult]:
    """Best polynomial fit of degree REGRESSION_DEGREE_MIN to
    REGRESSION_DEGREE_MAX of the area profile, integrated over the span.

    A negative raw integral (possible with high-degree fits) is clamped
    to zero; the flag travels on the returned fit's condition_flag.
    """
    if len(series) < 3:
        raise ValueError(f"regression needs >= 3 samples, got {len(series)}")
    fit = select_degree(
        (series.positions, series.areas), REGRESSION_DEGREE_MIN, REGRESSION_DEGREE_MAX
    )
    lo, hi = series.span
    volume = poly_integral(fit.polynomial, lo, hi)
    if volume < 0.0:
        fit = FitResult(fit.polynomial, fit.mse, True)
        volume = 0.0
    return volume, fit


def ml_volume(x: np.ndarray, dims, spacing: Spacing, network: Network,
              threshold: float = 0.5) -> tuple[float, np.ndarray]:
    """The mm^3 of a case and the mask predicted for it, from its 3-D
    network input ``x`` (``prepare_input`` of its grid) and the grid's
    ``dims`` and ``spacing``."""
    mask = extract_tumor_mask(predict(network, x), threshold)
    return cnn_volume(mask, dims, spacing), mask


def ml_estimate(grid: VoxelGrid, network: Network, threshold: float = 0.5) -> float:
    """Predict a segmentation mask and convert it to mm^3 (3-D path)."""
    if network.rank != 3:
        raise ValueError("ml_estimate needs a 3-D network; use ml_estimate_slicewise for 2-D")
    x = prepare_input(grid, network.input_shape[:-1])
    return ml_volume(x, grid.dims, grid.spacing, network, threshold)[0]


def ml_estimate_slicewise(grid: VoxelGrid, network: Network, threshold: float = 0.5) -> float:
    """2-D inference path: segment every axial slice at native
    resolution, then sum the rescaled slice areas. Slices come from
    ``grid.planes()``, so a DICOM series is never decoded whole."""
    if network.rank != 2:
        raise ValueError("slicewise estimation needs a 2-D network")
    masks = [extract_tumor_mask(predict(network, sl[..., None]), threshold)
             for sl in grid.planes()]
    return cnn_volume(np.stack(masks), grid.dims, grid.spacing)


@dataclass(frozen=True)
class EstimateCase:
    """One unit of estimation work: a grid plus its segmentation mask."""

    case_id: str
    grid: VoxelGrid
    mask: BinaryMask
    analytic_volume: float | None = None

    def __post_init__(self):
        # spacing is not compared: DICOM stores it rounded to 6 decimals,
        # so a grid ingested from DICOM and its mask differ in the last digits
        if not isinstance(self.grid, VoxelGrid) or not isinstance(self.mask, BinaryMask):
            raise InputError(
                f"case {self.case_id}: needs a grid and a mask container, got "
                f"{type(self.grid).__name__} and {type(self.mask).__name__}"
            )
        if self.mask.dims != self.grid.dims:
            raise InputError(
                f"case {self.case_id}: mask dims {self.mask.dims} differ from grid dims "
                f"{self.grid.dims}"
            )


@dataclass
class EstimateReport:
    case_id: str
    volumes: dict[str, float] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        methods = {}
        for m in METHODS:
            if m in self.volumes:
                methods[m] = {"volume_mm3": self.volumes[m]}
            elif m in self.errors:
                methods[m] = {"error": self.errors[m]}
        return {"case_id": self.case_id, "methods": methods, "metadata": self.metadata}


def estimate_series(
    series: SliceAreaSeries,
    methods=METHODS,
    grid: VoxelGrid | None = None,
    network: Network | None = None,
    threshold: float = 0.5,
    manual_radius: float | None = None,
    case_id: str = "series",
) -> EstimateReport:
    """Run the selected estimators on one slice-area series; failures
    are recorded as error markers, never as zero volumes.

    Only ``ml`` reads the voxel ``grid``; without one it records an
    error. ``manual_radius`` overrides the equivalent radius of the
    largest slice for the spherical method (the caliper-measurement
    workflow).
    """
    report = EstimateReport(case_id=case_id, metadata={"slice_count": len(series)})
    for method in methods:
        try:
            if method == "ml":
                if grid is None:
                    raise ValueError("ml needs voxel input, not an area series")
                if network is None:
                    raise ValueError("no trained network supplied")
                value = ml_estimate(grid, network, threshold)
            elif method == "spherical":
                r = manual_radius if manual_radius is not None else max_equivalent_diameter(series) / 2.0
                report.metadata["spherical_radius_mm"] = r
                report.metadata["spherical_radius_source"] = (
                    "manual" if manual_radius is not None else "max-slice-area"
                )
                value = spherical_estimate(r)
            elif method == "area_based":
                value = area_based_estimate(series)
            elif method == "regression":
                value, fit = regression_estimate(series)
                report.metadata["regression_fit"] = fit.to_dict()
            else:
                raise ValueError(f"unknown method {method!r}")
            report.volumes[method] = float(value)
        except Exception as exc:
            report.errors[method] = f"{type(exc).__name__}: {exc}"
    return report


def estimate_all(
    case: EstimateCase,
    network: Network | None = None,
    threshold: float = 0.5,
    methods=METHODS,
    manual_radius: float | None = None,
    areas: SliceAreaSeries | None = None,
) -> EstimateReport:
    """``estimate_series`` over the mask's slice areas, with the case
    geometry added to the report metadata. ``areas`` is
    ``slice_areas(case.mask)`` when the caller has counted it already."""
    report = estimate_series(
        slice_areas(case.mask) if areas is None else areas, methods, grid=case.grid,
        network=network, threshold=threshold, manual_radius=manual_radius, case_id=case.case_id,
    )
    report.metadata.update(
        spacing_mm=list(case.mask.spacing.as_tuple()),
        dims=list(case.mask.dims),
        threshold=threshold,
        regression_degrees=[REGRESSION_DEGREE_MIN, REGRESSION_DEGREE_MAX],
    )
    if case.analytic_volume is not None:
        report.metadata["analytic_volume_mm3"] = case.analytic_volume
    return report


@dataclass(frozen=True)
class DiscrepancyMatrix:
    """Mean pairwise relative discrepancies (%), methods in METHODS order.

    Diagonal entries are NaN (undefined); a NaN off-diagonal entry means
    the pair had no case where both methods produced a volume.
    """

    methods: tuple[str, ...]
    values: np.ndarray
    case_count: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (len(self.methods), len(self.methods)):
            raise ValueError("matrix shape must match method count")
        v = v.view()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def entry(self, method_a: str, method_b: str) -> float:
        i, j = self.methods.index(method_a), self.methods.index(method_b)
        return float(self.values[i, j])

    def to_dict(self) -> dict:
        return {
            "methods": list(self.methods),
            "values": [
                [None if math.isnan(v) else float(v) for v in row] for row in self.values
            ],
            "case_count": self.case_count,
        }


def pairwise_discrepancy(v_i: float, v_j: float) -> float:
    """Symmetric mean-relative difference in percent."""
    denom = 0.5 * (v_i + v_j)
    if denom == 0.0:
        return 0.0 if v_i == v_j else math.inf
    return abs(v_i - v_j) / denom * 100.0


def discrepancy(reports: list[EstimateReport], methods=METHODS) -> DiscrepancyMatrix:
    """Mean pairwise discrepancy over cases; a case joins a pair only
    when both methods produced a volume there."""
    if not reports:
        raise ValueError("need at least one report")
    k = len(methods)
    values = np.full((k, k), np.nan)
    for i in range(k):
        for j in range(i + 1, k):
            samples = [
                pairwise_discrepancy(r.volumes[methods[i]], r.volumes[methods[j]])
                for r in reports
                if methods[i] in r.volumes and methods[j] in r.volumes
            ]
            if samples:
                values[i, j] = values[j, i] = float(np.mean(samples))
    return DiscrepancyMatrix(tuple(methods), values, len(reports))
