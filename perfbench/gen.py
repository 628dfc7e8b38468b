"""Input generation for the benchmark workloads.

Runs in its own process, apart from the process that is measured: it
writes every file the workload reads into ``--out`` together with an
``inputs.json`` that describes them, and nothing else crosses over.
The same ``--seed`` gives byte-identical files.

    python3 perfbench/gen.py --workload dicom-estimate --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from volumetrica import dicomlite  # noqa: E402
from volumetrica import io as vio  # noqa: E402
from volumetrica.grid import BinaryMask, Spacing, VoxelGrid  # noqa: E402
from volumetrica.nn.inference import mask_training_target, prepare_input  # noqa: E402
from volumetrica.nn.network import build_segmenter_2d, build_segmenter_3d, save_network  # noqa: E402
from volumetrica.nn.training import TrainConfig, train  # noqa: E402
from volumetrica.phantoms import PhantomSpec, make_phantom  # noqa: E402

KINDS = ("sphere", "ellipsoid", "lobulated")
NOISE = 0.05
# DICOM stored value = (intensity - intercept) / slope, so the decoded
# intensities match the phantom's (0 outside, 1 inside, plus noise)
RESCALE = (0.001, -1.024)

# Sizes per scale. "full" is what the benchmark measures; "tiny" only
# exercises every code path for the self-test.
SIZES = {
    "full": {
        "cohort": {"cases": 25, "train_epochs": 4, "cv_epochs": 3, "folds": 5},
        # (matrix, slices, slice thickness mm): 256^2 and 512^2, 24-80 slices.
        # An odd count of distinct sizes keeps the median case inside one
        # size class instead of on the boundary between two.
        "dicom": [(256, 24, 2.5), (256, 40, 1.5), (512, 24, 2.5), (256, 64, 1.0),
                  (512, 32, 2.0), (256, 80, 0.75), (512, 40, 1.5)],
        "dicom_fov_mm": (160.0, 200.0),
        "dicom_net": {"cases": 8, "epochs": 12},
        "slice2d": {"matrix": 1024, "slices": 3, "crops": 8, "crop": 128, "epochs": 25,
                    "axes_mm": (8.0, 20.0)},
    },
    "tiny": {
        "cohort": {"cases": 8, "train_epochs": 4, "cv_epochs": 20, "folds": 2},
        "dicom": [(64, 12, 2.5), (96, 16, 2.0)],
        "dicom_fov_mm": (40.0, 50.0),
        "dicom_net": {"cases": 2, "epochs": 2},
        "slice2d": {"matrix": 256, "slices": 2, "crops": 4, "crop": 128, "epochs": 20,
                    "axes_mm": (8.0, 20.0)},
    },
}


def _draw_shape(rng, kind: str, lo: float, hi: float) -> dict:
    if kind == "sphere":
        return {"shape": "sphere", "radius_mm": float(rng.uniform(lo, hi))}
    if kind == "ellipsoid":
        return {"shape": "ellipsoid", "semi_axes_mm": [float(v) for v in rng.uniform(lo, hi, 3)]}
    return {"shape": "lobulated", "semi_axes_mm": [float(v) for v in rng.uniform(lo + 0.5, hi - 1.0, 3)]}


def gen_cohort(rng, size: dict, out: Path) -> dict:
    """The acceptance-criterion-7 cohort spec: phantoms of 44^3."""
    entries = []
    for i in range(size["cases"]):
        entry = {"dims": [44, 44, 44], "spacing_mm": [1.0, 1.0, 1.0], "noise_sigma": NOISE}
        entry.update(_draw_shape(rng, KINDS[i % 3], 6.0, 12.0))
        entries.append(entry)
    (out / "cohort_spec.json").write_text(json.dumps({"cohort": entries}, indent=1))
    return {"spec": "cohort_spec.json", **size}


def _training_cases(rng, size: dict) -> list:
    cases = []
    for i in range(size["cases"]):
        d = _draw_shape(rng, KINDS[i % 3], 6.0, 12.0)
        spec = PhantomSpec.from_dict({**d, "noise_sigma": NOISE, "seed": int(rng.integers(1 << 30))})
        grid, mask, _ = make_phantom(spec, (44, 44, 44), Spacing(1.0, 1.0, 1.0))
        cases.append((prepare_input(grid), mask_training_target(mask)))
    return cases


def _embed(rng, spec: PhantomSpec, dims, spacing: Spacing) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Rasterize the phantom in a tight box and return (box mask, offset)
    so the full grid never has to be rasterized at once."""
    reach = max(spec.semi_axes) + sum(l.amplitude_mm for l in spec.lobes)
    sp = (spacing.sx, spacing.sy, spacing.sz)
    box = tuple(int(math.ceil(2.0 * reach / s)) + 4 for s in sp)
    _, mask, _ = make_phantom(spec, box, spacing)
    offset = tuple(int(rng.integers(0, n - b + 1)) for n, b in zip(dims, box))
    return mask.data, offset


def gen_dicom(rng, sizes: list, fov_mm, net_size: dict, out: Path) -> dict:
    """A pool of DICOM series with a mask and an analytic volume each,
    plus a 3-D net trained on 44^3 phantoms."""
    net = build_segmenter_3d(seed=int(rng.integers(1 << 30)))
    train(net, _training_cases(rng, net_size), TrainConfig(epochs=net_size["epochs"]))
    save_network(net, out / "net.vnet")

    series = []
    for i, (matrix, slices, thickness) in enumerate(sizes):
        # a 160-200 mm field of view at full scale, so that after the
        # 32^3 resample the nodule still spans a few voxels and the net
        # finds it
        pixel = float(rng.uniform(*fov_mm)) / matrix
        spacing = Spacing(pixel, pixel, thickness)
        dims = (matrix, matrix, slices)
        # largest semi-axis stays well inside the z extent
        hi = min(18.0, 0.3 * slices * thickness)
        d = _draw_shape(rng, KINDS[i % 3], 0.5 * hi, hi)
        spec = PhantomSpec.from_dict({**d, "seed": int(rng.integers(1 << 30))})
        box_mask, (ox, oy, oz) = _embed(rng, spec, dims, spacing)
        bz, by, bx = box_mask.shape
        full_mask = np.zeros((slices, matrix, matrix), dtype=bool)
        full_mask[oz:oz + bz, oy:oy + by, ox:ox + bx] = box_mask

        case_dir = out / f"series_{i:02d}"
        case_dir.mkdir()
        slope, intercept = RESCALE
        for z in range(slices):
            intensity = full_mask[z] + rng.normal(0.0, NOISE, size=(matrix, matrix))
            stored = np.rint((intensity - intercept) / slope)
            ds = dicomlite.make_slice_dataset(
                stored.astype(np.uint16), pixel_spacing=(pixel, pixel), slice_thickness=thickness,
                position_z=z * thickness, instance_number=z + 1, rescale=RESCALE,
            )
            (case_dir / f"slice_{z:03d}.dcm").write_bytes(dicomlite.write_file(ds))
        vio.write_volume(out / f"series_{i:02d}_mask.volv", BinaryMask(full_mask, spacing))
        series.append({
            "dir": case_dir.name,
            "mask": f"series_{i:02d}_mask.volv",
            "shape": spec.kind,
            "matrix": matrix,
            "slices": slices,
            "analytic_volume_mm3": spec.analytic_volume,
        })
    return {"model": "net.vnet", "series": series}


def _ellipse_slices(rng, shape, pixel: float, axes_mm) -> np.ndarray:
    """One filled ellipse per slice, drawn around a shared centre."""
    nz, n = shape[0], shape[1]
    yy, xx = np.meshgrid((np.arange(n) + 0.5) * pixel, (np.arange(n) + 0.5) * pixel, indexing="ij")
    cy, cx = rng.uniform(0.35, 0.65, 2) * n * pixel
    mask = np.zeros(shape, dtype=bool)
    for z in range(nz):
        a, b = rng.uniform(*axes_mm, 2)
        t = rng.uniform(0.0, math.pi)
        u = (xx - cx) * math.cos(t) + (yy - cy) * math.sin(t)
        v = -(xx - cx) * math.sin(t) + (yy - cy) * math.cos(t)
        mask[z] = (u / a) ** 2 + (v / b) ** 2 <= 1.0
    return mask


def gen_slice2d(rng, size: dict, out: Path) -> dict:
    """A few native-resolution slices and a 2-D net trained on crops."""
    pixel = 0.5
    crops = _ellipse_slices(rng, (size["crops"], size["crop"], size["crop"]), pixel,
                            size["axes_mm"])
    net = build_segmenter_2d(seed=int(rng.integers(1 << 30)))
    cases = []
    for m in crops:
        x = (m + rng.normal(0.0, NOISE, size=m.shape))[..., None]
        cases.append((x, m.astype(np.float64)[..., None]))
    train(net, cases, TrainConfig(epochs=size["epochs"], learning_rate=1e-2))
    save_network(net, out / "net2d.vnet")

    mask = _ellipse_slices(rng, (size["slices"], size["matrix"], size["matrix"]), pixel,
                           size["axes_mm"])
    spacing = Spacing(pixel, pixel, 2.0)
    grid = VoxelGrid(mask + rng.normal(0.0, NOISE, size=mask.shape), spacing)
    vio.write_volume(out / "slices.volv", grid)
    return {
        "model": "net2d.vnet",
        "grid": "slices.volv",
        "slices": size["slices"],
        "matrix": size["matrix"],
        "mask_volume_mm3": float(mask.sum() * spacing.voxel_volume_mm3),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("cohort", "dicom-estimate", "slice2d"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scale", choices=tuple(SIZES), default="full")
    args = p.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([args.seed, sum(map(ord, args.workload))])
    sizes = SIZES[args.scale]
    if args.workload == "cohort":
        inputs = gen_cohort(rng, sizes["cohort"], out)
    elif args.workload == "dicom-estimate":
        inputs = gen_dicom(rng, sizes["dicom"], sizes["dicom_fov_mm"], sizes["dicom_net"], out)
    else:
        inputs = gen_slice2d(rng, sizes["slice2d"], out)
    inputs.update(workload=args.workload, seed=args.seed)
    (out / "inputs.json").write_text(json.dumps(inputs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
