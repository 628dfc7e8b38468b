"""Command-line orchestration.

Commands: phantom, parse, ingest, estimate, train, eval, compare,
stats. Exit codes: 0 success; 1 the tool failed on well-formed input;
2 the command line, or a file it names, is missing, unreadable or
malformed. Readers raise ``InputError`` and ``main`` alone turns an
exception into an exit code. Every report embeds the tool version, the
seed, a config hash, and input checksums; reports carry no timestamps
so a fixed seed reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import logging
import os
import struct
import sys
import threading
from collections.abc import Callable
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from volumetrica import __version__, dicomlite
from volumetrica import io as vio
from volumetrica.errors import InputError
from volumetrica.estimators import (
    METHODS,
    EstimateCase,
    EstimateReport,
    discrepancy,
    estimate_all,
    estimate_series,
    ml_volume,
)
from volumetrica.geometry import slice_areas
from volumetrica.grid import BinaryMask, Volume, VoxelGrid
from volumetrica.nn.inference import (
    dice,
    extract_tumor_mask,
    mask_training_target,
    prepare_input,
)
from volumetrica.nn.network import build_segmenter_3d, load_network, save_network
from volumetrica.nn.training import (
    TrainConfig,
    TrainingDivergedError,
    fit_target_to_output,
    train,
    train_steps,
    training_case,
)
from volumetrica.phantoms import load_phantom_config, make_phantom
from volumetrica.stats.report import build_stats_report
from volumetrica.stats.resample import cv_volume_error, kfold
from volumetrica.workers import run_in_order, spare_workers

EXIT_OK, EXIT_RUNTIME, EXIT_USAGE = 0, 1, 2

# the dtype of the networks that train and stats build and train; the
# other commands predict in the dtype of the model they load
TRAIN_DTYPE = np.float32

# what a command decided on its own (skipped files, defaulted geometry,
# an intensity-thresholded mask); never part of a report
logger = logging.getLogger(__name__)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------- phantom

def cmd_phantom(args) -> int:
    spec_doc = vio.read_json(args.spec)
    entries = spec_doc["cohort"] if isinstance(spec_doc, dict) and "cohort" in spec_doc else [spec_doc]
    # a manifest with no cases is one every cohort command refuses
    if not isinstance(entries, list) or not entries:
        raise InputError(f"{args.spec}: 'cohort' must be a non-empty list of phantom configs")
    # every entry is validated before the first file is written
    configs = [_phantom_config(entry, args.seed + i, i, args.spec)
               for i, entry in enumerate(entries)]
    case_ids = _case_ids(entries, args.spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def write_case(i):
        (spec, dims, spacing), case_id = configs[i], case_ids[i]
        grid, mask, volume = make_phantom(spec, dims, spacing)
        grid_path = out / f"{case_id}_grid.volv"
        mask_path = out / f"{case_id}_mask.volv"
        vio.write_volume(grid_path, grid)
        vio.write_volume(mask_path, mask)
        return {
            "id": case_id,
            "grid": grid_path.name,
            "mask": mask_path.name,
            "analytic_volume_mm3": volume,
            "shape": spec.kind,
            "seed": spec.seed,
        }

    cases = run_in_order(write_case, len(configs), spare_workers(len(configs)), "phantom")
    payload = {"cases": cases}
    envelope = vio.report_envelope(
        "phantom_manifest", payload, args.seed, {"spec": entries}, vio.input_checksums([args.spec])
    )
    vio.dump_json(out / "manifest.json", envelope)
    print(f"wrote {len(cases)} phantom(s) to {out}")
    return EXIT_OK


def _phantom_config(entry, seed: int, index: int, spec_path):
    """``load_phantom_config`` of one spec entry, seeded with ``seed``
    unless it names its own; an invalid entry's error names the entry."""
    try:
        return load_phantom_config({"seed": seed, **entry} if isinstance(entry, dict) else entry)
    except InputError as exc:
        raise InputError(f"{spec_path}: case {index}: {exc}") from exc


def _case_ids(entries: list[dict], spec_path) -> list[str]:
    """Each entry's ``id`` (default ``case_000``, ``case_001``, ...).
    The ids must be distinct names that stay inside the output
    directory, so that no case's files overwrite another's or land
    beside ``--out``."""
    ids = [entry.get("id", f"case_{i:03d}") for i, entry in enumerate(entries)]
    for i, case_id in enumerate(ids):
        if (not isinstance(case_id, str) or case_id in ("", ".", "..")
                or any(c in case_id for c in "/\\\0")):
            raise InputError(f"{spec_path}: case {i}: id {case_id!r} must be a non-empty "
                             "file-name stem without '/', '\\' or NUL, and not '.' or '..'")
        first = ids.index(case_id)
        if first < i:
            raise InputError(f"{spec_path}: case {i}: id {case_id!r} repeats the id of case {first}")
    return ids


def _cohort(manifest_path) -> list[dict]:
    """The validated case entries of a manifest; ``_read_case`` reads one."""
    base = Path(manifest_path).parent
    return [dict(entry, grid=base / entry["grid"], mask=base / entry["mask"])
            for entry in vio.read_cohort_manifest(manifest_path)["cases"]]


def _read_case(entry: dict) -> EstimateCase:
    return EstimateCase(entry["id"], vio.read_volume(entry["grid"]),
                        vio.read_volume(entry["mask"]), float(entry["analytic_volume_mm3"]))


# ------------------------------------------------------------- parse/ingest

def cmd_parse(args) -> int:
    ds = dicomlite.parse_file(Path(args.input).read_bytes())
    elements = []
    for el in ds.sorted_elements():
        item = {
            "tag": f"{el.tag[0]:04X},{el.tag[1]:04X}",
            "vr": el.vr,
            "length": len(el.value),
        }
        if el.vr in ("IS", "DS", "CS", "UI", "LO"):
            item["value"] = ds.text(el.tag)
        elif el.vr == "US" and len(el.value) >= 2:
            item["value"] = ds.ushort(el.tag)
        elif el.vr == "UL" and len(el.value) >= 4:
            item["value"] = struct.unpack("<I", el.value[:4])[0]
        elements.append(item)
    payload = {
        "transfer_syntax": ds.transfer_syntax,
        "conformant": ds.conformant,
        "element_count": len(elements),
        "elements": elements,
    }
    envelope = vio.report_envelope("dicom_parse", payload, args.seed, {"input": str(args.input)},
                                   vio.input_checksums([args.input]))
    _write_report(args.out, envelope)
    return EXIT_OK


def cmd_ingest(args) -> int:
    src = Path(args.input)
    # one listing serves the read and the checksums
    files = vio.directory_files(src)
    grid, geometry, skipped = dicomlite.read_directory(src, files)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vio.write_volume(out / "grid.volv", grid)
    payload = {
        "rows": geometry.rows,
        "cols": geometry.cols,
        "pixel_spacing_mm": list(geometry.pixel_spacing),
        "slice_thickness_mm": geometry.slice_thickness,
        "slice_count": len(geometry.slice_order),
        "slice_order": [[int(i), float(k)] for i, k in geometry.slice_order],
        "uniform_z": geometry.uniform_z,
        "warnings": list(geometry.warnings) + skipped,
    }
    envelope = vio.report_envelope("ingest", payload, args.seed, {"input": str(src)},
                                   {str(p): vio.sha256_file(p) for p, _ in files})
    vio.dump_json(out / "geometry.json", envelope)
    print(f"ingested {len(geometry.slice_order)} slice(s) into {out}")
    return EXIT_OK


# ---------------------------------------------------------------- estimate

def _methods(arg: str | None, network) -> tuple[str, ...]:
    """The ``--methods`` list; ``None`` and "all" mean every method the
    inputs can drive (ml needs a model)."""
    if arg in (None, "all"):
        return tuple(m for m in METHODS if network is not None or m != "ml")
    methods = tuple(m.strip() for m in arg.split(",") if m.strip())
    if not methods or not set(methods) <= set(METHODS):
        raise InputError(f"--methods {arg!r}: choose one or more of {', '.join(METHODS)}")
    return methods


def cmd_estimate(args) -> int:
    """One case through one ordered queue (``run_in_order``): task 0, on
    the calling thread, reads ``--input`` and runs ``estimate_all`` on
    it; task 1 reads the mask and counts its slice areas, which task 0
    takes; each further task hashes one input file, largest first.
    The input, the mask and its slice areas are each made once, by
    whichever task asks first.
    A slice-area CSV has no grid, so its whole estimate is task 0. A
    failure decides the exit code and the message in task order, so the
    input's error comes before the mask's, the mask's before a
    disagreement of the two, and any of them before a hash's. ``--input``
    is listed once: a DICOM directory is read from the listing that is
    hashed. Of a manifest directory only what is read is hashed: the
    manifest, the case grid and, without ``--mask``, the case mask."""
    src = Path(args.input)
    csv = src.suffix.lower() == ".csv"
    if csv and args.mask:
        return _fail(EXIT_USAGE, "--mask applies to grid inputs, not to a slice-area CSV")
    network = load_network(args.model, rank=3) if args.model else None
    methods = _methods(args.methods, network)
    if csv:
        listing, parts = vio.input_files([src]), [lambda: _estimate_csv(src, methods, args)]
    else:
        listing, read = _input(src, own_mask=not args.mask)
        parts = _estimate_parts(read, args, network, methods)
    # a CSV output carries no checksums, so nothing is hashed for it
    hashed = [] if args.format == "csv" else sorted(
        listing + vio.input_files([p for p in (args.mask, args.model) if p]),
        key=lambda file: -file[1])
    tasks = parts + [lambda path=path: (str(path), vio.sha256_file(path)) for path, _ in hashed]
    results = run_in_order(lambda i: tasks[i](), len(tasks), spare_workers(len(tasks)),
                           "estimate")
    report = results[0]
    if args.format == "csv":
        rows = [(m, report.volumes.get(m, ""), report.errors.get(m, "")) for m in methods]
        vio.write_csv(args.out, ("method", "volume_mm3", "error"), rows)
    else:
        config = {
            "input": str(src),
            "methods": list(methods),
            "threshold": args.threshold,
            "radius": args.radius,
            "mask": str(args.mask) if args.mask else None,
            "model": str(args.model) if args.model else None,
        }
        envelope = vio.report_envelope("estimate", report.to_dict(), args.seed, config,
                                       dict(results[len(parts):]))
        _write_report(args.out, envelope)
    if not report.volumes:
        return _fail(EXIT_RUNTIME,
                     "all methods failed: " + "; ".join(report.errors[m] for m in methods))
    return EXIT_OK


def _estimate_csv(src: Path, methods, args) -> EstimateReport:
    series = vio.read_series_csv(src)
    report = estimate_series(series, methods, manual_radius=args.radius)
    report.metadata.update(thickness_mm=series.thickness, source="slice-area series")
    return report


class _Shared:
    """The value of ``make()``, made once by the first thread that asks for
    it, under a lock; later askers wait for it and get the same value, or
    the same exception. No task waits on a task that has not started, so
    the queue cannot deadlock, even on one worker."""

    def __init__(self, make):
        self._make, self._lock, self._result = make, threading.Lock(), None

    def get(self):
        with self._lock:
            if self._result is None:
                try:
                    self._result = (self._make(), None)
                except Exception as exc:
                    self._result = (None, exc)
        value, error = self._result
        if error is not None:
            raise error
        return value


def _estimate_parts(read_input, args, network, methods) -> list:
    """Tasks 0 and 1 of ``cmd_estimate`` on a grid input (see there):
    ``estimate_all`` of the case, and the mask's slice areas, which it
    takes; ``read_input`` is the reader ``_input`` returns. The mask is
    ``--mask`` when given, for every input kind, so it loads beside the
    input; else the input's own mask, read only then; else ``_mask_for``
    of its grid."""
    read = _Shared(read_input)

    def read_mask():
        if args.mask:
            return vio.read_volume(args.mask)
        _, grid, own_mask, _ = read.get()
        return own_mask() if own_mask is not None else _mask_for(grid, args)

    mask = _Shared(read_mask)
    areas = _Shared(lambda: slice_areas(mask.get()))

    def estimate():
        case_id, grid, _, analytic = read.get()
        return estimate_all(EstimateCase(case_id, grid, mask.get(), analytic), network,
                            args.threshold, methods, args.radius, areas.get())

    return [estimate, areas.get]


def _input(src: Path, own_mask: bool) -> tuple[list[tuple[Path, int]], Callable[[], tuple]]:
    """The files of ``--input`` that an estimate reads, with their sizes
    (``io.input_files``), and the reader of the input. The reader returns
    the case id, grid, reader of its own mask (or ``None``) and analytic
    volume (or ``None``) of what ``--input`` holds: the one case of a
    manifest directory, the grid of a DICOM directory (read from the
    listing made here), a grid VOLV, or a mask VOLV, which is its own
    grid. A manifest is read here; its case's mask file is listed only
    when ``own_mask``, and read only when its reader is called."""
    if src.is_dir():
        manifest = src / "manifest.json"
        if manifest.exists():
            cases = _cohort(manifest)
            if len(cases) != 1:
                raise InputError(f"{manifest} lists {len(cases)} cases; use `compare` for cohorts")
            entry = cases[0]
            files = [manifest, entry["grid"], *([entry["mask"]] if own_mask else [])]
            return vio.input_files(files), lambda: (
                entry["id"], vio.read_volume(entry["grid"]),
                partial(vio.read_volume, entry["mask"]), float(entry["analytic_volume_mm3"]))
        # a directory of DICOM slices
        listing = vio.directory_files(src)

        def read_series():
            grid, geometry, skipped = dicomlite.read_directory(src, listing)
            for message in [*geometry.warnings, *(f"skipped {entry}" for entry in skipped)]:
                logger.warning("%s: %s", src, message)
            return src.name, grid, None, None

        return listing, read_series
    if src.suffix.lower() == ".volv":
        def read_volv():
            volume = vio.read_volume(src)
            if isinstance(volume, BinaryMask):
                grid = VoxelGrid(volume.data.astype(np.float64), volume.spacing)
                return src.stem, grid, lambda: volume, None
            return src.stem, volume, None, None

        return vio.input_files([src]), read_volv
    raise InputError(f"cannot interpret input {src}")


class _Thresholded(BinaryMask):
    """The mask of the voxels of a grid (``_planes``) whose value exceeds
    0.5, made one plane at a time from the grid's planes (``Volume``), so
    a DICOM series is never decoded whole, nor the mask held whole. Each
    ``planes()`` decodes the grid's planes again; ``estimate`` calls it
    once, in ``slice_areas``."""

    __init__ = Volume.__init__

    def _read(self, grid, outs):
        return map(np.greater, grid.planes(), repeat(0.5), outs)


def _mask_for(grid: VoxelGrid, args) -> BinaryMask:
    # no segmentation supplied: binarize the intensities
    logger.warning("%s: no --mask given; the mask is every voxel whose raw intensity "
                   "exceeds 0.5", args.input)
    return _Thresholded(grid.dims[::-1], grid.spacing, grid)


# ------------------------------------------------------------- train/eval

def cmd_train(args) -> int:
    entries = _cohort(args.cohort)
    net = build_segmenter_3d(seed=args.seed, dtype=TRAIN_DTYPE)
    training_cases, extents = zip(*_each_case(
        lambda c: (_training_case(net, c), _extent_mm(c.grid)), entries, "train"))
    # the model records its cohort's extent, unknown if the cases differ in it
    net.extent_mm = extents[0] if len(set(extents)) == 1 else None
    config = TrainConfig(
        epochs=args.epochs, loss=args.loss, optimizer=args.optimizer, learning_rate=args.lr
    )
    log = train(net, training_cases, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_network(net, out / "net.vnet")
    log.to_csv(out / "loss.csv")
    payload = {
        "epochs": config.epochs,
        "cases": len(training_cases),
        "final_loss": log.losses[-1],
        "first_loss": log.losses[0],
        "parameters": net.param_count(),
        "model": "net.vnet",
    }
    envelope = vio.report_envelope(
        "train", payload, args.seed,
        {"epochs": args.epochs, "loss": args.loss, "optimizer": args.optimizer, "lr": args.lr},
        vio.input_checksums([args.cohort]),
    )
    vio.dump_json(out / "train_report.json", envelope)
    print(f"trained {config.epochs} epochs; loss {log.losses[0]:.4f} -> {log.losses[-1]:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    entries = _cohort(args.cohort)
    network = load_network(args.model, rank=3)
    target_shape = network.input_shape[:-1]

    def row(case):
        truth = case.analytic_volume
        volume, pred_mask = ml_volume(prepare_input(case.grid, target_shape), case.grid.dims,
                                      case.grid.spacing, network, args.threshold)
        ref = fit_target_to_output(network, mask_training_target(case.mask, target_shape))
        ref_mask = extract_tumor_mask(ref, 0.5)
        return {
            "case_id": case.case_id,
            "volume_mm3": volume,
            "analytic_volume_mm3": truth,
            "rel_error": abs(volume - truth) / truth,
            "dice": dice(pred_mask, ref_mask),
        }

    rows = _each_case(row, entries, "eval")
    if args.format == "csv":
        columns = ("case_id", "volume_mm3", "analytic_volume_mm3", "rel_error", "dice")
        vio.write_csv(args.out, columns, ([r[c] for c in columns] for r in rows))
        return EXIT_OK
    payload = {
        "cases": rows,
        "mean_rel_error": float(np.mean([r["rel_error"] for r in rows])),
        "mean_dice": float(np.mean([r["dice"] for r in rows])),
    }
    envelope = vio.report_envelope(
        "eval", payload, args.seed, {"threshold": args.threshold},
        vio.input_checksums([args.cohort, args.model]),
    )
    _write_report(args.out, envelope)
    return EXIT_OK


# ---------------------------------------------------------- compare/stats

def cmd_compare(args) -> int:
    entries = _cohort(args.cohort)
    network = load_network(args.model, rank=3) if args.model else None
    methods = _methods(None, network)
    reports = _each_case(
        lambda c: estimate_all(c, network=network, threshold=args.threshold, methods=methods),
        entries, "compare",
    )
    matrix = discrepancy(reports, methods=methods)
    payload = {
        "matrix": matrix.to_dict(),
        "per_case": [
            {"case_id": r.case_id, "volumes": r.volumes, "errors": r.errors} for r in reports
        ],
    }
    envelope = vio.report_envelope(
        "compare", payload, args.seed, {"threshold": args.threshold, "methods": list(methods)},
        vio.input_checksums([args.cohort]),
    )
    _write_report(args.out, envelope)
    if args.emit_plot_csv:
        # one row per case, one column per method
        vio.write_csv(
            args.emit_plot_csv,
            ("case_id", *methods),
            ([r.case_id, *(r.volumes.get(m, "") for m in methods)] for r in reports),
        )
    return EXIT_OK


def cmd_stats(args) -> int:
    entries = _cohort(args.cohort)
    n = len(entries)
    if n < 3:  # the report's Shapiro-Wilk test needs 3 differences
        return _fail(EXIT_USAGE, f"stats needs at least 3 cases, got {n}")
    if args.folds > n:
        return _fail(EXIT_USAGE, f"k = {args.folds} folds exceed {n} cases")
    truths = [float(entry["analytic_volume_mm3"]) for entry in entries]

    manual_methods = ("spherical", "area_based", "regression")
    net_template = build_segmenter_3d(seed=args.seed, dtype=TRAIN_DTYPE)

    def prepare(case):
        # the training target reads the mask whole first, so its slice
        # areas count views of it rather than read its file again
        training = _training_case(net_template, case)
        report = estimate_all(case, methods=manual_methods)
        for m in manual_methods:
            if m not in report.volumes:
                raise _CaseFailed(f"{case.case_id}: {m} failed: {report.errors.get(m)}")
        geometry = (case.grid.dims, case.grid.spacing)
        return report.volumes, training, geometry

    try:
        per_case = _each_case(prepare, entries, "stats")
    except _CaseFailed as exc:
        return _fail(EXIT_RUNTIME, str(exc))
    # every fold trains on these arrays at once: each case's first-layer
    # im2col and pooled target are built once, and all of them are read-only
    manual_volumes, prepared, geometry = zip(*per_case)
    train_config = TrainConfig(
        epochs=args.epochs, loss=args.loss, optimizer="adam", learning_rate=args.lr
    )

    plan = kfold(n, args.folds, args.seed)

    # the cohort is indexed: a fold's run steps through its training
    # triples, and the estimator scores a triple's input with its grid's
    # geometry
    def trainer(indices):
        fold = int(np.setdiff1d(plan.fold_of, plan.fold_of[indices])[0])  # the one held out
        net = build_segmenter_3d(seed=args.seed, dtype=TRAIN_DTYPE)
        try:
            yield from train_steps(net, [prepared[i] for i in indices], train_config)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"fold {fold}: {exc}") from None
        return net

    def estimator(net, i):
        return ml_volume(prepared[i][0], *geometry[i], net, args.threshold)[0]

    indexed = [(i, truths[i]) for i in range(n)]
    cv = cv_volume_error(indexed, trainer, estimator, plan)

    volumes = {m: np.asarray([v[m] for v in manual_volumes]) for m in manual_methods}
    volumes["ml"] = cv.per_case_volume
    payload = build_stats_report(truths, volumes, cv, k=args.folds, seed=args.seed)
    envelope = vio.report_envelope(
        "stats",
        payload,
        args.seed,
        {
            "folds": args.folds,
            "epochs": args.epochs,
            "threshold": args.threshold,
            "loss": args.loss,
            "lr": args.lr,
        },
        vio.input_checksums([args.cohort]),
    )
    _write_report(args.out, envelope)
    return EXIT_OK


# ------------------------------------------------------------------ shared

class _CaseFailed(Exception):
    """A case a command cannot go on without; its message is the error."""


def _each_case(fn, entries: list[dict], name: str) -> list:
    """``[fn(_read_case(entry)) for entry in entries]``, split over the
    CPUs that BLAS leaves spare (``run_in_order``, threads named
    ``name-<n>``): each task reads its case's grid and mask, which go
    when ``fn`` returns, results come back in case order, and the first
    case that fails in that order raises, in its read or in ``fn``. With
    one worker it is that loop, on the calling thread."""
    return run_in_order(lambda i: fn(_read_case(entries[i])), len(entries),
                        spare_workers(len(entries)), name)


def _training_case(net, case: EstimateCase) -> tuple:
    """The ``nn.training.training_case`` of one case's network input and
    mask target: what ``train`` and every CV fold step on, read-only."""
    target_shape = net.input_shape[:-1]
    return training_case(net, prepare_input(case.grid, target_shape),
                         mask_training_target(case.mask, target_shape))


def _extent_mm(grid: VoxelGrid) -> tuple[float, float, float]:
    """The physical extent of ``grid`` in the network's axis order (z, y, x)."""
    (nx, ny, nz), spacing = grid.dims, grid.spacing
    return (nz * spacing.sz, ny * spacing.sy, nx * spacing.sx)


def _write_report(out, envelope: dict) -> None:
    if out:
        vio.dump_json(out, envelope)
    else:
        print(vio.canonical_json(envelope), end="")


def _int_at_least(minimum: int):
    """argparse type: an integer >= ``minimum``."""

    # argparse reports a ValueError from int() as "invalid integer value"
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


def _float_between(low: float, high: float = float("inf")):
    """argparse type: a finite float strictly inside (``low``, ``high``)."""

    def number(text: str) -> float:
        value = float(text)
        # nan fails both comparisons and inf the upper one
        if not low < value < high:
            bounds = f"> {low:g}" if high == float("inf") else f"in ({low:g}, {high:g})"
            raise argparse.ArgumentTypeError(f"must be a finite number {bounds}, got {text}")
        return value

    return number


def _env_seed() -> int:
    """``VOLUMETRICA_SEED``, the fallback of ``--seed``, checked as
    ``--seed`` is; unset means 0."""
    text = os.environ.get("VOLUMETRICA_SEED", "0")
    try:
        return _int_at_least(0)(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise InputError(f"VOLUMETRICA_SEED must be an integer >= 0, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volumetrica",
        description="Nodule volume estimation and cross-method statistical comparison.",
    )
    parser.add_argument("--version", action="version", version=f"volumetrica {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_dir: bool = False):
        p.add_argument("--seed", type=_int_at_least(0), default=None,
                       help="RNG seed (falls back to VOLUMETRICA_SEED, then 0)")
        if out_dir:
            p.add_argument("--out", required=True, help="output directory")
        else:
            p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("phantom", help="rasterize phantoms from a spec file")
    p.add_argument("--spec", required=True, help="phantom or cohort spec JSON")
    add_common(p, out_dir=True)
    p.set_defaults(fn=cmd_phantom)

    p = sub.add_parser("parse", help="parse one DICOM file and dump its elements")
    p.add_argument("--input", required=True)
    add_common(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("ingest", help="assemble a DICOM directory into a voxel grid")
    p.add_argument("--input", required=True)
    add_common(p, out_dir=True)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("estimate", help="estimate volumes for one case")
    p.add_argument("--input", required=True, help=".csv series, .volv, phantom dir, or DICOM dir")
    p.add_argument("--mask", help="mask .volv of a grid input (default: the input's own mask, "
                        "else raw intensities above 0.5)")
    p.add_argument("--methods", help="comma list from ml,spherical,area_based,regression or 'all'")
    p.add_argument("--model", help="trained network container for the ml method")
    p.add_argument("--threshold", type=_float_between(0.0, 1.0), default=0.5)
    p.add_argument("--radius", type=_float_between(0.0), default=None,
                   help="manually measured radius (mm) for the spherical method")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("train", help="train the 3-D segmentation network on a cohort")
    p.add_argument("--cohort", required=True, help="cohort manifest JSON")
    p.add_argument("--epochs", type=_int_at_least(1), default=10)
    p.add_argument("--loss", choices=("bce", "mse"), default="bce")
    p.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    p.add_argument("--lr", type=_float_between(0.0), default=1e-3)
    add_common(p, out_dir=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="per-case ML volumes and errors")
    p.add_argument("--cohort", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=_float_between(0.0, 1.0), default=0.5)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("compare", help="pairwise discrepancy matrix across methods")
    p.add_argument("--cohort", required=True)
    p.add_argument("--model")
    p.add_argument("--threshold", type=_float_between(0.0, 1.0), default=0.5)
    p.add_argument("--emit-plot-csv", help="also write per-case volumes as CSV plot data")
    add_common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("stats", help="cross-validated statistical validation report")
    p.add_argument("--cohort", required=True)
    p.add_argument("--folds", type=_int_at_least(2), default=5)
    p.add_argument("--epochs", type=_int_at_least(1), default=30, help="training epochs per CV fold")
    p.add_argument("--loss", choices=("bce", "mse"), default="bce")
    p.add_argument("--lr", type=_float_between(0.0), default=1e-3)
    p.add_argument("--threshold", type=_float_between(0.0, 1.0), default=0.5)
    add_common(p)
    p.set_defaults(fn=cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _env_seed()
        return args.fn(args)
    except InputError as exc:
        return _fail(EXIT_USAGE, f"unreadable input: {exc}")
    except OSError as exc:  # every path the CLI opens is one the user named
        return _fail(EXIT_USAGE, str(exc))
    except Exception as exc:  # the tool failed on well-formed input
        return _fail(EXIT_RUNTIME, f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
