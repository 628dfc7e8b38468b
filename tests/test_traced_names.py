"""The benchmark tracer (perfbench/tracer.py) wraps functions by module
attribute name, as listed in perfbench/layers.json. A refactor that
deletes or renames one of them must fail here, not only in the slower
benchmark self-test."""

import importlib
import json
import sys
import threading
from pathlib import Path

import numpy as np

from volumetrica import dicomlite as dl
from volumetrica import io as vio
from volumetrica.cli import main
from volumetrica.grid import BinaryMask, Spacing
from volumetrica.nn.network import build_segmenter_3d, save_network

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.json"


def test_every_traced_function_exists():
    layers = json.loads(LAYERS.read_text())["layers"]
    traced = [(layer, fn) for layer, spec in layers.items() for fn in spec["wrap"]]
    assert traced
    missing = [
        f"volumetrica.{layer}.{fn}"
        for layer, fn in traced
        if not callable(getattr(importlib.import_module(f"volumetrica.{layer}"), fn, None))
    ]
    assert missing == []


def _count_wrapped(workload, monkeypatch) -> tuple[list, list]:
    """The ``layer.fn`` names layers.json wraps for ``workload``, and a
    list that records one name per call: a counting wrapper goes at every
    module attribute bound to each function, as the tracer binds its
    wrappers."""
    layers = json.loads(LAYERS.read_text())["layers"]
    wrapped = [f"{layer}.{fn}" for layer, spec in layers.items()
               for fn, workloads in spec["wrap"].items() if workload in workloads]
    calls = []
    lock = threading.Lock()
    modules = [m for n, m in sys.modules.items() if n == "volumetrica" or n.startswith("volumetrica.")]
    for name in wrapped:
        layer, _, fn = name.rpartition(".")
        original = getattr(importlib.import_module(f"volumetrica.{layer}"), fn)

        def counting(*args, _name=name, _fn=original, **kwargs):
            with lock:
                calls.append(_name)
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return wrapped, calls


def test_every_function_wrapped_for_dicom_estimate_runs(tmp_path, monkeypatch):
    """The benchmark self-test asserts that each function layers.json
    wraps for ``dicom-estimate`` records a span there. One DICOM
    ``estimate`` with every one of them counted checks the same."""
    series = tmp_path / "series"
    series.mkdir()
    mask = np.zeros((8, 24, 24), dtype=bool)
    for k in range(8):
        px = np.zeros((24, 24), dtype=np.uint16)
        px[8 - k // 2 : 16 + k // 2, 6:18] = 900
        mask[k] = px > 0
        ds = dl.make_slice_dataset(px, pixel_spacing=(0.5, 0.5), slice_thickness=1.5,
                                   position_z=1.5 * k)
        (series / f"slice{k}.dcm").write_bytes(dl.write_file(ds))
    vio.write_volume(tmp_path / "mask.volv", BinaryMask(mask, Spacing(0.5, 0.5, 1.5)))
    save_network(build_segmenter_3d(seed=0), tmp_path / "net.vnet")

    wrapped, calls = _count_wrapped("dicom-estimate", monkeypatch)
    assert main(["estimate", "--input", str(series), "--mask", str(tmp_path / "mask.volv"),
                 "--model", str(tmp_path / "net.vnet"), "--methods", "all",
                 "--out", str(tmp_path / "estimate.json")]) == 0
    assert [name for name in wrapped if name not in calls] == []
    # the per-case metrics of the benchmark count estimate_all once a call
    assert calls.count("estimators.estimate_all") == 1
    assert calls.count("geometry.slice_areas") == 1


def test_every_function_wrapped_for_cohort_runs(tmp_path, monkeypatch):
    """The same for ``cohort``: a small cohort through phantom, train,
    eval, compare and stats, with the commands and flags of the
    benchmark's pipeline, calls every function layers.json wraps for it
    (``ml_estimate`` only through ``compare``)."""
    entries = [{"shape": "sphere", "radius_mm": 6.0 + 2 * i, "dims": [44, 44, 44],
                "spacing_mm": [1.0, 1.0, 1.0], "noise_sigma": 0.05} for i in range(5)]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"cohort": entries}))
    manifest, model = str(tmp_path / "ph" / "manifest.json"), str(tmp_path / "m" / "net.vnet")

    wrapped, calls = _count_wrapped("cohort", monkeypatch)
    for argv in (
        ["phantom", "--spec", str(spec), "--out", str(tmp_path / "ph")],
        ["train", "--cohort", manifest, "--out", str(tmp_path / "m"), "--epochs", "1"],
        ["eval", "--cohort", manifest, "--model", model, "--out", str(tmp_path / "eval.json")],
        ["compare", "--cohort", manifest, "--model", model,
         "--out", str(tmp_path / "compare.json")],
        ["stats", "--cohort", manifest, "--folds", "2", "--epochs", "1",
         "--out", str(tmp_path / "stats.json")],
    ):
        assert main(argv + ["--seed", "1"]) == 0, argv[0]
    assert [name for name in wrapped if name not in calls] == []
