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


def test_every_function_wrapped_for_dicom_estimate_runs(tmp_path, monkeypatch):
    """The benchmark self-test asserts that each function layers.json
    wraps for ``dicom-estimate`` records a span there. One DICOM
    ``estimate`` with a counting wrapper at every module attribute bound
    to each of them (as the tracer binds its wrappers) checks the same."""
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

    layers = json.loads(LAYERS.read_text())["layers"]
    wrapped = [(layer, fn) for layer, spec in layers.items()
               for fn, workloads in spec["wrap"].items() if "dicom-estimate" in workloads]
    calls = []
    lock = threading.Lock()
    modules = [m for n, m in sys.modules.items() if n == "volumetrica" or n.startswith("volumetrica.")]
    for layer, fn in wrapped:
        original = getattr(importlib.import_module(f"volumetrica.{layer}"), fn)

        def counting(*args, _name=f"{layer}.{fn}", _fn=original, **kwargs):
            with lock:
                calls.append(_name)
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)

    assert main(["estimate", "--input", str(series), "--mask", str(tmp_path / "mask.volv"),
                 "--model", str(tmp_path / "net.vnet"), "--methods", "all",
                 "--out", str(tmp_path / "estimate.json")]) == 0
    assert [f"{layer}.{fn}" for layer, fn in wrapped if f"{layer}.{fn}" not in calls] == []
    # the per-case metrics of the benchmark count estimate_all once a call
    assert calls.count("estimators.estimate_all") == 1
