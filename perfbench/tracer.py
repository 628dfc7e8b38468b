"""Span tracer for the traced benchmark run.

The program is measured from outside: each public function listed in
``layers.json`` is replaced, at every ``volumetrica`` module attribute
bound to it (so ``from ... import`` bindings are covered too), by a
wrapper that records a span. Spans stay in memory and are written out
when the run ends; the per-layer metrics are derived from them.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

LAYERS_FILE = Path(__file__).resolve().parent / "layers.json"


def load_layers() -> dict:
    return json.loads(LAYERS_FILE.read_text())["layers"]


def span_name(layer: str, func: str) -> str:
    # cli.cmd_train -> cli.train, matching the CLI stage it runs
    return f"{layer}.{func[4:]}" if layer == "cli" and func.startswith("cmd_") else f"{layer}.{func}"


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


# Extra measurement taken from a call's arguments or result; it lands
# in the span's ``value`` field.
def _probe_read_volume(args, kwargs, result):
    return _file_mb(args[0])


def _probe_write_volume(args, kwargs, result):
    return _file_mb(args[0])


def _probe_sha256_file(args, kwargs, result):
    return _file_mb(args[0])


def _probe_parse_file(args, kwargs, result):
    return len(args[0]) / 1e6


def _probe_resize_volume(args, kwargs, result):
    grid = args[0]  # a VoxelGrid or a raw array
    return (grid if isinstance(grid, np.ndarray) else grid.data).size / 1e6


def _probe_input_cols(args, kwargs, result):
    return 0.0 if result is None else result.nbytes / 1e6


PROBES = {
    "io.read_volume": _probe_read_volume,
    "io.write_volume": _probe_write_volume,
    "io.sha256_file": _probe_sha256_file,
    "dicomlite.parse_file": _probe_parse_file,
    "nn.inference.resize_volume": _probe_resize_volume,
    "nn.network.input_cols": _probe_input_cols,
}
# tracemalloc runs around these calls only; numpy reports its buffers
ALLOC_TRACED = {"nn.network.predict"}


class Tracer:
    """Records spans (name, start, end, parent, op, value) in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        alloc = name in ALLOC_TRACED
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            if alloc:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if alloc:
                    span[5] = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
            if probe is not None:
                span[5] = probe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every listed function at every module attribute bound to it."""
        layers = {layer: spec for layer, spec in load_layers().items() if spec["wrap"]}
        homes = {layer: importlib.import_module(f"volumetrica.{layer}") for layer in layers}
        modules = [m for n, m in sys.modules.items() if n == "volumetrica" or n.startswith("volumetrica.")]
        for layer, spec in layers.items():
            for func in spec["wrap"]:
                original = getattr(homes[layer], func)
                wrapper = self._wrap(span_name(layer, func), original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, value in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "value": value}) + "\n")

    # ------------------------------------------------------------ metrics

    def summary(self) -> dict:
        """Per span name: calls, busy_s, self_s, p50_ms and the summed value."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        durations: dict[str, list] = {}
        for i, (name, start, end, _, _, value) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "value": 0.0,
                                      "value_max": 0.0})
            s["calls"] += 1
            s["busy_s"] += end - start
            s["self_s"] += end - start - child_time[i]
            if value is not None:
                s["value"] += value
                s["value_max"] = max(s["value_max"], value)
            durations.setdefault(name, []).append(end - start)
        for name, d in durations.items():
            out[name]["p50_ms"] = statistics.median(d) * 1e3
        return out

    def ancestors_named(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def per_layer_metrics(self, eval_cases: int) -> dict:
        """Every per-layer metric named in layers.json that spans give.

        ``eval_cases`` is the number of cases the traced ``eval`` stages
        scored, the base of ``cli.eval.predict_per_case``.
        """
        summ = self.summary()
        empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "p50_ms": 0.0, "value": 0.0, "value_max": 0.0}

        def get(name):
            return summ.get(name, empty)

        def ratio(a, b):
            return a / b if b else 0.0

        special = {
            "nn.network.predict.alloc_peak_mb": get("nn.network.predict")["value_max"],
            "nn.inference.resize_volume.mvox_in": get("nn.inference.resize_volume")["value"],
            "dicomlite.parse_file.mb_per_s": ratio(get("dicomlite.parse_file")["value"],
                                                  get("dicomlite.parse_file")["busy_s"]),
            "io.read_volume.mb": get("io.read_volume")["value"],
            "io.write_volume.mb": get("io.write_volume")["value"],
            "geometry.slice_areas.calls_per_case": ratio(get("geometry.slice_areas")["calls"],
                                                         get("estimators.estimate_all")["calls"]),
            "numopt.polyfit.fits_per_regression": ratio(get("numopt.polyfit")["calls"],
                                                        get("numopt.select_degree")["calls"]),
        }
        # report_envelope is the only caller of sha256_file
        special["io.report_envelope.hashed_mb"] = get("io.sha256_file")["value"]
        # the im2col cache one train call holds: its input_cols results
        per_train: dict[int, float] = {}
        for n, _, _, parent, _, v in self.spans:
            if n == "nn.network.input_cols" and parent >= 0:
                per_train[parent] = per_train.get(parent, 0.0) + (v or 0.0)
        special["nn.network.input_cols.cache_mb"] = max(per_train.values(), default=0.0)
        eval_predicts = sum(1 for i, s in enumerate(self.spans)
                            if s[0] == "nn.network.predict" and self.ancestors_named(i, "cli.eval"))
        special["cli.eval.predict_per_case"] = ratio(eval_predicts, eval_cases)

        layers = load_layers()
        wrapped = {span_name(layer, func) for layer, spec in layers.items() for func in spec["wrap"]}
        metrics = {}
        for spec in layers.values():
            for metric, unit in spec["metrics"].items():
                base, _, field = metric.rpartition(".")
                if metric in special:
                    metrics[metric] = (special[metric], unit)
                elif base in wrapped and field in ("calls", "busy_s", "self_s", "p50_ms"):
                    metrics[metric] = (get(base)[field], unit)
        return metrics


# ------------------------------------------------------- computed counts

def _net_counts(net) -> dict:
    """Per-pass MACs and bytes computed from the layer shapes.

    Each operand array is counted as read or written once: conv forward
    reads its im2col matrix (or its input for 1x1 kernels) and writes the
    pre-activation and the activation; pooling reads its input and writes
    its output. Backward mirrors that: dz and the activation pair are
    read, the im2col matrix is read again for dW, and dx is written for
    every conv layer but the first.
    """
    from volumetrica.nn.layers import ConvLayer

    itemsize = net.layers[0].weights.dtype.itemsize
    fwd_macs = bwd_macs = fwd_elems = bwd_elems = 0
    dims, channels = list(net.input_shape[:-1]), net.input_shape[-1]
    for i, layer in enumerate(net.layers):
        n = math.prod(dims)
        if isinstance(layer, ConvLayer):
            k, cin, cout = math.prod(layer.kernel), layer.in_channels, layer.out_channels
            macs = n * k * cin * cout
            fwd_macs += macs
            bwd_macs += macs * (2 if i > 0 else 1)
            fwd_elems += n * k * cin + 2 * n * cout
            bwd_elems += 3 * n * cout + n * k * cin + (n * cin if i > 0 else 0)
            channels = cout
        else:
            out_n = n // math.prod(layer.pool)
            fwd_elems += (n + out_n) * channels
            bwd_elems += (n + out_n) * channels
            dims = [d // p for d, p in zip(dims, layer.pool)]
    return {
        "fwd_macs": fwd_macs,
        "bwd_macs": bwd_macs,
        "fwd_mb": fwd_elems * itemsize / 1e6,
        "bwd_mb": bwd_elems * itemsize / 1e6,
    }


def computed_counts() -> dict:
    """MACs and bytes of one 3-D training step (32^3) and one 2-D forward
    pass over a 1024^2 slice, labelled as computed, not measured."""
    from volumetrica.nn.network import build_segmenter_2d, build_segmenter_3d

    net3, net2 = build_segmenter_3d(), build_segmenter_2d()
    c3, c2 = _net_counts(net3), _net_counts(net2)
    return {
        "nn.step3d.macs": (c3["fwd_macs"] + c3["bwd_macs"], "count"),
        "nn.step3d.bytes_mb": (c3["fwd_mb"] + c3["bwd_mb"], "MB"),
        "nn.slice2d.macs": (c2["fwd_macs"], "count"),
        "nn.slice2d.bytes_mb": (c2["fwd_mb"], "MB"),
    }
