"""The benchmark tracer (perfbench/tracer.py) wraps functions by module
attribute name, as listed in perfbench/layers.json. A refactor that
deletes or renames one of them must fail here, not only in the slower
benchmark self-test."""

import importlib
import json
from pathlib import Path

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
