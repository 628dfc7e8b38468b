"""Every report-writing command writes the same bytes when it runs twice
on the same inputs with the same seed, and its CSV output parses back
with the standard csv reader."""

import csv
import json

import numpy as np
import pytest

from volumetrica import dicomlite as dl
from volumetrica.cli import main
from volumetrica.nn.network import build_segmenter_3d, save_network

SPHERE = {"shape": "sphere", "radius_mm": 3.0, "dims": [16, 16, 16], "spacing_mm": [1, 1, 1],
          "noise_sigma": 0.05}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A two-case phantom cohort (one id holds a comma), an untrained
    3-D network, a slice-area CSV and a DICOM series."""
    root = tmp_path_factory.mktemp("inputs")
    spec = root / "spec.json"
    cohort = [dict(SPHERE, id="case,a"), dict(SPHERE, id='case "b"', radius_mm=4.0)]
    spec.write_text(json.dumps({"cohort": cohort}))
    assert main(["phantom", "--spec", str(spec), "--out", str(root / "ph"), "--seed", "2"]) == 0
    save_network(build_segmenter_3d(seed=0), root / "net.vnet")
    (root / "areas.csv").write_text("position_mm,area_mm2\n0,3\n1,5.5\n2,4\n3,1\n")
    dicom = root / "dicom"
    dicom.mkdir()
    for k in range(4):
        px = np.zeros((12, 12), np.uint16)
        px[3:9, 3:9] = 1
        ds = dl.make_slice_dataset(px, pixel_spacing=(0.5, 0.5), slice_thickness=2.0,
                                   position_z=2.0 * k)
        (dicom / f"s{k}.dcm").write_bytes(dl.write_file(ds))
    return root


def _estimate(inputs, source, fmt):
    ph = inputs / "ph"
    argv = {
        "csv": ["--input", str(inputs / "areas.csv")],
        "volv": ["--input", str(ph / "case,a_grid.volv"), "--mask", str(ph / "case,a_mask.volv"),
                 "--model", str(inputs / "net.vnet")],
        "dicom": ["--input", str(inputs / "dicom"), "--methods", "spherical,area_based"],
    }[source]
    return ["estimate", *argv, "--format", fmt, "--seed", "4"]


def _twice(argv, tmp_path):
    """Run ``argv`` twice, each into its own ``--out``; the output files
    by name, which both runs must have written byte for byte."""
    runs = []
    for run in ("a", "b"):
        out = tmp_path / run / "out"
        out.parent.mkdir()
        assert main(argv + ["--out", str(out)]) == 0
        files = [out] if out.is_file() else sorted(p for p in out.iterdir())
        runs.append({p.name: p.read_bytes() for p in files})
    assert runs[0] == runs[1]
    return runs[0]


def _keys(obj):
    if isinstance(obj, dict):
        return set(obj) | set().union(*(_keys(v) for v in obj.values()))
    if isinstance(obj, list):
        return set().union(*(_keys(v) for v in obj))
    return set()


class TestEstimate:
    @pytest.mark.parametrize("source", ["csv", "volv", "dicom"])
    def test_json_bytes_repeat(self, inputs, tmp_path, source):
        (report,) = _twice(_estimate(inputs, source, "json"), tmp_path).values()
        doc = json.loads(report)
        assert "seconds" not in _keys(doc)
        assert doc["payload"]["methods"]

    @pytest.mark.parametrize("source", ["csv", "volv", "dicom"])
    def test_csv_bytes_repeat(self, inputs, tmp_path, source):
        (table,) = _twice(_estimate(inputs, source, "csv"), tmp_path).values()
        rows = list(csv.reader(table.decode().splitlines()))
        assert rows[0] == ["method", "volume_mm3", "error"]
        assert len(rows) > 1 and all(len(r) == 3 for r in rows)


class TestOtherCommands:
    def test_parse(self, inputs, tmp_path):
        _twice(["parse", "--input", str(inputs / "dicom" / "s0.dcm"), "--seed", "4"], tmp_path)

    def test_ingest(self, inputs, tmp_path):
        files = _twice(["ingest", "--input", str(inputs / "dicom"), "--seed", "4"], tmp_path)
        assert sorted(files) == ["geometry.json", "grid.volv"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_eval(self, inputs, tmp_path, fmt):
        argv = ["eval", "--cohort", str(inputs / "ph" / "manifest.json"),
                "--model", str(inputs / "net.vnet"), "--format", fmt, "--seed", "4"]
        (report,) = _twice(argv, tmp_path).values()
        if fmt == "csv":
            rows = list(csv.reader(report.decode().splitlines()))
            assert rows[0] == ["case_id", "volume_mm3", "analytic_volume_mm3", "rel_error", "dice"]
            assert [r[0] for r in rows[1:]] == ["case,a", 'case "b"']
            assert all(len(r) == 5 for r in rows)

    def test_compare_with_plot_csv(self, inputs, tmp_path):
        plots = []
        for run in ("a", "b"):
            out, plot = tmp_path / f"{run}.json", tmp_path / f"{run}.csv"
            assert main(["compare", "--cohort", str(inputs / "ph" / "manifest.json"),
                         "--model", str(inputs / "net.vnet"), "--seed", "4",
                         "--out", str(out), "--emit-plot-csv", str(plot)]) == 0
            plots.append((out.read_bytes(), plot.read_bytes()))
        assert plots[0] == plots[1]
        rows = list(csv.reader(plots[0][1].decode().splitlines()))
        assert rows[0] == ["case_id", "ml", "spherical", "area_based", "regression"]
        assert [r[0] for r in rows[1:]] == ["case,a", 'case "b"']
        assert all(len(r) == 5 for r in rows)
