import csv
import gc
import hashlib
import json
import logging
import shutil
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from volumetrica import cli
from volumetrica import dicomlite as dl
from volumetrica import io as vio
from volumetrica.cli import main
from volumetrica.errors import InputError
from volumetrica.grid import BinaryMask, Spacing
from volumetrica.stats import resample


@pytest.fixture
def sphere_spec(tmp_path):
    spec = {
        "shape": "sphere",
        "radius_mm": 8.0,
        "dims": [40, 40, 40],
        "spacing_mm": [1.0, 1.0, 1.0],
        "noise_sigma": 0.05,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.fixture
def small_cohort(tmp_path):
    entries = []
    for i in range(5):
        kind = ["sphere", "ellipsoid", "sphere", "lobulated", "sphere"][i]
        entry = {"dims": [44, 44, 44], "spacing_mm": [1.0, 1.0, 1.0], "noise_sigma": 0.05}
        if kind == "sphere":
            entry.update(shape="sphere", radius_mm=6.0 + 2 * i)
        elif kind == "ellipsoid":
            entry.update(shape="ellipsoid", semi_axes_mm=[10, 8, 7])
        else:
            entry.update(shape="lobulated", semi_axes_mm=[9, 8, 7])
        entries.append(entry)
    spec = tmp_path / "cohort_spec.json"
    spec.write_text(json.dumps({"cohort": entries}))
    out = tmp_path / "cohort"
    assert main(["phantom", "--spec", str(spec), "--out", str(out), "--seed", "3"]) == 0
    return out / "manifest.json"


class TestPhantomCommand:
    def test_single_phantom_manifest(self, sphere_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["phantom", "--spec", str(sphere_spec), "--out", str(out), "--seed", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        case = manifest["payload"]["cases"][0]
        assert case["analytic_volume_mm3"] == pytest.approx(4.0 / 3.0 * np.pi * 512.0)
        assert (out / case["grid"]).exists()
        assert (out / case["mask"]).exists()

    def test_deterministic_outputs(self, sphere_spec, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["phantom", "--spec", str(sphere_spec), "--out", str(out1), "--seed", "5"])
        main(["phantom", "--spec", str(sphere_spec), "--out", str(out2), "--seed", "5"])
        g1 = (out1 / "case_000_grid.volv").read_bytes()
        g2 = (out2 / "case_000_grid.volv").read_bytes()
        assert g1 == g2

    def test_out_of_bounds_exits_2(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"shape": "sphere", "radius_mm": 100.0,
                                    "dims": [32, 32, 32], "spacing_mm": [1, 1, 1]}))
        assert main(["phantom", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2

    def test_missing_spec_exits_2(self, tmp_path):
        assert main(["phantom", "--spec", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")]) == 2


class TestEstimateCommand:
    def test_sample_series_reference_volumes(self, tmp_path):
        csv = tmp_path / "t4.csv"
        rows = ["position_mm,area_mm2"] + [
            f"{i + 1},{a}" for i, a in enumerate(
                [16.0, 31.8, 55.8, 80.0, 150.0, 154.1, 89.6, 63.5, 84.6, 42.3, 29.3]
            )
        ]
        csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "report.json"
        code = main(["estimate", "--input", str(csv), "--radius", "6.0",
                     "--out", str(out), "--seed", "1"])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["methods"]["spherical"]["volume_mm3"] == pytest.approx(904.78, abs=0.01)
        assert payload["methods"]["area_based"]["volume_mm3"] == pytest.approx(797.0, abs=0.05)
        assert payload["methods"]["regression"]["volume_mm3"] == pytest.approx(737.22, abs=1.0)

    def test_single_method_selection(self, tmp_path):
        csv = tmp_path / "s.csv"
        csv.write_text("position_mm,area_mm2\n0,3\n1,3\n2,3\n")
        out = tmp_path / "r.json"
        assert main(["estimate", "--input", str(csv), "--methods", "area_based",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())["payload"]
        assert list(payload["methods"]) == ["area_based"]

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["estimate", "--input", str(tmp_path / "nope.csv")]) == 2

    def test_all_methods_failing_exits_1(self, tmp_path):
        csv = tmp_path / "s.csv"
        csv.write_text("position_mm,area_mm2\n0,3\n1,3\n2,3\n")
        out = tmp_path / "r.json"
        # ml is the only selected method and a series cannot drive it
        assert main(["estimate", "--input", str(csv), "--methods", "ml",
                     "--out", str(out)]) == 1
        payload = json.loads(out.read_text())["payload"]
        assert "error" in payload["methods"]["ml"]

    @pytest.mark.parametrize(
        "rows",
        ["0,3\n1,nan\n2,3", "0,3\n1,inf\n2,3", "0,3\n1,3\nnan,3\n2,3"],
        ids=["nan-area", "inf-area", "nan-position"],
    )
    def test_non_finite_csv_value_exits_2(self, tmp_path, capsys, rows):
        csv = tmp_path / "s.csv"
        csv.write_text(f"position_mm,area_mm2\n{rows}\n")
        assert main(["estimate", "--input", str(csv), "--out", str(tmp_path / "r.json")]) == 2
        assert "unreadable input" in capsys.readouterr().err

    def test_truncated_model_exits_2(self, tmp_path, capsys):
        from volumetrica.nn.network import build_segmenter_3d, save_network

        model = tmp_path / "net.vnet"
        save_network(build_segmenter_3d(seed=0), model)
        model.write_bytes(model.read_bytes()[:20])
        csv = tmp_path / "s.csv"
        csv.write_text("position_mm,area_mm2\n0,3\n1,3\n2,3\n")
        assert main(["estimate", "--input", str(csv), "--model", str(model)]) == 2
        assert "cannot load model" in capsys.readouterr().err

    def test_mask_and_model_are_checksummed(self, sphere_spec, tmp_path):
        from volumetrica.nn.network import build_segmenter_3d, save_network

        ph = tmp_path / "ph"
        assert main(["phantom", "--spec", str(sphere_spec), "--out", str(ph)]) == 0
        grid, mask = ph / "case_000_grid.volv", ph / "case_000_mask.volv"
        model = tmp_path / "net.vnet"
        save_network(build_segmenter_3d(seed=0), model)
        args = ["estimate", "--input", str(grid), "--mask", str(mask), "--model", str(model),
                "--methods", "area_based"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(first)]) == 0
        doc = json.loads(first.read_text())
        assert sorted(doc["input_checksums"]) == sorted(str(p) for p in (grid, mask, model))
        # same paths, different mask bytes: different provenance
        other = tmp_path / "other"
        spec = json.loads(sphere_spec.read_text()) | {"radius_mm": 6.0}
        (tmp_path / "spec6.json").write_text(json.dumps(spec))
        assert main(["phantom", "--spec", str(tmp_path / "spec6.json"), "--out", str(other)]) == 0
        mask.write_bytes((other / "case_000_mask.volv").read_bytes())
        assert main(args + ["--out", str(second)]) == 0
        changed = json.loads(second.read_text())["input_checksums"]
        assert changed[str(mask)] != doc["input_checksums"][str(mask)]
        assert changed[str(grid)] == doc["input_checksums"][str(grid)]
        assert changed[str(model)] == doc["input_checksums"][str(model)]
        assert json.loads(second.read_text())["config_hash"] == doc["config_hash"]
        # the mask path is part of the config
        args[args.index(str(mask))] = str(other / "case_000_mask.volv")
        assert main(args + ["--out", str(second)]) == 0
        assert json.loads(second.read_text())["config_hash"] != doc["config_hash"]

    @pytest.mark.parametrize(
        "mangle", [lambda b: b[:30], lambda b: b + b"\x00\x00"], ids=["prefix", "trailing"]
    )
    def test_malformed_volv_exits_2(self, sphere_spec, tmp_path, capsys, mangle):
        out = tmp_path / "ph"
        assert main(["phantom", "--spec", str(sphere_spec), "--out", str(out)]) == 0
        bad = tmp_path / "bad.volv"
        bad.write_bytes(mangle((out / "case_000_mask.volv").read_bytes()))
        assert main(["estimate", "--input", str(bad), "--out", str(tmp_path / "r.json")]) == 2
        assert "unreadable input" in capsys.readouterr().err

    def test_unknown_method_exits_2(self, tmp_path):
        csv = tmp_path / "s.csv"
        csv.write_text("position_mm,area_mm2\n0,3\n1,3\n")
        assert main(["estimate", "--input", str(csv), "--methods", "magic"]) == 2

    def test_phantom_dir_input(self, sphere_spec, tmp_path):
        out = tmp_path / "ph"
        main(["phantom", "--spec", str(sphere_spec), "--out", str(out), "--seed", "1"])
        report = tmp_path / "est.json"
        assert main(["estimate", "--input", str(out), "--out", str(report)]) == 0
        payload = json.loads(report.read_text())["payload"]
        truth = payload["metadata"]["analytic_volume_mm3"]
        assert payload["methods"]["area_based"]["volume_mm3"] == pytest.approx(truth, rel=0.05)

    def test_mask_with_a_csv_input_exits_2_before_reading(self, tmp_path, monkeypatch, capsys):
        touched = []
        monkeypatch.setattr(vio, "sha256_file", touched.append)
        monkeypatch.setattr(vio, "read_series_csv", touched.append)
        csv = tmp_path / "s.csv"
        csv.write_text("position_mm,area_mm2\n0,3\n1,3\n2,3\n")
        (tmp_path / "bad.volv").write_bytes(b"VOLV\x01")
        out = tmp_path / "r.json"
        assert main(["estimate", "--input", str(csv), "--mask", str(tmp_path / "bad.volv"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--mask applies to grid inputs" in err
        assert touched == [] and not out.exists()

    def test_csv_format_output(self, tmp_path):
        series = tmp_path / "s.csv"
        series.write_text("position_mm,area_mm2\n0,3\n1,3\n2,3\n")
        out = tmp_path / "r.csv"
        assert main(["estimate", "--input", str(series), "--format", "csv",
                     "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["method", "volume_mm3", "error"]
        assert [r[0] for r in rows[1:]] == ["spherical", "area_based", "regression"]
        assert all(len(r) == 3 and r[1] and not r[2] for r in rows[1:])

    def test_csv_format_quotes_error_text(self, tmp_path):
        series = tmp_path / "s.csv"
        series.write_text("position_mm,area_mm2\n0,3\n1,3\n2,3\n")
        out = tmp_path / "r.csv"
        assert main(["estimate", "--input", str(series), "--methods", "ml,area_based",
                     "--format", "csv", "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows == [
            ["method", "volume_mm3", "error"],
            ["ml", "", "ValueError: ml needs voxel input, not an area series"],
            ["area_based", "9.0", ""],
        ]

    def test_csv_format_to_stdout(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("position_mm,area_mm2\n0,3\n1,3\n2,3\n")
        assert main(["estimate", "--input", str(series), "--methods", "area_based",
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out == "method,volume_mm3,error\narea_based,9.0,\n"


class TestDicomCommands:
    @pytest.fixture
    def dicom_dir(self, tmp_path):
        d = tmp_path / "dicoms"
        d.mkdir()
        for k, z in enumerate([20.0, 10.0, 30.0]):
            px = np.full((8, 8), 50 * (k + 1), dtype=np.uint16)
            ds = dl.make_slice_dataset(px, pixel_spacing=(0.5, 0.5),
                                       slice_thickness=2.0, position_z=z)
            (d / f"slice{k}.dcm").write_bytes(dl.write_file(ds))
        return d

    def test_parse_reports_elements(self, dicom_dir, tmp_path):
        out = tmp_path / "parse.json"
        assert main(["parse", "--input", str(dicom_dir / "slice0.dcm"), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["conformant"] is True
        tags = [e["tag"] for e in payload["elements"]]
        assert "7FE0,0010" in tags

    def test_parse_truncated_exits_2(self, dicom_dir, tmp_path):
        blob = (dicom_dir / "slice0.dcm").read_bytes()
        bad = tmp_path / "trunc.dcm"
        bad.write_bytes(blob[:-10])
        assert main(["parse", "--input", str(bad)]) == 2

    def test_ingest_sorts_by_z(self, dicom_dir, tmp_path):
        out = tmp_path / "ingested"
        assert main(["ingest", "--input", str(dicom_dir), "--out", str(out)]) == 0
        geometry = json.loads((out / "geometry.json").read_text())["payload"]
        assert [i for i, _ in geometry["slice_order"]] == [1, 0, 2]
        assert geometry["pixel_spacing_mm"] == [0.5, 0.5]

    def test_ingest_skips_subdirectory_named_like_a_slice(self, dicom_dir, tmp_path):
        (dicom_dir / "sub.dcm").mkdir()
        out = tmp_path / "ingested"
        assert main(["ingest", "--input", str(dicom_dir), "--out", str(out)]) == 0
        doc = json.loads((out / "geometry.json").read_text())
        assert doc["payload"]["slice_count"] == 3
        assert sorted(doc["input_checksums"]) == [
            str(dicom_dir / f"slice{k}.dcm") for k in range(3)
        ]

    def test_ingest_empty_directory_exits_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["ingest", "--input", str(empty), "--out", str(tmp_path / "o")]) == 2

    def test_ingest_nondir_exits_2(self, tmp_path):
        assert main(["ingest", "--input", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "o")]) == 2


class TestEstimateWarnings:
    """What ``estimate`` decides on its own is logged, never reported."""

    @pytest.fixture
    def defaulted_dir(self, tmp_path):
        # no PixelSpacing, one file that does not parse, and no --mask
        d = tmp_path / "dicoms"
        d.mkdir()
        for k in range(3):
            px = np.full((8, 8), 50 * (k + 1), dtype=np.uint16)
            ds = dl.make_slice_dataset(px, pixel_spacing=None, slice_thickness=2.0,
                                       position_z=2.0 * k)
            (d / f"slice{k}.dcm").write_bytes(dl.write_file(ds))
        (d / "notes.txt").write_bytes(b"\x00" * 3)
        return d

    def _estimate(self, src, out):
        assert main(["estimate", "--input", str(src), "--methods", "area_based",
                     "--out", str(out)]) == 0
        return out.read_bytes()

    def test_dicom_decisions_are_logged(self, defaulted_dir, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="volumetrica.cli"):
            self._estimate(defaulted_dir, tmp_path / "est.json")
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "volumetrica.cli" and r.levelno == logging.WARNING]
        assert len(messages) == 3
        assert all(m.startswith(f"{defaulted_dir}: ") for m in messages)
        assert "PixelSpacing missing" in messages[0]
        assert messages[1].startswith(f"{defaulted_dir}: skipped notes.txt: ")
        assert "no --mask given" in messages[2]

    def test_volv_without_mask_is_logged(self, sphere_spec, tmp_path, caplog):
        assert main(["phantom", "--spec", str(sphere_spec), "--out", str(tmp_path / "ph")]) == 0
        grid = tmp_path / "ph" / "case_000_grid.volv"
        with caplog.at_level(logging.WARNING, logger="volumetrica.cli"):
            self._estimate(grid, tmp_path / "est.json")
        assert [r.getMessage() for r in caplog.records if r.name == "volumetrica.cli"] == [
            f"{grid}: no --mask given; the mask is every voxel whose raw intensity exceeds 0.5"
        ]

    def test_report_bytes_do_not_depend_on_logging(self, defaulted_dir, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="volumetrica.cli"):
            logged = self._estimate(defaulted_dir, tmp_path / "logged.json")
        assert caplog.records
        logging.disable(logging.CRITICAL)
        try:
            silent = self._estimate(defaulted_dir, tmp_path / "silent.json")
        finally:
            logging.disable(logging.NOTSET)
        assert logged == silent


class TestPipelineCommands:
    def test_train_eval_compare_stats(self, small_cohort, tmp_path):
        model_dir = tmp_path / "model"
        assert main(["train", "--cohort", str(small_cohort), "--out", str(model_dir),
                     "--epochs", "30", "--seed", "3"]) == 0
        assert (model_dir / "net.vnet").exists()
        loss_rows = list(csv.reader((model_dir / "loss.csv").read_text().splitlines()))
        assert loss_rows[0] == ["epoch", "loss"]
        assert len(loss_rows) == 31

        eval_out = tmp_path / "eval.json"
        assert main(["eval", "--cohort", str(small_cohort), "--model",
                     str(model_dir / "net.vnet"), "--out", str(eval_out), "--seed", "3"]) == 0
        payload = json.loads(eval_out.read_text())["payload"]
        assert len(payload["cases"]) == 5
        assert payload["mean_rel_error"] < 0.5

        compare_out = tmp_path / "compare.json"
        plot_csv = tmp_path / "plot.csv"
        assert main(["compare", "--cohort", str(small_cohort), "--model",
                     str(model_dir / "net.vnet"), "--out", str(compare_out),
                     "--emit-plot-csv", str(plot_csv), "--seed", "3"]) == 0
        matrix = json.loads(compare_out.read_text())["payload"]["matrix"]
        assert matrix["methods"] == ["ml", "spherical", "area_based", "regression"]
        plot_rows = list(csv.reader(plot_csv.read_text().splitlines()))
        assert plot_rows[0] == ["case_id", "ml", "spherical", "area_based", "regression"]
        assert len(plot_rows) == 6  # header + one row per case
        assert all(len(r) == 5 for r in plot_rows)

        stats_out = tmp_path / "stats.json"
        assert main(["stats", "--cohort", str(small_cohort), "--folds", "5",
                     "--epochs", "8", "--out", str(stats_out), "--seed", "3"]) == 0
        rows = json.loads(stats_out.read_text())["payload"]["rows"]
        metrics = [r["metric"] for r in rows]
        assert any("Cross Validation" in m for m in metrics)
        assert any("Bland-Altman" in m for m in metrics)

        # the emitted reports must validate against the shipped schemas
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        schema_dir = resources.files("volumetrica") / "schemas"
        envelope = json.loads((schema_dir / "envelope.schema.json").read_text())
        for out, schema_name in [
            (compare_out, "discrepancy_report.schema.json"),
            (stats_out, "stats_report.schema.json"),
        ]:
            doc = json.loads(out.read_text())
            jsonschema.validate(doc, envelope)
            schema = json.loads((schema_dir / schema_name).read_text())
            payload = doc["payload"]["matrix"] if "matrix" in doc["payload"] else doc["payload"]
            jsonschema.validate(payload, schema)

    def test_eval_predicts_once_per_case(self, small_cohort, tmp_path, monkeypatch):
        import volumetrica.cli as cli
        import volumetrica.estimators as estimators
        from volumetrica.nn.network import build_segmenter_3d, load_network, predict, save_network

        model = tmp_path / "net.vnet"
        save_network(build_segmenter_3d(seed=3), model)
        calls = []

        def counting_predict(net, x):
            calls.append(x.shape)
            return predict(net, x)

        # eval predicts through the estimators module's binding
        monkeypatch.setattr(estimators, "predict", counting_predict)
        out = tmp_path / "eval.json"
        assert main(["eval", "--cohort", str(small_cohort), "--model", str(model),
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["payload"]["cases"]
        assert len(calls) == len(rows) == 5
        cases = [cli._read_case(entry) for entry in cli._cohort(small_cohort)]
        net = load_network(model)
        for case, row in zip(cases, rows):
            assert row["volume_mm3"] == estimators.ml_estimate(case.grid, net)

    def test_training_holds_only_prepared_arrays(self, small_cohort, tmp_path, monkeypatch):
        """Each per-case task of ``train`` and ``stats`` reads its own grid
        and mask and lets them go: inside a task at most one case per
        worker is alive, and no grid or mask once ``train()`` or a fold's
        run starts. The CV scorer reads each case's prepared input, so
        ``stats`` resizes every grid and every mask once."""
        from volumetrica.nn import inference

        read, in_task, alive, resized = [], [], [], []
        read_volume, prepare, fit, steps, resize = (
            vio.read_volume, cli._training_case, cli.train, cli.train_steps,
            inference.resize_volume)

        def tracked_read(path):
            volume = read_volume(path)
            read.append(weakref.ref(volume))
            return volume

        def alive_volumes():
            gc.collect()
            return sum(ref() is not None for ref in read)

        def counted_case(*args):
            in_task.append(alive_volumes())
            return prepare(*args)

        def checked(start):
            def started(*args, **kwargs):
                alive.append(alive_volumes())
                return start(*args, **kwargs)
            return started

        def counted_resize(*args, **kwargs):
            resized.append(1)
            return resize(*args, **kwargs)

        monkeypatch.setattr(vio, "read_volume", tracked_read)
        monkeypatch.setattr(cli, "_training_case", counted_case)
        monkeypatch.setattr(cli, "train", checked(fit))
        monkeypatch.setattr(cli, "train_steps", checked(steps))  # each CV fold's run
        monkeypatch.setattr(inference, "resize_volume", counted_resize)
        for workers in (1, 2):
            monkeypatch.setattr(cli, "spare_workers", lambda tasks: min(tasks, workers))
            for log in (read, in_task, alive):
                log.clear()
            assert main(["train", "--cohort", str(small_cohort), "--out",
                         str(tmp_path / f"m{workers}"), "--epochs", "1"]) == 0
            assert len(read) == 10 and len(in_task) == 5 and alive == [0]
            assert 2 <= min(in_task) and max(in_task) <= 2 * workers
            resized.clear()
            assert main(["stats", "--cohort", str(small_cohort), "--folds", "2", "--epochs", "1",
                         "--out", str(tmp_path / f"s{workers}.json")]) == 0
            assert len(read) == 20 and len(in_task) == 10 and alive == [0, 0, 0]
            assert 2 <= min(in_task) and max(in_task) <= 2 * workers
            assert len(resized) == 2 * 5

    def test_train_and_stats_stay_in_float32(self, small_cohort, tmp_path, monkeypatch):
        """Every array a training case holds, every workspace buffer and
        every prediction of ``train`` and ``stats`` is float32: a silent
        upcast would give the float32 gain back. ``train`` writes a
        float32 model that records the cohort's 44 mm extent."""
        import volumetrica.estimators as estimators
        from volumetrica.nn import network

        prepared, buffers, predicted = [], [], []
        prepare, buffer, predict = cli._training_case, network.Workspace.buffer, estimators.predict

        def recorded_case(*args):
            triple = prepare(*args)
            prepared.extend(a.dtype for a in triple)
            return triple

        def recorded_buffer(self, key, shape, dtype):
            buf = buffer(self, key, shape, dtype)
            buffers.append((key[0], buf.dtype))
            return buf

        def recorded_predict(net, x):
            out = predict(net, x)
            predicted.append(out.dtype)
            return out

        monkeypatch.setattr(cli, "_training_case", recorded_case)
        monkeypatch.setattr(network.Workspace, "buffer", recorded_buffer)
        monkeypatch.setattr(estimators, "predict", recorded_predict)
        model = tmp_path / "m" / "net.vnet"
        assert main(["train", "--cohort", str(small_cohort), "--out", str(model.parent),
                     "--epochs", "1"]) == 0
        assert main(["stats", "--cohort", str(small_cohort), "--folds", "2", "--epochs", "1",
                     "--out", str(tmp_path / "s.json")]) == 0
        f32, boolean = np.dtype(np.float32), np.dtype(bool)
        assert len(prepared) == 2 * 3 * 5 and set(prepared) == {f32}
        assert {key for key, _ in buffers} == {"z", "mask"}
        assert all(dtype == (boolean if key == "mask" else f32) for key, dtype in buffers)
        assert len(predicted) == 5 and set(predicted) == {f32}
        net = network.load_network(model)
        assert net.dtype == f32 and net.extent_mm == (44.0, 44.0, 44.0)

    def test_training_case_target_is_pooled_once(self, small_cohort):
        """``_training_case`` pools the mask target to the network's output
        grid, so ``train`` and every CV fold share that one read-only
        array; training on it gives the bits of the full-resolution
        target, which ``train`` would pool itself."""
        from volumetrica.nn.inference import mask_training_target
        from volumetrica.nn.network import build_segmenter_3d
        from volumetrica.nn.training import TrainConfig, train

        cases = [cli._read_case(entry) for entry in cli._cohort(small_cohort)]
        nets = [build_segmenter_3d(seed=2, dtype=cli.TRAIN_DTYPE) for _ in range(2)]
        x, target, cols = cli._training_case(nets[0], cases[0])
        assert target.shape == nets[0].output_shapes()[-1]
        assert target.dtype == nets[0].dtype and not target.flags.writeable
        full = mask_training_target(cases[0].mask, nets[0].input_shape[:-1])
        assert full.shape[:-1] != target.shape[:-1]
        losses = [train(net, [(x, t, cols)], TrainConfig(epochs=2)).losses
                  for net, t in zip(nets, (target, full))]
        assert losses[0] == losses[1]
        for a, b in zip(nets[0].parameters(), nets[1].parameters()):
            np.testing.assert_array_equal(a, b, strict=True)

    def test_stats_k_exceeding_n_exits_2(self, small_cohort, tmp_path):
        assert main(["stats", "--cohort", str(small_cohort), "--folds", "6",
                     "--out", str(tmp_path / "s.json")]) == 2

    def test_stats_on_fewer_than_3_cases_exits_2(self, tmp_path, monkeypatch, capsys):
        # the report's Shapiro-Wilk test needs 3 cases; none is read
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cohort": [
            {"dims": [24, 24, 24], "spacing_mm": [1.0, 1.0, 1.0], "shape": "sphere",
             "radius_mm": 4.0 + i} for i in range(3)]}))
        ph, out = tmp_path / "ph", tmp_path / "s.json"
        assert main(["phantom", "--spec", str(spec), "--out", str(ph)]) == 0
        argv = ["stats", "--folds", "2", "--epochs", "1", "--out", str(out)]
        assert main(argv + ["--cohort", str(ph / "manifest.json")]) == 0
        out.unlink()
        cases = json.loads((ph / "manifest.json").read_text())["payload"]["cases"]
        (ph / "two.json").write_text(json.dumps({"cases": cases[:2]}))
        capsys.readouterr()
        read = []
        monkeypatch.setattr(cli, "_read_case", lambda entry: read.append(entry))
        assert main(argv + ["--cohort", str(ph / "two.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: stats needs at least 3 cases, got 2\n"
        assert captured.out == "" and read == [] and not out.exists()

    def test_stats_deterministic_bytes(self, small_cohort, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["stats", "--cohort", str(small_cohort), "--folds", "5",
                         "--epochs", "4", "--out", str(out), "--seed", "11"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stats_bytes_independent_of_fold_workers(self, tmp_path, monkeypatch):
        entries = [{"dims": [24, 24, 24], "spacing_mm": [1.0, 1.0, 1.0], "noise_sigma": 0.05,
                    "shape": "sphere", "radius_mm": 4.0 + i} for i in range(6)]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cohort": entries}))
        assert main(["phantom", "--spec", str(spec), "--out", str(tmp_path / "ph"),
                     "--seed", "5"]) == 0
        reports = []
        for workers in (1, 2):
            monkeypatch.setattr(resample, "_fold_workers", lambda k: workers)
            out = tmp_path / f"stats{workers}.json"
            assert main(["stats", "--cohort", str(tmp_path / "ph" / "manifest.json"),
                         "--folds", "3", "--epochs", "3", "--out", str(out), "--seed", "5"]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_env_seed_fallback(self, sphere_spec, tmp_path, monkeypatch):
        monkeypatch.setenv("VOLUMETRICA_SEED", "17")
        out = tmp_path / "env"
        assert main(["phantom", "--spec", str(sphere_spec), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 17


class TestEstimateWorkers:
    """``estimate`` hashes its inputs beside the estimate when a CPU is
    spare; the report and the failures do not depend on it."""

    @pytest.fixture
    def dicom_series(self, tmp_path):
        d = tmp_path / "series"
        d.mkdir()
        for k in range(6):
            px = np.zeros((24, 24), dtype=np.uint16)
            px[6:18, 5:19] = 100 + 40 * k
            ds = dl.make_slice_dataset(px, pixel_spacing=(0.5, 0.5), slice_thickness=1.5,
                                       position_z=1.5 * k, rescale=(0.01, -0.2))
            (d / f"slice{k}.dcm").write_bytes(dl.write_file(ds))
        return d

    def _runs(self, monkeypatch, argv, tmp_path):
        """Exit code and report bytes at one and two workers."""
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(cli, "spare_workers", lambda tasks: workers)
            out = tmp_path / f"report{workers}.json"
            before = threading.enumerate()
            code = main(argv + ["--out", str(out), "--seed", "3"])
            assert threading.enumerate() == before
            results.append((code, out.read_bytes() if out.exists() else None))
        return results

    def test_csv_input(self, monkeypatch, tmp_path):
        csv = tmp_path / "s.csv"
        csv.write_text("position_mm,area_mm2\n0,3\n1,5\n2,4\n3,1\n")
        first, second = self._runs(monkeypatch, ["estimate", "--input", str(csv)], tmp_path)
        assert first == second and first[0] == 0

    def test_estimate_runs_on_the_calling_thread(self, monkeypatch, tmp_path):
        csv = tmp_path / "s.csv"
        csv.write_text("position_mm,area_mm2\n0,3\n1,5\n2,4\n")
        threads = []
        estimate_series = cli.estimate_series

        def recorded(*args, **kwargs):
            threads.append(threading.current_thread())
            return estimate_series(*args, **kwargs)

        monkeypatch.setattr(cli, "estimate_series", recorded)
        monkeypatch.setattr(cli, "spare_workers", lambda tasks: 2)
        assert main(["estimate", "--input", str(csv), "--out", str(tmp_path / "r.json")]) == 0
        assert threads == [threading.current_thread()]

    def test_volv_input_with_mask_and_model(self, sphere_spec, monkeypatch, tmp_path):
        from volumetrica.nn.network import build_segmenter_3d, save_network

        ph = tmp_path / "ph"
        assert main(["phantom", "--spec", str(sphere_spec), "--out", str(ph)]) == 0
        model = tmp_path / "net.vnet"
        save_network(build_segmenter_3d(seed=0), model)
        argv = ["estimate", "--input", str(ph / "case_000_grid.volv"),
                "--mask", str(ph / "case_000_mask.volv"), "--model", str(model)]
        first, second = self._runs(monkeypatch, argv, tmp_path)
        assert first == second and first[0] == 0
        assert len(json.loads(first[1])["input_checksums"]) == 3

    def test_dicom_input(self, dicom_series, monkeypatch, tmp_path):
        argv = ["estimate", "--input", str(dicom_series), "--methods", "area_based,regression"]
        first, second = self._runs(monkeypatch, argv, tmp_path)
        assert first == second and first[0] == 0
        assert len(json.loads(first[1])["input_checksums"]) == 6

    @pytest.mark.parametrize("argv", [
        ["estimate", "--methods", "area_based", "--out", "{out}.json"],
        ["estimate", "--methods", "area_based", "--format", "csv", "--out", "{out}.csv"],
        ["ingest", "--out", "{out}"],
    ], ids=["estimate-json", "estimate-csv", "ingest"])
    def test_dicom_directory_is_listed_once(self, dicom_series, monkeypatch, tmp_path, argv):
        import os

        listed, scandir = [], os.scandir

        def counted_scandir(path="."):
            listed.append(Path(path))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", counted_scandir)
        argv = [a.format(out=tmp_path / "out") for a in argv]
        assert main(argv + ["--input", str(dicom_series)]) == 0
        assert listed == [dicom_series]

    def test_failed_estimate_decides_the_exit(self, dicom_series, monkeypatch, tmp_path, capsys):
        ds = dl.make_slice_dataset(np.zeros((20, 24), dtype=np.uint16), position_z=30.0)
        (dicom_series / "slice9.dcm").write_bytes(dl.write_file(ds))
        argv = ["estimate", "--input", str(dicom_series)]
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(cli, "spare_workers", lambda tasks: workers)
            before = threading.enumerate()
            assert main(argv + ["--out", str(tmp_path / "r.json")]) == 2
            assert threading.enumerate() == before
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "slice 6 is 20x24, series is 24x24" in errors[0]
        assert not (tmp_path / "r.json").exists()

    @pytest.fixture
    def inputs(self, dicom_series, sphere_spec, tmp_path):
        """Paths of every input kind: the DICOM series and a mask for it,
        a phantom directory (with a manifest) with its grid and mask
        VOLVs, a model, a series with a slice of other dims and a
        truncated VOLV."""
        from volumetrica.nn.network import build_segmenter_3d, save_network

        mask = np.zeros((6, 24, 24), dtype=bool)
        mask[1:5, 7:17, 6:18] = True
        vio.write_volume(tmp_path / "series_mask.volv", BinaryMask(mask, Spacing(0.5, 0.5, 1.5)))
        ph = tmp_path / "ph"
        assert main(["phantom", "--spec", str(sphere_spec), "--out", str(ph)]) == 0
        save_network(build_segmenter_3d(seed=0), tmp_path / "net.vnet")
        bad_series = tmp_path / "bad_series"
        shutil.copytree(dicom_series, bad_series)
        ds = dl.make_slice_dataset(np.zeros((20, 24), dtype=np.uint16), position_z=30.0)
        (bad_series / "slice9.dcm").write_bytes(dl.write_file(ds))
        (tmp_path / "bad.volv").write_bytes(b"VOLV\x01")
        paths = {"series": dicom_series, "series_mask": tmp_path / "series_mask.volv",
                 "ph": ph, "grid": ph / "case_000_grid.volv", "mask": ph / "case_000_mask.volv",
                 "model": tmp_path / "net.vnet", "bad_series": bad_series,
                 "bad": tmp_path / "bad.volv"}
        return {k: str(v) for k, v in paths.items()}

    @pytest.mark.parametrize("argv", [
        ["--input", "{series}", "--mask", "{series_mask}", "--model", "{model}"],
        ["--input", "{series}", "--model", "{model}"],
        ["--input", "{ph}", "--model", "{model}", "--mask", "{mask}"],
        ["--input", "{mask}", "--model", "{model}"],
        ["--input", "{grid}", "--model", "{model}", "--radius", "4"],
        ["--input", "{series}", "--mask", "{series_mask}", "--model", "{model}",
         "--format", "csv"],
        ["--input", "{series}", "--mask", "{series_mask}", "--methods", "regression,spherical"],
    ], ids=["dicom-mask", "dicom-no-mask", "manifest-dir", "mask-volv", "grid-volv-no-mask",
            "csv-format", "methods-without-ml"])
    def test_reports_identical_at_one_and_two_workers(self, inputs, argv, monkeypatch,
                                                      tmp_path):
        argv = ["estimate", *(a.format(**inputs) for a in argv)]
        first, second = self._runs(monkeypatch, argv, tmp_path)
        assert first == second and first[0] == 0

    @pytest.mark.parametrize("argv, message", [
        (["--input", "{bad_series}", "--mask", "{bad}"], "slice 6 is 20x24, series is 24x24"),
        (["--input", "{series}", "--mask", "{mask}"],
         "mask dims (40, 40, 40) differ from grid dims (24, 24, 6)"),
        (["--input", "{series}", "--mask", "{grid}"], "needs a grid and a mask container"),
        (["--input", "{series}", "--mask", "{bad}"], "VOLV header truncated"),
        (["--input", "{mask}", "--model", "{model}", "--mask", "{bad}"], "VOLV header truncated"),
    ], ids=["bad-input-and-bad-mask", "mismatched-dims", "grid-volv-as-mask", "bad-mask",
            "mask-volv"])
    def test_failures_identical_at_one_and_two_workers(self, inputs, argv, message,
                                                       monkeypatch, tmp_path, capsys):
        argv = ["estimate", *(a.format(**inputs) for a in argv)]
        results = self._failed_runs(monkeypatch, argv, tmp_path, capsys)
        assert results[0] == results[1]
        assert results[0][0] == 2 and message in results[0][1]

    def test_mask_flag_is_the_mask_of_a_manifest_directory(self, inputs, monkeypatch,
                                                            tmp_path):
        """``--mask`` replaces a phantom case's own mask, and is hashed."""
        grid = vio.read_volume(inputs["grid"])
        one = np.zeros(grid.data.shape, dtype=bool)
        one[3, 4, 5] = True
        vio.write_volume(tmp_path / "one.volv", BinaryMask(one, grid.spacing))
        argv = ["estimate", "--input", inputs["ph"], "--mask", str(tmp_path / "one.volv"),
                "--methods", "area_based"]
        first, second = self._runs(monkeypatch, argv, tmp_path)
        assert first == second and first[0] == 0
        report = json.loads(first[1])
        voxel = grid.spacing.voxel_volume_mm3
        assert report["payload"]["methods"]["area_based"] == {"volume_mm3": voxel}
        assert str(tmp_path / "one.volv") in report["input_checksums"]

    def test_mask_flag_leaves_a_manifest_case_mask_unread(self, inputs, monkeypatch, tmp_path):
        """The case's own mask is read only when no ``--mask`` replaces it."""
        good = tmp_path / "good.volv"
        shutil.copyfile(inputs["mask"], good)
        argv = ["estimate", "--input", inputs["ph"], "--mask", str(good),
                "--methods", "area_based,regression", "--model", inputs["model"]]
        intact = self._runs(monkeypatch, argv, tmp_path)
        own = Path(inputs["mask"])
        own.write_bytes(own.read_bytes()[:60])
        truncated = self._runs(monkeypatch, argv, tmp_path)
        assert intact[0][0] == truncated[0][0] == 0
        assert truncated[0] == truncated[1]
        payloads = [json.loads(run[0][1])["payload"] for run in (intact, truncated)]
        assert payloads[0] == payloads[1]

    def test_manifest_directory_hashes_only_what_it_reads(self, inputs, monkeypatch, tmp_path):
        """A ``--mask`` that replaces the case's own mask leaves that mask
        out of the checksums; without one, it is read and hashed."""
        ph = Path(inputs["ph"])
        (ph / "notes.txt").write_text("not an input\n")
        read = [ph / "manifest.json", ph / "case_000_grid.volv"]
        good = tmp_path / "good.volv"
        shutil.copyfile(inputs["mask"], good)
        argv = ["estimate", "--input", str(ph), "--methods", "area_based"]
        for extra, hashed in [(["--mask", str(good)], [*read, good]),
                              ([], [*read, ph / "case_000_mask.volv"])]:
            first, second = self._runs(monkeypatch, argv + extra, tmp_path)
            assert first == second and first[0] == 0
            checksums = json.loads(first[1])["input_checksums"]
            assert checksums == {str(p): vio.sha256_file(p) for p in hashed}

    def test_mask_changed_after_its_read_exits_2(self, inputs, monkeypatch, tmp_path, capsys):
        """A mask file truncated after ``read_volume`` checked it stops the
        estimate with exit 2, naming the file, at either worker count."""
        mask = tmp_path / "changing.volv"
        read_volume = vio.read_volume

        def read_then_truncate(path):
            volume = read_volume(path)
            if Path(path) == mask:
                mask.write_bytes(mask.read_bytes()[:-1])
            return volume

        monkeypatch.setattr(vio, "read_volume", read_then_truncate)
        argv = ["estimate", "--input", inputs["series"], "--mask", str(mask),
                "--model", inputs["model"], "--out", str(tmp_path / "r.json")]
        errors = []
        for workers in (1, 2):
            shutil.copyfile(inputs["series_mask"], mask)
            monkeypatch.setattr(cli, "spare_workers", lambda tasks: workers)
            before = threading.enumerate()
            assert main(argv) == 2
            assert threading.enumerate() == before
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == (
            f"error: unreadable input: {mask}: VOLV file changed after it was checked\n")
        assert not (tmp_path / "r.json").exists()

    def test_hash_failure_identical_at_one_and_two_workers(self, inputs, monkeypatch, tmp_path,
                                                           capsys):
        def unreadable(path):
            raise OSError(f"cannot read {Path(path).name}")

        monkeypatch.setattr(vio, "sha256_file", unreadable)
        argv = ["estimate", "--input", inputs["series"], "--mask", inputs["series_mask"]]
        results = self._failed_runs(monkeypatch, argv, tmp_path, capsys)
        # the largest file is hashed first, so it fails first at either count
        assert results[0] == results[1] == (2, "error: cannot read series_mask.volv\n")

    def _failed_runs(self, monkeypatch, argv, tmp_path, capsys):
        """Exit code and stderr at one and two workers; no report is written."""
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(cli, "spare_workers", lambda tasks: workers)
            before = threading.enumerate()
            code = main(argv + ["--out", str(tmp_path / "r.json")])
            assert threading.enumerate() == before
            results.append((code, capsys.readouterr().err))
        assert not (tmp_path / "r.json").exists()
        return results

    def test_many_workers_with_a_short_switch_interval(self, inputs, monkeypatch, tmp_path):
        argv = ["estimate", "--input", inputs["series"], "--model", inputs["model"]]
        expected = self._runs(monkeypatch, argv, tmp_path)[0]
        monkeypatch.setattr(cli, "spare_workers", lambda tasks: min(tasks, 8))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                before = threading.enumerate()
                assert main(argv + ["--out", str(tmp_path / "r.json"), "--seed", "3"]) == 0
                assert threading.enumerate() == before
                assert (0, (tmp_path / "r.json").read_bytes()) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_shared_value_is_made_once(self):
        made = []

        def make():
            made.append(threading.current_thread())
            time.sleep(0.01)
            raise InputError("unreadable")

        shared = cli._Shared(make)
        errors = []

        def ask():
            try:
                shared.get()
            except InputError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=ask) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(made) == 1 and len(errors) == 12 and len({id(e) for e in errors}) == 1

    @pytest.mark.parametrize("mask", [True, False], ids=["mask", "no-mask"])
    def test_one_worker_finishes(self, inputs, mask, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "spare_workers", lambda tasks: 1)
        argv = ["estimate", "--input", inputs["series"], "--model", inputs["model"],
                "--out", str(tmp_path / "r.json")]
        if mask:
            argv += ["--mask", inputs["series_mask"]]
        codes = []
        run = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
        run.start()
        run.join(timeout=60)
        assert not run.is_alive() and codes == [0]


class TestCohortWorkers:
    """The cohort commands split their cases (and ``stats`` its CV folds
    and their scoring) over the CPUs that BLAS leaves spare; the output
    bytes and the failures do not depend on how many there are."""

    @pytest.fixture
    def spec(self, tmp_path):
        entries = [{"dims": [24, 24, 24], "spacing_mm": [1.0, 1.0, 1.0], "noise_sigma": 0.05,
                    "shape": "sphere", "radius_mm": 4.0 + i} for i in range(6)]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"cohort": entries}))
        return path

    @staticmethod
    def _set_workers(monkeypatch, workers):
        monkeypatch.setattr(cli, "spare_workers", lambda tasks: min(tasks, workers))
        monkeypatch.setattr(resample, "_fold_workers", lambda k: min(k, workers))

    def test_outputs_identical_at_one_and_two_workers(self, spec, tmp_path, monkeypatch):
        run = tmp_path / "run"  # reports embed their input paths
        manifest, model = str(run / "ph" / "manifest.json"), str(run / "model" / "net.vnet")
        argvs = [
            ["phantom", "--spec", str(spec), "--out", str(run / "ph")],
            ["train", "--cohort", manifest, "--out", str(run / "model"), "--epochs", "2"],
            ["eval", "--cohort", manifest, "--model", model, "--out", str(run / "eval.json")],
            ["eval", "--cohort", manifest, "--model", model, "--format", "csv",
             "--out", str(run / "eval.csv")],
            ["compare", "--cohort", manifest, "--model", model, "--out",
             str(run / "compare.json"), "--emit-plot-csv", str(run / "plot.csv")],
            ["stats", "--cohort", manifest, "--folds", "3", "--epochs", "2",
             "--out", str(run / "stats.json")],
        ]
        outputs = []
        for workers in (1, 2):
            self._set_workers(monkeypatch, workers)
            shutil.rmtree(run, ignore_errors=True)
            before = threading.enumerate()
            for argv in argvs:
                assert main(argv + ["--seed", "5"]) == 0, argv[0]
            assert threading.enumerate() == before
            outputs.append({str(p.relative_to(run)): p.read_bytes()
                            for p in sorted(run.rglob("*")) if p.is_file()})
        # 6 phantoms and their manifest, the model directory, 5 reports
        assert len(outputs[0]) == 6 * 2 + 1 + 3 + 5
        assert outputs[0] == outputs[1]

    def test_first_failing_case_decides_at_one_and_two_workers(self, spec, tmp_path,
                                                               monkeypatch, capsys):
        ph = tmp_path / "ph"
        assert main(["phantom", "--spec", str(spec), "--out", str(ph), "--seed", "5"]) == 0
        for i in (1, 3):  # empty masks: the manual methods have no slice area to use
            path = ph / f"case_{i:03d}_mask.volv"
            mask = vio.read_volume(path)
            vio.write_volume(path, BinaryMask(np.zeros_like(mask.data), mask.spacing))
        out = tmp_path / "stats.json"
        results = []
        for workers in (1, 2):
            self._set_workers(monkeypatch, workers)
            before = threading.enumerate()
            code = main(["stats", "--cohort", str(ph / "manifest.json"), "--folds", "3",
                         "--epochs", "2", "--out", str(out)])
            assert threading.enumerate() == before
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == 1
        assert results[0][1].startswith("error: case_001: spherical failed: ")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow, on any fold thread
    def test_diverging_fold_is_named_alike_at_one_and_two_workers(self, spec, tmp_path,
                                                                  monkeypatch, capsys):
        ph = tmp_path / "ph"
        assert main(["phantom", "--spec", str(spec), "--out", str(ph), "--seed", "5"]) == 0
        out = tmp_path / "stats.json"
        results = []
        for workers in (1, 2):
            self._set_workers(monkeypatch, workers)
            before = threading.enumerate()
            code = main(["stats", "--cohort", str(ph / "manifest.json"), "--folds", "3",
                         "--epochs", "2", "--lr", "1e30", "--out", str(out)])
            assert threading.enumerate() == before
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0] == (1, "error: TrainingDivergedError: fold 0: epoch 1, case 1: "
                                 "non-finite loss nan\n")
        assert not out.exists()

    def test_diverging_train_names_epoch_and_case(self, spec, tmp_path, capsys):
        ph = tmp_path / "ph"
        assert main(["phantom", "--spec", str(spec), "--out", str(ph), "--seed", "5"]) == 0
        capsys.readouterr()
        with np.errstate(all="ignore"):
            code = main(["train", "--cohort", str(ph / "manifest.json"), "--out",
                         str(tmp_path / "m"), "--epochs", "2", "--lr", "1e300"])
        assert (code, capsys.readouterr().err) == (
            1, "error: TrainingDivergedError: epoch 1, case 1: non-finite loss nan\n")
        assert not (tmp_path / "m" / "net.vnet").exists()


    def test_case_reads_count_in_case_order(self, spec, tmp_path, monkeypatch, capsys):
        """Each case is read inside its own task, so a read error counts in
        case order like any other failure: case 1's failing estimate
        decides ``stats``, not case 3's truncated grid, and a bad
        ``--model`` decides ``eval`` before any case is read."""
        from volumetrica.nn.network import build_segmenter_3d, save_network

        ph = tmp_path / "ph"
        assert main(["phantom", "--spec", str(spec), "--out", str(ph), "--seed", "5"]) == 0
        path = ph / "case_001_mask.volv"
        mask = vio.read_volume(path)
        vio.write_volume(path, BinaryMask(np.zeros_like(mask.data), mask.spacing))
        grid = ph / "case_003_grid.volv"
        grid.write_bytes(grid.read_bytes()[:-100])
        model = tmp_path / "net.vnet"
        save_network(build_segmenter_3d(seed=0), model)
        model.write_bytes(model.read_bytes()[:-10])
        manifest = str(ph / "manifest.json")
        argvs = [["stats", "--cohort", manifest, "--folds", "3", "--epochs", "1"],
                 ["eval", "--cohort", manifest, "--model", str(model)]]
        results = []
        for workers in (1, 2):
            self._set_workers(monkeypatch, workers)
            for argv in argvs:
                before = threading.enumerate()
                results.append((main(argv), capsys.readouterr().err))
                assert threading.enumerate() == before
        assert results[:2] == results[2:]
        (stats_code, stats_err), (eval_code, eval_err) = results[:2]
        assert stats_code == 1 and stats_err.startswith("error: case_001: spherical failed: ")
        assert eval_code == 2
        assert eval_err.startswith(f"error: unreadable input: cannot load model {model}: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_prints_only_its_error(self, spec, tmp_path, monkeypatch, capsys):
        """A diverging step computes with numpy's floating-point warnings
        off, on whichever thread takes it, so the error line is all that
        ``train`` and ``stats`` print to stderr."""
        ph = tmp_path / "ph"
        assert main(["phantom", "--spec", str(spec), "--out", str(ph), "--seed", "5"]) == 0
        capsys.readouterr()
        manifest = str(ph / "manifest.json")
        for workers in (1, 2):
            self._set_workers(monkeypatch, workers)
            code = main(["train", "--cohort", manifest, "--out", str(tmp_path / "m"),
                         "--epochs", "2", "--lr", "1e300"])
            assert (code, capsys.readouterr().err) == (
                1, "error: TrainingDivergedError: epoch 1, case 1: non-finite loss nan\n")
            code = main(["stats", "--cohort", manifest, "--folds", "3", "--epochs", "2",
                         "--lr", "1e30", "--out", str(tmp_path / "stats.json")])
            assert (code, capsys.readouterr().err) == (
                1, "error: TrainingDivergedError: fold 0: epoch 1, case 1: non-finite loss nan\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_last_step_is_an_error(self, tmp_path, capsys):
        """The last step's overflow shows in no later loss, so the
        parameters are checked after it: ``train`` on one case and a
        ``stats`` fold trained on one case fail, and no model is written
        that ``eval`` would refuse to load."""
        entries = [{"dims": [24, 24, 24], "spacing_mm": [1.0, 1.0, 1.0], "noise_sigma": 0.05,
                    "shape": "sphere", "radius_mm": 4.0 + i} for i in range(3)]
        for n in (1, 3):
            spec = tmp_path / f"spec{n}.json"
            spec.write_text(json.dumps({"cohort": entries[:n]}))
            assert main(["phantom", "--spec", str(spec), "--out", str(tmp_path / f"ph{n}")]) == 0
        capsys.readouterr()
        code = main(["train", "--cohort", str(tmp_path / "ph1" / "manifest.json"),
                     "--out", str(tmp_path / "m"), "--epochs", "1", "--lr", "1e300"])
        assert (code, capsys.readouterr().err) == (
            1, "error: TrainingDivergedError: epoch 1, case 0: non-finite parameter\n")
        assert not (tmp_path / "m" / "net.vnet").exists()
        # 2 folds of 3 cases: fold 0 holds out 2 and trains on case 0
        code = main(["stats", "--cohort", str(tmp_path / "ph3" / "manifest.json"),
                     "--folds", "2", "--epochs", "1", "--lr", "1e300"])
        assert (code, capsys.readouterr().err) == (
            1, "error: TrainingDivergedError: fold 0: epoch 1, case 0: non-finite parameter\n")


class TestCsvHashesNothing:
    """A CSV output carries no checksums, so no input is hashed for it."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        calls = []
        sha256_file = vio.sha256_file

        def counting(path):
            calls.append(Path(path))
            return sha256_file(path)

        monkeypatch.setattr(vio, "sha256_file", counting)
        return calls

    def test_estimate(self, tmp_path, hashed):
        series = tmp_path / "s.csv"
        series.write_text("position_mm,area_mm2\n0,3\n1,5\n2,4\n3,1\n")
        out = tmp_path / "r.csv"
        assert main(["estimate", "--input", str(series), "--format", "csv",
                     "--out", str(out)]) == 0
        assert hashed == []
        assert out.read_text() == ("method,volume_mm3,error\n"
                                   "spherical,8.410441740067203,\n"
                                   "area_based,13.0,\n"
                                   "regression,11.624999999999993,\n")
        report = tmp_path / "r.json"
        assert main(["estimate", "--input", str(series), "--out", str(report)]) == 0
        assert hashed == [series]
        doc = json.loads(report.read_text())
        assert doc["input_checksums"] == {str(series): hashlib.sha256(series.read_bytes()).hexdigest()}
        assert {m: v["volume_mm3"] for m, v in doc["payload"]["methods"].items()} == {
            "spherical": 8.410441740067203, "area_based": 13.0, "regression": 11.624999999999993}

    def test_eval(self, small_cohort, tmp_path, hashed):
        from volumetrica.nn.network import build_segmenter_3d, save_network

        model = tmp_path / "net.vnet"
        save_network(build_segmenter_3d(seed=3), model)
        argv = ["eval", "--cohort", str(small_cohort), "--model", str(model)]
        out = tmp_path / "eval.csv"
        assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
        assert hashed == []
        report = tmp_path / "eval.json"
        assert main(argv + ["--out", str(report)]) == 0
        assert hashed == [small_cohort, model]
        doc = json.loads(report.read_text())
        assert doc["input_checksums"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (small_cohort, model)}
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [{k: str(v) for k, v in r.items()} for r in doc["payload"]["cases"]] == rows


BAD_NUMBERS = [
    (["train", "--cohort", "m.json", "--out", "o", "--epochs", "0"], "--epochs"),
    (["stats", "--cohort", "m.json", "--epochs", "0"], "--epochs"),
    (["stats", "--cohort", "m.json", "--folds", "1"], "--folds"),
    (["train", "--cohort", "m.json", "--out", "o", "--lr", "-1"], "--lr"),
    (["train", "--cohort", "m.json", "--out", "o", "--lr", "inf"], "--lr"),
    (["stats", "--cohort", "m.json", "--lr", "nan"], "--lr"),
    (["estimate", "--input", "x.csv", "--radius", "nan"], "--radius"),
    (["estimate", "--input", "x.csv", "--radius", "0"], "--radius"),
    (["estimate", "--input", "x.csv", "--threshold", "2"], "--threshold"),
    (["eval", "--cohort", "m.json", "--model", "n.vnet", "--threshold", "1.5"], "--threshold"),
    (["eval", "--cohort", "m.json", "--model", "n.vnet", "--threshold", "nan"], "--threshold"),
    (["compare", "--cohort", "m.json", "--threshold", "0"], "--threshold"),
    (["stats", "--cohort", "m.json", "--threshold", "1"], "--threshold"),
]


class TestArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["phantom", "--spec", "s.json"],
            ["ingest", "--input", "d"],
            ["train", "--cohort", "m.json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_required_for_directory_outputs(self, argv):
        # argparse exits before the command reads its inputs
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["phantom", "--spec", "s.json", "--out", "o"],
            ["parse", "--input", "x.dcm"],
            ["ingest", "--input", "d", "--out", "o"],
            ["train", "--cohort", "m.json", "--out", "o"],
            ["compare", "--cohort", "m.json"],
            ["stats", "--cohort", "m.json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_format_rejected_where_unused(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, flag", BAD_NUMBERS, ids=[f"{argv[0]}{flag}={argv[-1]}" for argv, flag in BAD_NUMBERS]
    )
    def test_out_of_range_number_exits_2(self, argv, flag, capsys):
        # rejected by argparse before the command reads its inputs
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
