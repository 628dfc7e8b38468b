"""One input-error contract: every reader raises InputError for a
malformed file or field, and the command line exits 2 for it, whichever
command reads the file."""

import json
import math
import shutil
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from volumetrica import dicomlite as dl
from volumetrica import io as vio
from volumetrica.cli import main
from volumetrica.errors import InputError
from volumetrica.grid import BinaryMask, Spacing, VoxelGrid
from volumetrica.nn.network import (
    ConvLayer,
    build_segmenter_2d,
    build_segmenter_3d,
    load_network,
    save_network,
)
from volumetrica.phantoms import ShapeOutOfBoundsError, load_phantom_config

# tier-1 runs must be reproducible: no example database, a fixed seed
FUZZ = settings(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

SPHERE = {"shape": "sphere", "radius_mm": 3.0, "dims": [16, 16, 16], "spacing_mm": [1, 1, 1]}


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """Two 16^3 phantoms, their manifest and an untrained 3-D network."""
    root = tmp_path_factory.mktemp("cohort")
    spec = root / "spec.json"
    spec.write_text(json.dumps({"cohort": [SPHERE, dict(SPHERE, radius_mm=4.0)]}))
    assert main(["phantom", "--spec", str(spec), "--out", str(root / "ph"), "--seed", "1"]) == 0
    save_network(build_segmenter_3d(seed=0), root / "net.vnet")
    return root


def _write_manifest(directory, cases_text):
    """A manifest whose 'cases' is the given JSON text, next to the volumes."""
    directory.mkdir(exist_ok=True)
    path = directory / "manifest.json"
    path.write_text('{"seed": 1, "cases": ' + cases_text + "}")
    return path


def _case(cohort, i=0):
    doc = json.loads((cohort / "ph" / "manifest.json").read_text())
    return doc["payload"]["cases"][i]


def _copy_volumes(cohort, directory):
    directory.mkdir(exist_ok=True)
    for volv in (cohort / "ph").glob("*.volv"):
        shutil.copy(volv, directory / volv.name)


def _with_literal(case, key, literal):
    """``case`` as JSON text with ``key`` set to a raw literal such as NaN."""
    return json.dumps(dict(case, **{key: "@"})).replace('"@"', literal)


# each mutation turns the first case of a valid manifest into a bad one;
# values are JSON text so NaN and 1e999 reach the reader as written
BAD_CASES = {
    "missing-mask": lambda c: json.dumps({k: v for k, v in c.items() if k != "mask"}),
    "missing-id": lambda c: json.dumps({k: v for k, v in c.items() if k != "id"}),
    "not-an-object": lambda c: "5",
    "numeric-grid": lambda c: json.dumps(dict(c, grid=7)),
    "nan-truth": lambda c: _with_literal(c, "analytic_volume_mm3", "NaN"),
    "overflow-truth": lambda c: _with_literal(c, "analytic_volume_mm3", "1e999"),
    "negative-truth": lambda c: json.dumps(dict(c, analytic_volume_mm3=-5.0)),
    "zero-truth": lambda c: json.dumps(dict(c, analytic_volume_mm3=0)),
    "string-truth": lambda c: json.dumps(dict(c, analytic_volume_mm3="12.5")),
}

COMMANDS = {
    # estimate reads a one-case manifest from its directory
    "estimate": lambda m, root: ["estimate", "--input", str(m.parent)],
    "train": lambda m, root: ["train", "--cohort", str(m), "--out", str(root / "t"),
                              "--epochs", "1"],
    "eval": lambda m, root: ["eval", "--cohort", str(m), "--model", str(root / "net.vnet")],
    "compare": lambda m, root: ["compare", "--cohort", str(m)],
    "stats": lambda m, root: ["stats", "--cohort", str(m), "--folds", "2", "--epochs", "1"],
}


class TestManifest:
    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("bad", list(BAD_CASES))
    def test_bad_case_exits_2(self, cohort, tmp_path, capsys, bad, command):
        directory = tmp_path / "m"
        _copy_volumes(cohort, directory)
        cases = [BAD_CASES[bad](_case(cohort))]
        if command != "estimate":
            cases.append(json.dumps(_case(cohort, 1)))
        manifest = _write_manifest(directory, "[" + ", ".join(cases) + "]")
        with pytest.raises(InputError):
            vio.read_cohort_manifest(manifest)
        assert main(COMMANDS[command](manifest, tmp_path)) == 2
        assert "unreadable input" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_empty_cases_exit_2(self, cohort, tmp_path, command):
        manifest = _write_manifest(tmp_path / "m", "[]")
        assert main(COMMANDS[command](manifest, tmp_path)) == 2


@pytest.mark.parametrize("methods", ["", " , "])
def test_empty_method_list_exits_2(tmp_path, methods):
    csv = tmp_path / "s.csv"
    csv.write_text("position_mm,area_mm2\n0,3\n1,3\n")
    assert main(["estimate", "--input", str(csv), "--methods", methods]) == 2


class TestCaseContainers:
    @pytest.fixture
    def small_mask(self, tmp_path):
        path = tmp_path / "mask4.volv"
        vio.write_volume(path, BinaryMask(np.ones((4, 4, 4), bool), Spacing(1, 1, 1)))
        return path

    def test_mask_dims_differ_through_mask_flag(self, cohort, small_mask, capsys):
        grid = cohort / "ph" / _case(cohort)["grid"]
        assert main(["estimate", "--input", str(grid), "--mask", str(small_mask)]) == 2
        assert "mask dims (4, 4, 4) differ from grid dims (16, 16, 16)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "compare"])
    def test_mask_dims_differ_through_manifest(self, cohort, small_mask, tmp_path, command):
        directory = tmp_path / "m"
        _copy_volumes(cohort, directory)
        shutil.copy(small_mask, directory / "mask4.volv")
        manifest = _write_manifest(directory, json.dumps([dict(_case(cohort), mask="mask4.volv")]))
        assert main(COMMANDS[command](manifest, tmp_path)) == 2

    def test_swapped_containers_exit_2(self, cohort, tmp_path):
        directory = tmp_path / "m"
        _copy_volumes(cohort, directory)
        case = _case(cohort)
        swapped = dict(case, grid=case["mask"], mask=case["grid"])
        manifest = _write_manifest(directory, json.dumps([swapped]))
        assert main(COMMANDS["compare"](manifest, tmp_path)) == 2

    def test_spacing_is_not_compared(self, cohort, tmp_path):
        # DICOM stores spacing rounded to 6 decimals, so an ingested grid
        # and its mask may differ in the last digits
        case = _case(cohort)
        mask = vio.read_volume(cohort / "ph" / case["mask"])
        near = tmp_path / "near.volv"
        vio.write_volume(near, BinaryMask(mask.data, Spacing(1.0000001, 1, 1)))
        grid = cohort / "ph" / case["grid"]
        assert main(["estimate", "--input", str(grid), "--mask", str(near),
                     "--methods", "area_based"]) == 0


class TestPhantomSpec:
    @pytest.mark.parametrize(
        "entry_text",
        [
            _with_literal(SPHERE, "noise_sigma", "NaN"),
            _with_literal(SPHERE, "noise_sigma", "1e999"),
            json.dumps(dict(SPHERE, noise_sigma="nan")),
            json.dumps(dict(SPHERE, noise_sigma=-0.1)),
            json.dumps(dict(SPHERE, noise_sigma=1e308)),
            json.dumps(dict(SPHERE, center_mm=["nan", 8, 8])),
            json.dumps(dict(SPHERE, center_mm=[8])),
            json.dumps(dict(SPHERE, radius_mm=30.0)),
            "5",
            # the first entry's default id
            json.dumps(dict(SPHERE, id="case_000")),
            json.dumps(dict(SPHERE, id="../escaped")),
            *(json.dumps(dict(SPHERE, id=v)) for v in (5, "", ".", "..", "a\\b", "a\0b")),
        ],
        ids=["nan-literal", "overflow-literal", "nan-string", "negative", "huge", "nan-center",
             "short-center", "out-of-bounds", "not-an-object", "duplicate-id", "path-escape-id",
             "id-not-a-string", "empty-id", "dot-id", "dot-dot-id", "backslash-id", "nul-id"],
    )
    def test_bad_second_entry_writes_nothing(self, tmp_path, capsys, entry_text):
        spec = tmp_path / "spec.json"
        spec.write_text('{"cohort": [' + json.dumps(SPHERE) + ", " + entry_text + "]}")
        out = tmp_path / "out"
        assert main(["phantom", "--spec", str(spec), "--out", str(out)]) == 2
        assert "unreadable input" in capsys.readouterr().err
        assert not list(out.glob("*.volv"))
        assert {p.name for p in tmp_path.iterdir()} <= {"spec.json", "out"}

    def test_dims_bound_names_the_entry(self, tmp_path, capsys):
        """A grid over the voxel bound is refused before anything is
        allocated: 2^60 voxels would be 8 EiB of float64."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cohort": [SPHERE, dict(SPHERE, dims=[1 << 20] * 3)]}))
        assert main(["phantom", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{spec}: case 1: invalid phantom config: dims [1048576, 1048576, 1048576] " \
               "hold 1152921504606846976 voxels, more than the 16777216" in err
        assert not (tmp_path / "o").exists()

    def test_dims_bound_is_inclusive(self):
        at, over = dict(SPHERE, dims=[256, 256, 256]), dict(SPHERE, dims=[256, 256, 257])
        assert load_phantom_config(at)[1] == (256, 256, 256)
        with pytest.raises(InputError, match="more than the 16777216 a phantom may have"):
            load_phantom_config(over)

    def test_id_messages(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cohort": [dict(SPHERE, id="a"), dict(SPHERE, id="b"),
                                               dict(SPHERE, id="a", radius_mm=4.0)]}))
        assert main(["phantom", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "case 2: id 'a' repeats the id of case 0" in capsys.readouterr().err
        spec.write_text(json.dumps(dict(SPHERE, id="a/b")))
        assert main(["phantom", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "id 'a/b' must be a non-empty file-name stem" in capsys.readouterr().err

    def test_missing_key_message(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({k: v for k, v in SPHERE.items() if k != "spacing_mm"}))
        assert main(["phantom", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("invalid phantom config") == 1
        assert "missing key 'spacing_mm'" in err

    def test_cohort_must_be_a_list(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cohort": 5}))
        assert main(["phantom", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2

    def test_empty_cohort_writes_nothing(self, tmp_path, capsys):
        # every cohort command refuses a manifest with no cases
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cohort": []}))
        out = tmp_path / "o"
        assert main(["phantom", "--spec", str(spec), "--out", str(out)]) == 2
        assert "'cohort' must be a non-empty list" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_typed_errors_keep_value_error_ancestry(self):
        for cls in (ShapeOutOfBoundsError, dl.DicomParseError, dl.NoValidImagesError,
                    dl.GeometryMismatchError):
            assert issubclass(cls, InputError) and issubclass(cls, ValueError)


class TestNetwork:
    @pytest.fixture
    def nan_bias_model(self, tmp_path):
        net = build_segmenter_3d(seed=0)
        last = net.layers[-1]
        bias = last.bias.copy()
        bias[-1] = np.nan
        net.layers[-1] = ConvLayer(last.weights, bias, last.activation)
        path = tmp_path / "nan.vnet"
        save_network(net, path)
        return path

    def test_non_finite_parameter_rejected(self, nan_bias_model):
        with pytest.raises(InputError, match=f"cannot load model {nan_bias_model}: non-finite"):
            load_network(nan_bias_model)

    def test_estimate_and_eval_exit_2(self, cohort, nan_bias_model, capsys):
        grid = cohort / "ph" / _case(cohort)["grid"]
        mask = cohort / "ph" / _case(cohort)["mask"]
        assert main(["estimate", "--input", str(grid), "--mask", str(mask),
                     "--methods", "ml", "--model", str(nan_bias_model)]) == 2
        assert main(["eval", "--cohort", str(cohort / "ph" / "manifest.json"),
                     "--model", str(nan_bias_model)]) == 2
        assert capsys.readouterr().err.count("cannot load model") == 2

    def test_eval_with_2d_model_exits_2(self, cohort, tmp_path, capsys):
        model = tmp_path / "net2d.vnet"
        save_network(build_segmenter_2d(seed=0), model)
        assert main(["eval", "--cohort", str(cohort / "ph" / "manifest.json"),
                     "--model", str(model)]) == 2
        err = capsys.readouterr().err
        assert f"cannot load model {model}: needs a 3-D model, got a 2-D one" in err

    @pytest.mark.parametrize("methods", ["ml", "area_based"])
    def test_estimate_with_2d_model_exits_2(self, cohort, tmp_path, capsys, methods):
        model = tmp_path / "net2d.vnet"
        save_network(build_segmenter_2d(seed=0), model)
        case = _case(cohort)
        assert main(["estimate", "--input", str(cohort / "ph" / case["grid"]),
                     "--mask", str(cohort / "ph" / case["mask"]), "--methods", methods,
                     "--model", str(model), "--out", str(tmp_path / "e.json")]) == 2
        err = capsys.readouterr().err
        assert f"cannot load model {model}: needs a 3-D model, got a 2-D one" in err
        assert not (tmp_path / "e.json").exists()

    def test_compare_with_2d_model_exits_2(self, cohort, tmp_path, capsys):
        model = tmp_path / "net2d.vnet"
        save_network(build_segmenter_2d(seed=0), model)
        assert main(["compare", "--cohort", str(cohort / "ph" / "manifest.json"),
                     "--model", str(model), "--out", str(tmp_path / "c.json")]) == 2
        err = capsys.readouterr().err
        assert f"cannot load model {model}: needs a 3-D model, got a 2-D one" in err
        assert not (tmp_path / "c.json").exists()


class TestDicom:
    def _series(self, directory, **kwargs):
        directory.mkdir()
        for k in range(3):
            ds = dl.make_slice_dataset(np.full((8, 8), 10, np.uint16), position_z=float(k),
                                       **kwargs)
            (directory / f"s{k}.dcm").write_bytes(dl.write_file(ds))
        return directory

    def test_unparseable_spacing_exits_2(self, tmp_path):
        src = self._series(tmp_path / "d")
        for path in src.iterdir():
            ds = dl.parse_file(path.read_bytes())
            ds.put(dl.TAG_PIXEL_SPACING, "DS", b"abc\\def ")
            path.write_bytes(dl.write_file(ds))
        assert main(["ingest", "--input", str(src), "--out", str(tmp_path / "o")]) == 2
        assert main(["estimate", "--input", str(src), "--methods", "area_based"]) == 2

    @pytest.mark.parametrize("value", [b"0.7 ", b"  "], ids=["one-value", "empty"])
    def test_short_pixel_spacing_exits_2(self, tmp_path, capsys, value):
        # a present PixelSpacing without two values is an error, not a
        # missing tag that defaults to 1 mm
        src = self._series(tmp_path / "d")
        for path in src.iterdir():
            ds = dl.parse_file(path.read_bytes())
            ds.put(dl.TAG_PIXEL_SPACING, "DS", value)
            path.write_bytes(dl.write_file(ds))
        with pytest.raises(dl.GeometryMismatchError, match="PixelSpacing"):
            dl.read_directory(src)
        assert main(["ingest", "--input", str(src), "--out", str(tmp_path / "o")]) == 2
        assert main(["estimate", "--input", str(src), "--methods", "area_based"]) == 2
        assert capsys.readouterr().err.count("PixelSpacing") == 2

    @pytest.mark.parametrize("z", ["nan", "inf", "-1e999"])
    def test_non_finite_position_exits_2_before_writing(self, tmp_path, capsys, z):
        src = self._series(tmp_path / "d")
        path = src / "s1.dcm"
        ds = dl.parse_file(path.read_bytes())
        ds.put(dl.TAG_IMAGE_POSITION, "DS", f"0\\0\\{z}".encode() + b" " * (len(z) % 2))
        path.write_bytes(dl.write_file(ds))
        with pytest.raises(dl.DicomParseError, match="non-finite"):
            dl.read_directory(src)
        out = tmp_path / "o"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tag, value, message", [
        (dl.TAG_BITS_ALLOCATED, 0, "BitsAllocated 0 not supported"),
        (dl.TAG_PIXEL_REPRESENTATION, 2, "PixelRepresentation 2 not supported"),
        (dl.TAG_PIXEL_REPRESENTATION, 0xFFFF, "PixelRepresentation 65535 not supported"),
    ], ids=["bits-0", "representation-2", "representation-max"])
    def test_undecodable_pixel_format_exits_2(self, tmp_path, capsys, tag, value, message):
        # a present value that names no supported format is an error, not
        # a missing tag that takes its default
        src = self._series(tmp_path / "d")
        datasets = []
        for path in sorted(src.iterdir()):
            ds = dl.parse_file(path.read_bytes())
            ds.put(tag, "US", struct.pack("<H", value))
            path.write_bytes(dl.write_file(ds))
            datasets.append(ds)
        with pytest.raises(dl.DicomParseError, match=message):
            dl.read_series(datasets)
        out = tmp_path / "o"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_rescale_exits_2(self, tmp_path):
        src = self._series(tmp_path / "d", rescale=(math.nan, 0.0))
        assert main(["ingest", "--input", str(src), "--out", str(tmp_path / "o")]) == 2

    def test_short_meta_group_length_exits_2(self, tmp_path):
        blob = dl.write_file(dl.make_slice_dataset(np.ones((4, 4), np.uint16)))
        # (0002,0000) UL after the preamble: tag, VR, a 2-byte length of 4, the value
        assert blob[132:140] == b"\x02\x00\x00\x00UL\x04\x00"
        bad = tmp_path / "bad.dcm"
        bad.write_bytes(blob[:138] + b"\x02\x00" + blob[140:142] + blob[144:])
        assert main(["parse", "--input", str(bad)]) == 2


# ---------------------------------------------------------------- fuzzing
#
# Each reader either returns a well-formed value or raises InputError,
# and the command that reads the file exits 2 exactly when it raised.


def _flip(blob: bytes, bits) -> bytes:
    data = bytearray(blob)
    for bit in bits:
        data[bit // 8] ^= 1 << (bit % 8)
    return bytes(data)


def _bit_flips(blob: bytes):
    return st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=3)


def _loads_or_raises(reader, path):
    try:
        return reader(path), False
    except InputError:
        return None, True


@pytest.fixture(scope="module")
def vnet_blob(tmp_path_factory):
    """A version-2 container of a float64 3-D network."""
    path = tmp_path_factory.mktemp("vnet") / "net.vnet"
    save_network(build_segmenter_3d(seed=2), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def vnet32_blob(tmp_path_factory):
    """A version-2 container of a float32 3-D network with a known extent,
    as ``train`` writes it."""
    net = build_segmenter_3d(seed=2, dtype=np.float32)
    net.extent_mm = (44.0, 44.0, 44.0)
    path = tmp_path_factory.mktemp("vnet32") / "net.vnet"
    save_network(net, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def series_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "s.csv"
    path.write_text("position_mm,area_mm2\n0,3\n1,5.5\n2,4\n3,0\n")
    return path


def _assert_finite_network(net):
    for layer in net.layers:
        if isinstance(layer, ConvLayer):
            assert np.all(np.isfinite(layer.weights)) and np.all(np.isfinite(layer.bias))


class TestFuzzNetwork:
    def test_every_prefix_and_an_over_long_file_raise(self, vnet_blob, tmp_path):
        # 114 header and layer-table bytes, 929 float64 parameters
        assert len(vnet_blob) == 7546
        assert vnet_blob[4:9] == struct.pack("<IB", 2, 8)
        bad = tmp_path / "bad.vnet"
        for data in [vnet_blob[:cut] for cut in range(len(vnet_blob))] + [vnet_blob + b"\0"]:
            bad.write_bytes(data)
            with pytest.raises(InputError, match="cannot load model"):
                load_network(bad)

    def test_every_float32_prefix_and_an_over_long_file_raise(self, vnet32_blob, tmp_path):
        # the same 114 bytes, 929 float32 parameters
        assert len(vnet32_blob) == 3830
        assert vnet32_blob[4:9] == struct.pack("<IB", 2, 4)
        bad = tmp_path / "bad.vnet"
        for data in [vnet32_blob[:cut] for cut in range(len(vnet32_blob))] + [vnet32_blob + b"\0"]:
            bad.write_bytes(data)
            with pytest.raises(InputError, match="cannot load model"):
                load_network(bad)

    @FUZZ
    @given(data=st.data())
    def test_bit_flips_anywhere(self, vnet_blob, vnet32_blob, series_csv, tmp_path, data):
        blob = data.draw(st.sampled_from([vnet_blob, vnet32_blob]))
        bits = data.draw(_bit_flips(blob))
        bad = tmp_path / "flipped.vnet"
        bad.write_bytes(_flip(blob, bits))
        net, raised = _loads_or_raises(load_network, bad)
        if not raised:
            _assert_finite_network(net)
        code = main(["estimate", "--input", str(series_csv), "--model", str(bad),
                     "--methods", "area_based"])
        assert code == (2 if raised else 0)


class TestFuzzDicom:
    @FUZZ
    @given(data=st.data())
    def test_bit_flips(self, tmp_path, data):
        ds = dl.make_slice_dataset(np.arange(16, dtype=np.uint16).reshape(4, 4), position_z=1.0,
                                   rescale=(1.0, -5.0))
        blob = dl.write_file(ds)
        path = tmp_path / "s.dcm"
        path.write_bytes(_flip(blob, data.draw(_bit_flips(blob))))
        _, raised = _loads_or_raises(lambda p: dl.parse_file(p.read_bytes()), path)
        assert main(["parse", "--input", str(path)]) == (2 if raised else 0)

    @FUZZ
    @given(data=st.data())
    def test_ingest_bit_flips(self, tmp_path, data):
        src = tmp_path / "series"
        src.mkdir(exist_ok=True)
        blobs = [
            dl.write_file(dl.make_slice_dataset(
                np.arange(16, dtype=np.uint16).reshape(4, 4) + k, pixel_spacing=(0.5, 0.7),
                slice_thickness=2.0, position_z=2.0 * k, instance_number=k + 1,
            ))
            for k in range(3)
        ]
        k = data.draw(st.integers(0, len(blobs) - 1))
        blobs[k] = _flip(blobs[k], data.draw(_bit_flips(blobs[k])))
        for i, blob in enumerate(blobs):
            (src / f"s{i}.dcm").write_bytes(blob)
        loaded, raised = _loads_or_raises(dl.read_directory, src)
        if not raised:
            grid = loaded[0]
            assert np.all(np.isfinite(grid.data)) and grid.dims[:2] == (4, 4)
        code = main(["ingest", "--input", str(src), "--out", str(tmp_path / "out")])
        assert code == (2 if raised else 0)


class TestFuzzSeriesCsv:
    def _check(self, path):
        series, raised = _loads_or_raises(vio.read_series_csv, path)
        if not raised:
            again = path.with_name("again.csv")
            vio.write_series_csv(again, series)
            back = vio.read_series_csv(again)
            np.testing.assert_array_equal(back.positions, series.positions)
            np.testing.assert_array_equal(back.areas, series.areas)
            assert back.thickness == series.thickness
        code = main(["estimate", "--input", str(path), "--methods", "area_based"])
        assert code == (2 if raised else 0)

    @FUZZ
    @given(text=st.text())
    def test_arbitrary_text(self, tmp_path, text):
        path = tmp_path / "fuzz.csv"
        path.write_text(text, encoding="utf-8")
        self._check(path)

    @FUZZ
    @given(data=st.data())
    def test_bit_flips(self, series_csv, tmp_path, data):
        blob = series_csv.read_bytes()
        path = tmp_path / "fuzz.csv"
        path.write_bytes(_flip(blob, data.draw(_bit_flips(blob))))
        self._check(path)


def _read_spec(path):
    doc = vio.read_json(path)
    entries = doc["cohort"] if isinstance(doc, dict) and "cohort" in doc else [doc]
    if not isinstance(entries, list):
        raise InputError("'cohort' must be a list")
    return [load_phantom_config(entry) for entry in entries]


class TestFuzzPhantomSpec:
    def _check(self, path, tmp_path):
        _, raised = _loads_or_raises(_read_spec, path)
        code = main(["phantom", "--spec", str(path), "--out", str(tmp_path / "out")])
        assert code == (2 if raised else 0)

    @FUZZ
    @given(text=st.text())
    def test_arbitrary_text(self, tmp_path, text):
        path = tmp_path / "spec.json"
        path.write_text(text, encoding="utf-8")
        self._check(path, tmp_path)

    @FUZZ
    @given(data=st.data())
    def test_bit_flips(self, tmp_path, data):
        blob = json.dumps(dict(SPHERE, noise_sigma=0.05, seed=3)).encode()
        path = tmp_path / "spec.json"
        path.write_bytes(_flip(blob, data.draw(_bit_flips(blob))))
        self._check(path, tmp_path)


class TestFuzzManifest:
    def _check(self, path):
        doc, raised = _loads_or_raises(vio.read_cohort_manifest, path)
        if not raised:
            assert doc["cases"] and all(c["analytic_volume_mm3"] > 0 for c in doc["cases"])
        code = main(["estimate", "--input", str(path.parent), "--methods", "area_based"])
        # a manifest that loads may still name a volume file that is missing
        assert code == 2 if raised else code in (0, 2)

    @FUZZ
    @given(text=st.text())
    def test_arbitrary_text(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_text(text, encoding="utf-8")
        self._check(path)

    @FUZZ
    @given(data=st.data())
    def test_bit_flips(self, cohort, tmp_path, data):
        directory = tmp_path / "m"
        _copy_volumes(cohort, directory)
        blob = json.dumps({"seed": 1, "cases": [_case(cohort)]}).encode()
        path = directory / "manifest.json"
        path.write_bytes(_flip(blob, data.draw(_bit_flips(blob))))
        self._check(path)


class TestEstimateInput:
    def test_manifest_of_two_cases_exits_2(self, cohort, capsys):
        assert main(["estimate", "--input", str(cohort / "ph")]) == 2
        assert (f"{cohort / 'ph' / 'manifest.json'} lists 2 cases; use `compare` for cohorts"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name", ["spec.json", "grid.vol", "missing"])
    def test_uninterpretable_input_exits_2(self, tmp_path, capsys, name):
        path = tmp_path / name
        if name != "missing":
            path.write_text("{}")
        assert main(["estimate", "--input", str(path)]) == 2
        assert f"unreadable input: cannot interpret input {path}" in capsys.readouterr().err


class TestPhantomSpecIntegers:
    """``seed``, ``dims`` and ``lobe_count`` hold integers: a bool or a
    fractional value is refused rather than truncated, and so is a
    negative seed, before any file is written."""

    LOBULATED = dict(SPHERE, shape="lobulated", semi_axes_mm=[3, 3, 3])

    @pytest.mark.parametrize("entry, message", [
        (dict(SPHERE, seed=1.9), "seed must be an integer, got 1.9"),
        (dict(SPHERE, seed=True), "seed must be an integer, got True"),
        (dict(SPHERE, dims=[16.7, 16, 16]), "dims must be an integer, got 16.7"),
        (dict(SPHERE, dims=[16, False, 16]), "dims must be an integer, got False"),
        (dict(LOBULATED, lobe_count=2.9), "lobe_count must be an integer, got 2.9"),
        (dict(SPHERE, seed=-1, noise_sigma=0.1), "seed must be >= 0, got -1"),
        (dict(LOBULATED, seed=-1), "seed must be >= 0, got -1"),
    ], ids=["fractional-seed", "bool-seed", "fractional-dims", "bool-dims",
            "fractional-lobe-count", "negative-seed-sphere", "negative-seed-lobulated"])
    def test_second_entry_exits_2_and_writes_nothing(self, tmp_path, capsys, entry, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cohort": [SPHERE, entry]}))
        out = tmp_path / "out"
        assert main(["phantom", "--spec", str(spec), "--out", str(out)]) == 2
        assert f"case 1: invalid phantom config: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_floats_are_integers(self):
        spec, dims, _ = load_phantom_config(dict(self.LOBULATED, seed=2.0, dims=[16.0, 16, 16],
                                                 lobe_count=3.0))
        assert (spec.seed, spec.lobe_count, dims) == (2, 3, (16, 16, 16))
        assert all(type(v) is int for v in (spec.seed, spec.lobe_count, *dims))

    def test_manifest_records_the_seed_used(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cohort": [SPHERE, dict(SPHERE, seed=9.0), SPHERE]}))
        out = tmp_path / "out"
        assert main(["phantom", "--spec", str(spec), "--out", str(out), "--seed", "4"]) == 0
        cases = json.loads((out / "manifest.json").read_text())["payload"]["cases"]
        # 9, not the 9.0 the spec holds
        assert [c["seed"] for c in cases] == [4, 9, 6]
        assert all(type(c["seed"]) is int for c in cases)
