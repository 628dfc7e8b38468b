import csv
import tracemalloc

import numpy as np
import pytest

from volumetrica.grid import BinaryMask, Spacing, VoxelGrid
from volumetrica.nn import inference
from volumetrica.nn.inference import (
    cnn_volume,
    dice,
    extract_tumor_mask,
    mask_training_target,
    prepare_input,
    resize_volume,
)
from volumetrica.nn.network import build_segmenter_3d, input_cols, predict
from volumetrica.nn.optim import AdamState, SgdState, optimizer_step
from volumetrica.nn.training import TrainConfig, train
from volumetrica.phantoms import PhantomSpec, make_phantom


class TestOptimizer:
    def test_sgd_step(self):
        p = [np.array([1.0])]
        optimizer_step(p, [np.array([1.0])], SgdState(0.1))
        assert p[0][0] == pytest.approx(0.9)

    def test_adam_first_step_magnitude(self):
        for c in (1e-4, 1.0, 50.0, -3.0):
            p = [np.array([0.0])]
            state = AdamState.for_params(p, learning_rate=1e-3)
            optimizer_step(p, [np.array([c])], state)
            # bias correction makes the first step ~ lr * sign(g)
            assert p[0][0] == pytest.approx(-1e-3 * np.sign(c), rel=1e-4)

    def test_zero_gradient_no_change(self):
        for state in (SgdState(0.5), AdamState.for_params([np.array([2.0])])):
            p = [np.array([2.0])]
            if isinstance(state, AdamState):
                state = AdamState.for_params(p)
            optimizer_step(p, [np.array([0.0])], state)
            assert p[0][0] == 2.0

    def test_adam_matches_reference_formula(self):
        rng = np.random.default_rng(0)
        p = [rng.normal(size=(3, 2))]
        state = AdamState.for_params(p, learning_rate=0.01)
        ref_p = p[0].copy()
        m = np.zeros_like(ref_p)
        v = np.zeros_like(ref_p)
        for t in range(1, 6):
            g = rng.normal(size=(3, 2))
            optimizer_step(p, [g], state)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9**t)
            vh = v / (1 - 0.999**t)
            ref_p = ref_p - 0.01 * mh / (np.sqrt(vh) + 1e-8)
        np.testing.assert_allclose(p[0], ref_p, atol=1e-14)


def _whole_array_resize(data, target):
    """Reference trilinear resize: each axis pass over the whole array."""
    data = np.asarray(data, dtype=np.float64)
    if tuple(data.shape) == tuple(target):
        return data.astype(np.float64, copy=True)
    out = data.astype(np.float64)
    for axis, (n_src, n_tgt) in enumerate(zip(data.shape, target)):
        if n_src == n_tgt:
            continue
        if n_tgt == 1:
            pos = np.array([(n_src - 1) / 2.0])
        else:
            pos = np.arange(n_tgt) * ((n_src - 1) / (n_tgt - 1))
        i0 = np.clip(np.floor(pos).astype(int), 0, n_src - 2)
        frac = pos - i0
        lo = np.take(out, i0, axis=axis)
        hi = np.take(out, i0 + 1, axis=axis)
        shape = [1] * out.ndim
        shape[axis] = n_tgt
        frac = frac.reshape(shape)
        out = lo * (1.0 - frac) + hi * frac
    return out


RESIZE_PAIRS = [
    ((44, 44, 44), (32, 32, 32)),  # the phantom cohort
    ((20, 17, 25), (32, 32, 32)),  # non-cubic, upsampled
    ((40, 64, 48), (32, 32, 32)),  # non-cubic, downsampled
    ((32, 11, 32), (32, 32, 32)),  # z and x already at the target
    ((7, 32, 9), (1, 32, 16)),  # target extent 1, y already at the target
    ((9, 9, 9), (9, 9, 1)),
    ((2, 2, 2), (5, 1, 3)),  # source extents 2
    ((3, 50, 2), (32, 32, 32)),
    ((6, 300, 512), (32, 32, 32)),  # y and x blend a few of their lines
    ((40, 32, 512), (32, 32, 32)),  # x blends a few lines, y keeps every one
    ((40, 512, 20), (32, 32, 32)),  # y blends a few lines, x reads every one
]


class TestResizeVolume:
    @pytest.mark.parametrize("shape, target", RESIZE_PAIRS)
    @pytest.mark.parametrize("dtype", [np.float64, np.uint8, bool])
    @pytest.mark.parametrize("band_bytes", [None, 1, 3000])
    def test_matches_whole_array_reference(self, shape, target, dtype, band_bytes, monkeypatch):
        if band_bytes is not None:  # one output slice, or a few, per band
            monkeypatch.setattr(inference, "_BAND_BYTES", band_bytes)
        rng = np.random.default_rng(sum(shape))
        values = rng.uniform(0, 200, size=shape)
        x = values > 100 if dtype is bool else values.astype(dtype)
        expected = _whole_array_resize(x, target)
        np.testing.assert_array_equal(resize_volume(x, target), expected, strict=True)

    def test_mask_target_matches_reference(self):
        rng = np.random.default_rng(5)
        mask = BinaryMask(rng.uniform(size=(30, 40, 36)) > 0.6, Spacing(1, 1, 1))
        out = mask_training_target(mask, (16, 16, 16))
        expected = _whole_array_resize(mask.data.astype(np.float64), (16, 16, 16))
        np.testing.assert_array_equal(out, expected[..., None], strict=True)

    def test_large_grid_resizes_in_bounded_memory(self):
        grid = np.random.default_rng(2).random((40, 512, 512))
        tracemalloc.start()
        try:
            out = resize_volume(grid, (32, 32, 32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a whole-array pass would hold several copies of the 84 MB grid
        assert peak < 4 * grid[0].nbytes + out.nbytes
        assert out.min() >= grid.min() and out.max() <= grid.max()

    def test_large_slices_cast_only_the_lines_they_blend(self):
        grid = np.zeros((24, 1024, 1024), dtype=bool)
        grid[8:16, 300:700, 200:800] = True
        tracemalloc.start()
        try:
            out = resize_volume(grid, (32, 32, 32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # float64 copies of whole source planes would take 16 MiB a pair
        assert peak < 8 << 20
        assert out.min() == 0.0 and out.max() == 1.0

    def test_constant_stays_constant(self):
        out = resize_volume(np.full((20, 17, 25), 3.5), (32, 32, 32))
        np.testing.assert_array_equal(out, 3.5)

    def test_identity_when_already_target(self):
        x = np.random.default_rng(0).normal(size=(32, 32, 32))
        out = resize_volume(x, (32, 32, 32))
        np.testing.assert_array_equal(out, x)

    def test_linear_ramp_preserved(self):
        nz = 40
        ramp = np.broadcast_to(np.linspace(0.0, 1.0, nz)[:, None, None], (nz, 8, 8)).copy()
        out = resize_volume(ramp, (32, 32, 32))
        expected = np.linspace(0.0, 1.0, 32)
        np.testing.assert_allclose(out[:, 0, 0], expected, atol=1e-9)

    def test_output_within_input_range(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(11, 23, 9))
        out = resize_volume(x, (32, 32, 32))
        assert out.min() >= x.min() - 1e-12
        assert out.max() <= x.max() + 1e-12

    def test_degenerate_axis_rejected(self):
        with pytest.raises(ValueError, match="extent"):
            resize_volume(np.zeros((1, 8, 8)), (32, 32, 32))

    def test_accepts_voxel_grid(self):
        grid = VoxelGrid(np.ones((8, 8, 8)), Spacing(1, 1, 1))
        assert resize_volume(grid, (32, 32, 32)).shape == (32, 32, 32)


class TestMaskVolume:
    def test_zero_predictions_zero_volume(self):
        mask = extract_tumor_mask(np.zeros((16, 16, 16, 1)), 0.5)
        assert cnn_volume(mask, (32, 32, 32), Spacing(1, 1, 1)) == 0.0

    def test_uniform_prediction_counts_pixels(self):
        pred = np.full((4, 4, 4, 1), 0.9)
        mask = extract_tumor_mask(pred, 0.5)
        # same-resolution geometry: every voxel is 1 mm^3
        assert cnn_volume(mask, (4, 4, 4), Spacing(1, 1, 1)) == pytest.approx(64.0)

    def test_downsampled_prediction_rescaled(self):
        # half-resolution prediction: each pixel covers 4 source pixels
        # per slice and each slice spans 2 source slices
        mask = np.ones((2, 2, 2), dtype=bool)
        v = cnn_volume(mask, (4, 4, 4), Spacing(0.5, 0.5, 2.0))
        assert v == pytest.approx(4 * 4 * 4 * 0.5 * 0.5 * 2.0)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(2)
        pred = rng.uniform(size=(8, 8, 8, 1))
        vols = [
            cnn_volume(extract_tumor_mask(pred, t), (8, 8, 8), Spacing(1, 1, 1))
            for t in (0.001, 0.25, 0.5, 0.75, 0.999)
        ]
        assert all(b <= a for a, b in zip(vols, vols[1:]))

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            extract_tumor_mask(np.zeros((2, 2, 2, 1)), 0.0)
        with pytest.raises(ValueError):
            extract_tumor_mask(np.zeros((2, 2, 2, 1)), 1.0)

    def test_dice(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        assert dice(a, b) == 1.0
        a[0, 0] = True
        assert dice(a, b) == 0.0
        b[0, 0] = True
        assert dice(a, b) == 1.0


@pytest.fixture(scope="module")
def sphere_case():
    spec = PhantomSpec(kind="sphere", radius=10.0, noise_sigma=0.05, seed=2)
    grid, mask, volume = make_phantom(spec, (48, 48, 48), Spacing(1, 1, 1))
    return prepare_input(grid), mask_training_target(mask), grid, mask, volume


class TestTrain:
    def test_supervised_loss_decreases(self, sphere_case):
        x, t, *_ = sphere_case
        net = build_segmenter_3d(seed=0)
        log = train(net, [(x, t)], TrainConfig(epochs=200, loss="bce"))
        assert log.losses[-1] < log.losses[0]

    def test_zero_learning_rate_freezes_everything(self, sphere_case):
        x, t, *_ = sphere_case
        net = build_segmenter_3d(seed=0)
        before = [p.copy() for p in net.parameters()]
        log = train(net, [(x, t)], TrainConfig(epochs=3, loss="bce", learning_rate=0.0))
        for a, b in zip(before, net.parameters()):
            np.testing.assert_array_equal(a, b)
        assert log.losses[0] == log.losses[-1]

    def test_fixed_seed_bit_identical_log(self, sphere_case):
        x, t, *_ = sphere_case
        logs = []
        for _ in range(2):
            net = build_segmenter_3d(seed=4)
            logs.append(train(net, [(x, t)], TrainConfig(epochs=5, loss="bce")).losses)
        assert logs[0] == logs[1]

    def test_precomputed_columns_give_identical_parameters(self, sphere_case):
        x, t, *_ = sphere_case
        nets = [build_segmenter_3d(seed=4) for _ in range(2)]
        train(nets[0], [(x, t)], TrainConfig(epochs=3, loss="bce"))
        train(nets[1], [(x, t, input_cols(nets[1], x))], TrainConfig(epochs=3, loss="bce"))
        for a, b in zip(nets[0].parameters(), nets[1].parameters()):
            np.testing.assert_array_equal(a, b, strict=True)

    def test_read_only_inputs(self, sphere_case):
        x, t, *_ = sphere_case
        net = build_segmenter_3d(seed=0)
        case = (x.copy(), t.copy(), input_cols(net, x))
        for a in case:
            a.flags.writeable = False
        log = train(net, [case], TrainConfig(epochs=2, loss="bce"))
        reference = build_segmenter_3d(seed=0)
        assert train(reference, [(x, t)], TrainConfig(epochs=2, loss="bce")).losses == log.losses
        np.testing.assert_array_equal(case[0], x, strict=True)

    def test_empty_dataset_raises(self):
        net = build_segmenter_3d()
        with pytest.raises(ValueError, match="no valid images"):
            train(net, [], TrainConfig(epochs=1))

    def test_non_finite_loss_raises_diverged(self):
        from volumetrica.nn.training import TrainingDivergedError

        net = build_segmenter_3d(seed=0)
        x = np.full((32, 32, 32, 1), np.inf)
        t = np.zeros((16, 16, 16, 1))
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError):
            train(net, [(x, t)], TrainConfig(epochs=1, loss="bce"))

    def test_smaller_than_declared_inputs_accepted(self):
        # the engine is spatially flexible; targets pool per actual size
        net = build_segmenter_3d(seed=0)
        rng = np.random.default_rng(9)
        x = rng.uniform(size=(8, 8, 8, 1))
        t = rng.uniform(size=(4, 4, 4, 1))
        log = train(net, [(x, t)], TrainConfig(epochs=2, loss="bce"))
        assert len(log.losses) == 2

    def test_trained_net_segments_heldout_sphere(self, sphere_case):
        x, t, *_ = sphere_case
        net = build_segmenter_3d(seed=0)
        train(net, [(x, t)], TrainConfig(epochs=200, loss="bce"))
        spec = PhantomSpec(kind="sphere", radius=8.0, noise_sigma=0.05, seed=77)
        grid, _, volume = make_phantom(spec, (48, 48, 48), Spacing(1, 1, 1))
        pred = predict(net, prepare_input(grid))
        v = cnn_volume(extract_tumor_mask(pred, 0.5), grid.dims, grid.spacing)
        assert v == pytest.approx(volume, rel=0.15)

    def test_log_csv_shape(self, sphere_case, tmp_path):
        x, t, *_ = sphere_case
        net = build_segmenter_3d(seed=0)
        log = train(net, [(x, t)], TrainConfig(epochs=3, loss="mse"))
        path = tmp_path / "loss.csv"
        log.to_csv(path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["epoch", "loss"]
        assert [(int(e), float(v)) for e, v in rows[1:]] == list(enumerate(log.losses, start=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
