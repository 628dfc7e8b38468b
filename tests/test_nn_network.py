import numpy as np
import pytest

from volumetrica.nn.layers import AvgPool, ConvLayer
from volumetrica.nn.network import (
    Network,
    backward,
    build_segmenter_2d,
    build_segmenter_3d,
    gradient_list,
    input_cols,
    load_network,
    predict,
    save_network,
)


def finite_difference_check(net, x, target, kind, h=1e-5):
    """Max relative error between backprop and central differences over
    every stored parameter."""
    _, grads = backward(net, x, target, kind)
    flat_grads = gradient_list(grads)
    worst = 0.0
    for p, g in zip(net.parameters(), flat_grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp, _ = backward(net, x, target, kind)
            p[idx] = orig - h
            lm, _ = backward(net, x, target, kind)
            p[idx] = orig
            fd = (lp - lm) / (2.0 * h)
            worst = max(worst, abs(fd - g[idx]) / max(abs(fd) + abs(g[idx]), 1e-8))
    return worst


class TestArchitecture:
    def test_2d_segmenter_parameters(self):
        net = build_segmenter_2d()
        assert net.param_count() == 353
        assert net.output_shapes() == [(1024, 1024, 32), (512, 512, 32), (512, 512, 1)]

    def test_3d_segmenter_parameters(self):
        net = build_segmenter_3d()
        assert net.param_count() == 929  # 32*(27+1) + 1*(32+1)
        assert net.output_shapes() == [(32, 32, 32, 32), (16, 16, 16, 32), (16, 16, 16, 1)]

    def test_all_parameters_trainable(self):
        net = build_segmenter_2d()
        stored = sum(p.size for p in net.parameters())
        assert stored == net.param_count()

    def test_seeded_init_reproducible(self):
        a, b = build_segmenter_3d(seed=5), build_segmenter_3d(seed=5)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_channel_chain_validated(self):
        with pytest.raises(ValueError, match="channels"):
            Network(
                [ConvLayer(np.zeros((3, 3, 1, 4)), np.zeros(4), "relu"),
                 ConvLayer(np.zeros((1, 1, 8, 1)), np.zeros(1), "sigmoid")],
                (16, 16, 1),
            )


def _small_net_3d(seed=7):
    rng = np.random.default_rng(seed)
    return Network(
        [
            ConvLayer(rng.normal(0, 0.3, (3, 3, 3, 1, 4)), rng.normal(0, 0.2, 4), "relu"),
            AvgPool((2, 2, 2)),
            ConvLayer(rng.normal(0, 0.5, (1, 1, 1, 4, 1)), rng.normal(0, 0.2, 1), "sigmoid"),
        ],
        (8, 8, 8, 1),
    )


def _small_net_2d(seed=11):
    rng = np.random.default_rng(seed)
    return Network(
        [
            ConvLayer(rng.normal(0, 0.3, (3, 3, 1, 6)), rng.normal(0, 0.2, 6), "relu"),
            AvgPool((2, 2)),
            ConvLayer(rng.normal(0, 0.5, (1, 1, 6, 1)), rng.normal(0, 0.2, 1), "sigmoid"),
        ],
        (16, 16, 1),
    )


class TestGradients:
    def test_zero_network_zero_target_gradients_vanish(self):
        net = Network(
            [ConvLayer(np.zeros((3, 3, 3, 1, 2)), np.zeros(2), "none"),
             ConvLayer(np.zeros((1, 1, 1, 2, 1)), np.zeros(1), "none")],
            (4, 4, 4, 1),
        )
        x = np.random.default_rng(0).normal(size=(4, 4, 4, 1))
        value, grads = backward(net, x, np.zeros((4, 4, 4, 1)), "mse")
        assert value == 0.0
        for g in gradient_list(grads):
            np.testing.assert_array_equal(g, 0.0)

    @pytest.mark.parametrize("kind", ["mse", "bce"])
    def test_finite_difference_3d(self, kind):
        net = _small_net_3d()
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 1.0, (8, 8, 8, 1))
        t = (rng.uniform(size=(4, 4, 4, 1)) > 0.5).astype(float)
        assert finite_difference_check(net, x, t, kind) < 1e-5

    @pytest.mark.parametrize("kind", ["mse", "bce"])
    def test_finite_difference_2d(self, kind):
        net = _small_net_2d()
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 1.0, (16, 16, 1))
        t = (rng.uniform(size=(8, 8, 1)) > 0.5).astype(float)
        assert finite_difference_check(net, x, t, kind) < 1e-5

    def test_final_bias_gradient_is_mean_residual_on_single_voxel(self):
        # one voxel, one sigmoid conv: dL/db = (sigma(z) - t) for bce
        rng = np.random.default_rng(3)
        net = Network(
            [ConvLayer(rng.normal(0, 0.5, (1, 1, 1, 1, 1)), rng.normal(0, 0.5, 1), "sigmoid")],
            (1, 1, 1, 1),
        )
        x = np.array([[[[0.6]]]])
        t = np.array([[[[1.0]]]])
        out = predict(net, x)
        _, grads = backward(net, x, t, "bce")
        assert grads[0][1][0] == pytest.approx((out - t).item(), rel=1e-12)

    def test_cached_cols_give_identical_gradients(self):
        net = _small_net_3d()
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(8, 8, 8, 1))
        t = rng.uniform(size=(4, 4, 4, 1))
        v1, g1 = backward(net, x, t, "mse", first_cols=input_cols(net, x))
        v2, g2 = backward(net, x, t, "mse")
        assert v1 == v2
        for a, b in zip(gradient_list(g1), gradient_list(g2)):
            np.testing.assert_array_equal(a, b)

    def test_bce_needs_sigmoid_final(self):
        net = Network(
            [ConvLayer(np.zeros((1, 1, 1, 1, 1)), np.zeros(1), "none")], (2, 2, 2, 1)
        )
        with pytest.raises(ValueError, match="sigmoid"):
            backward(net, np.zeros((2, 2, 2, 1)), np.zeros((2, 2, 2, 1)), "bce")


class TestDeterminismAndSerialization:
    def test_forward_bit_identical(self):
        net = build_segmenter_3d(seed=0)
        x = np.random.default_rng(5).uniform(size=(32, 32, 32, 1))
        np.testing.assert_array_equal(predict(net, x), predict(net, x))

    def test_container_roundtrip(self, tmp_path):
        net = build_segmenter_3d(seed=9)
        path = tmp_path / "net.vnet"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.input_shape == net.input_shape
        assert loaded.param_count() == net.param_count()
        for a, b in zip(net.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a, b)
        x = np.random.default_rng(6).uniform(size=(32, 32, 32, 1))
        np.testing.assert_array_equal(predict(net, x), predict(loaded, x))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.vnet"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_network(path)

    def test_corruption_fuzz_never_silent_garbage(self, tmp_path):
        path = tmp_path / "net.vnet"
        save_network(build_segmenter_3d(seed=2), path)
        blob = path.read_bytes()
        bad = tmp_path / "bad.vnet"
        # no proper prefix and no over-long file may load
        for data in [blob[:cut] for cut in range(len(blob))] + [blob + b"\x00"]:
            bad.write_bytes(data)
            with pytest.raises(ValueError):
                load_network(bad)
        # header corruption either loads a network or raises ValueError
        for i in range(60):
            for flip in [1 << bit for bit in range(8)] + [0xFF]:
                data = bytearray(blob)
                data[i] ^= flip
                bad.write_bytes(bytes(data))
                try:
                    net = load_network(bad)
                except ValueError:
                    continue
                assert isinstance(net, Network)
