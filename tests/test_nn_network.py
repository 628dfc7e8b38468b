import math
import re
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from volumetrica import workers as vworkers
from volumetrica.errors import InputError
from volumetrica.estimators import ml_estimate_slicewise
from volumetrica.grid import Spacing
from volumetrica.nn import network
from volumetrica.nn.layers import AvgPool, ConvLayer, sigmoid
from volumetrica.nn.losses import bce_with_logits, bce_with_logits_grad, mse, mse_grad
from volumetrica.nn.network import (
    Network,
    Workspace,
    backward,
    build_segmenter_2d,
    build_segmenter_3d,
    gradient_list,
    input_cols,
    load_network,
    predict,
    save_network,
)
from volumetrica.phantoms import PhantomSpec, make_phantom


@pytest.fixture(autouse=True)
def _one_band_worker(monkeypatch):
    """predict's band count follows its worker count, which follows the
    machine's CPUs and BLAS setting; the tests here that count bands
    see one worker, and TestBandWorkers sets others."""
    monkeypatch.setattr(network, "_band_workers", lambda bands: 1)


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

    def test_bce_needs_a_sigmoid_conv_last(self):
        # a sigmoid conv that a pool follows does not end the network
        rng = np.random.default_rng(6)
        net = Network(
            [ConvLayer(rng.normal(0, 0.3, (3, 3, 3, 1, 2)), rng.normal(0, 0.2, 2), "relu"),
             ConvLayer(rng.normal(0, 0.5, (1, 1, 1, 2, 1)), rng.normal(0, 0.2, 1), "sigmoid"),
             AvgPool((2, 2, 2))],
            (4, 4, 4, 1),
        )
        x = rng.uniform(size=(4, 4, 4, 1))
        t = rng.uniform(size=(2, 2, 2, 1))
        with pytest.raises(ValueError, match="^bce requires a sigmoid final layer$"):
            backward(net, x, t, "bce")
        # mse walks the same net: the pool spreads into the sigmoid conv's z
        value, grads = backward(net, x, t, "mse")
        ref_value, ref_grads = _ref_backward(net, x, t, "mse")
        assert value == ref_value
        _assert_same_gradients(grads, ref_grads)


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


def _v1_blob(net):
    """The version-1 container of the float64 ``net``, written by hand:
    magic, version, input shape, layer table, float64 parameters."""
    out = [b"VNET", struct.pack("<IB", 1, len(net.input_shape)),
           struct.pack(f"<{len(net.input_shape)}I", *net.input_shape),
           struct.pack("<I", len(net.layers))]
    for layer in net.layers:
        if isinstance(layer, ConvLayer):
            out += [struct.pack(f"<BB{layer.rank}I", 1, layer.rank, *layer.kernel),
                    struct.pack("<IIB", layer.in_channels, layer.out_channels,
                                {"none": 0, "relu": 1, "sigmoid": 2}[layer.activation]),
                    layer.weights.astype("<f8").tobytes(), layer.bias.astype("<f8").tobytes()]
        else:
            out.append(struct.pack(f"<BB{layer.rank}I", 2, layer.rank, *layer.pool))
    return b"".join(out)


def _sphere_case():
    """A noisy 32^3 sphere, and its mask pooled to the 16^3 output of the
    3-D segmenter."""
    spec = PhantomSpec.from_dict({"shape": "sphere", "radius_mm": 8.0, "noise_sigma": 0.05,
                                  "seed": 3})
    grid, mask, _ = make_phantom(spec, (32, 32, 32), Spacing(1.0, 1.0, 1.0))
    target = mask.data.reshape(16, 2, 16, 2, 16, 2).mean(axis=(1, 3, 5))
    return grid.data[..., None], target[..., None]


class TestDtypes:
    def test_float32_net_is_the_float64_net_rounded(self):
        for build in (build_segmenter_2d, build_segmenter_3d):
            net64, net32 = build(seed=4), build(seed=4, dtype=np.float32)
            assert net64.dtype == np.float64 and net32.dtype == np.float32
            for p64, p32 in zip(net64.parameters(), net32.parameters()):
                np.testing.assert_array_equal(p32, p64.astype(np.float32), strict=True)

    @pytest.mark.parametrize("kind", ["bce", "mse"])
    def test_float32_gradients_match_float64(self, kind):
        """Within 1000 float32 epsilons of the largest float64 gradient
        entry, per parameter: the 32^3 sums of the first layer's bias
        gradient cancel, and measured about 40 epsilons off."""
        x, target = _sphere_case()
        loss64, grads64 = backward(build_segmenter_3d(seed=5), x, target, kind)
        loss32, grads32 = backward(build_segmenter_3d(seed=5, dtype=np.float32), x, target, kind)
        tol = 1000 * np.finfo(np.float32).eps
        assert abs(loss32 - loss64) <= tol * loss64
        for g32, g64 in zip(gradient_list(grads32), gradient_list(grads64)):
            assert g32.dtype == np.float32
            assert np.abs(g32 - g64).max() <= tol * np.abs(g64).max()

    def test_float32_workspace_and_outputs(self, monkeypatch):
        x, target = _sphere_case()
        net = build_segmenter_3d(seed=5, dtype=np.float32)
        ws = Workspace()
        backward(net, x, target, "bce", first_cols=input_cols(net, x), workspace=ws)
        assert input_cols(net, x).dtype == np.float32
        assert {k[0]: b.dtype for k, b in ws._buffers.items()} == {
            "z": np.float32, "mask": np.bool_}
        # every layer of predict computes in float32, not just its output
        seen, conv, pool = [], network.conv_forward_cached, network.avg_pool

        def recorded_conv(*args):
            a, z, cols = conv(*args)
            seen.extend([a.dtype, z.dtype, cols.dtype])
            return a, z, cols

        def recorded_pool(*args):
            out = pool(*args)
            seen.append(out.dtype)
            return out

        monkeypatch.setattr(network, "conv_forward_cached", recorded_conv)
        monkeypatch.setattr(network, "avg_pool", recorded_pool)
        assert predict(net, x).dtype == np.float32
        assert len(seen) == 7 and set(seen) == {np.dtype(np.float32)}

    def test_float32_container_roundtrip_bit_for_bit(self, tmp_path):
        net = build_segmenter_3d(seed=9, dtype=np.float32)
        net.extent_mm = (44.0, 40.0, 36.5)
        path = tmp_path / "net.vnet"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.dtype == np.float32 and loaded.extent_mm == (44.0, 40.0, 36.5)
        for a, b in zip(net.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a, b, strict=True)
        save_network(loaded, tmp_path / "again.vnet")
        assert (tmp_path / "again.vnet").read_bytes() == path.read_bytes()
        x = np.random.default_rng(6).uniform(size=(32, 32, 32, 1))
        np.testing.assert_array_equal(predict(net, x), predict(loaded, x), strict=True)

    def test_version_1_container_loads_as_float64(self, tmp_path):
        net = build_segmenter_3d(seed=9)
        path = tmp_path / "v1.vnet"
        path.write_bytes(_v1_blob(net))
        loaded = load_network(path)
        assert loaded.dtype == np.float64 and loaded.extent_mm is None
        assert loaded.input_shape == net.input_shape
        for a, b in zip(net.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a, b, strict=True)
        x = np.random.default_rng(6).uniform(size=(32, 32, 32, 1))
        np.testing.assert_array_equal(predict(net, x), predict(loaded, x), strict=True)
        # the same network saved again is version 2 and differs only in its header
        save_network(loaded, tmp_path / "v2.vnet")
        v1, v2 = path.read_bytes(), (tmp_path / "v2.vnet").read_bytes()
        assert v2[4:9] == struct.pack("<IB", 2, 8) and v2[-7432:] == v1[-7432:]

    @pytest.mark.parametrize("code", [0, 2, 16, 255])
    def test_unknown_dtype_code_raises(self, tmp_path, code):
        path = tmp_path / "net.vnet"
        save_network(build_segmenter_3d(seed=9), path)
        blob = bytearray(path.read_bytes())
        blob[8] = code
        path.write_bytes(bytes(blob))
        with pytest.raises(InputError, match=f"unknown weight dtype code {code}"):
            load_network(path)

    @pytest.mark.parametrize("extent", [(0.0, 1.0, 1.0), (-1.0, 2.0, 2.0), (math.nan,) * 3,
                                        (math.inf, 1.0, 1.0)])
    def test_partial_or_non_finite_extent_raises(self, tmp_path, extent):
        path = tmp_path / "net.vnet"
        save_network(build_segmenter_3d(seed=9), path)
        blob = bytearray(path.read_bytes())
        blob[26:50] = struct.pack("<3d", *extent)
        path.write_bytes(bytes(blob))
        with pytest.raises(InputError, match="training extent"):
            load_network(path)

    def test_rank_is_checked_in_the_header(self, tmp_path):
        path = tmp_path / "net.vnet"
        save_network(build_segmenter_2d(seed=0), path)
        assert load_network(path, rank=2).rank == 2
        with pytest.raises(InputError, match="needs a 3-D model, got a 2-D one"):
            load_network(path, rank=3)

    @pytest.mark.parametrize("dtype", [np.float16, np.int64, np.complex128])
    def test_conv_layer_rejects_other_dtypes(self, dtype):
        with pytest.raises(ValueError, match="float32 or float64"):
            ConvLayer(np.zeros((1, 1, 1, 1, 1), dtype), np.zeros(1), "none")

    def test_network_rejects_mixed_dtypes(self):
        with pytest.raises(ValueError, match="mix dtypes"):
            Network([ConvLayer(np.zeros((3, 3, 1, 2), np.float32), np.zeros(2), "relu"),
                     ConvLayer(np.zeros((1, 1, 2, 1)), np.zeros(1), "sigmoid")], (8, 8, 1))


# Reference forward/backward with one fresh array per operation: im2col
# by one slice per kernel offset, relu from a kept pre-activation,
# stride-add pooling and a broadcast-copy pool backward. The engine must
# match it bit for bit.

def _ref_im2col(x, kernel):
    rank = len(kernel)
    spatial, channels = x.shape[:rank], x.shape[-1]
    n_sites = int(np.prod(spatial))
    xp = np.pad(x, [(k // 2, k // 2) for k in kernel] + [(0, 0)])
    cols = np.empty((n_sites, int(np.prod(kernel)) * channels))
    for j, offsets in enumerate(np.ndindex(*kernel)):
        window = tuple(slice(o, o + s) for o, s in zip(offsets, spatial))
        cols[:, j * channels : (j + 1) * channels] = xp[window].reshape(n_sites, channels)
    return cols


def _ref_conv(layer, x):
    cols = _ref_im2col(x, layer.kernel)
    out_ch = layer.out_channels
    z = (cols @ layer.weights.reshape(-1, out_ch)).reshape(x.shape[: layer.rank] + (out_ch,))
    z = z + layer.bias
    a = {"none": z, "relu": np.maximum(z, 0.0), "sigmoid": sigmoid(z)}[layer.activation]
    return a, z, cols


def _ref_pool(x, pool):
    out = None
    for offsets in np.ndindex(*pool):
        sl = tuple(slice(o, None, p) for o, p in zip(offsets, pool))
        out = x[sl].copy() if out is None else out + x[sl]
    return out * (1.0 / np.prod(pool))


def _ref_pool_backward(pool, x_shape, dz):
    src = dz * (1.0 / np.prod(pool))
    index = tuple(s for _ in pool for s in (slice(None), None)) + (slice(None),)
    expanded = [n for ax, p in enumerate(pool) for n in (dz.shape[ax], p)] + [dz.shape[-1]]
    return np.broadcast_to(src[index], expanded).reshape(x_shape).copy()


def _ref_predict(net, x):
    a = x
    for layer in net.layers:
        a = _ref_conv(layer, a)[0] if isinstance(layer, ConvLayer) else _ref_pool(a, layer.pool)
    return a


def _ref_conv_backward(layer, inp, cols, dz, grads):
    dz_flat = dz.reshape(-1, layer.out_channels)
    grads.append(((cols.T @ dz_flat).reshape(layer.weights.shape), dz_flat.sum(axis=0)))
    w_rev = np.flip(layer.weights, axis=tuple(range(layer.rank)))
    w_rev = np.ascontiguousarray(np.swapaxes(w_rev, -1, -2))
    dx = _ref_im2col(dz, layer.kernel) @ w_rev.reshape(-1, layer.in_channels)
    return dx.reshape(inp.shape)


def _ref_backward(net, x, target, kind):
    a, cache = x, []
    for layer in net.layers:
        if isinstance(layer, ConvLayer):
            inp = a
            a, z, cols = _ref_conv(layer, a)
            cache.append((layer, inp, z, cols, a))
        else:
            cache.append((layer, a.shape))
            a = _ref_pool(a, layer.pool)
    grads = []
    if kind == "bce":
        layer, inp, z, cols, _ = cache.pop()
        value = bce_with_logits(z, target)
        da = _ref_conv_backward(layer, inp, cols, bce_with_logits_grad(z, target), grads)
    else:
        value, da = mse(a, target), mse_grad(a, target)
    for entry in reversed(cache):
        if isinstance(entry[0], AvgPool):
            grads.append(None)
            da = _ref_pool_backward(entry[0].pool, entry[1], da)
        else:
            layer, inp, z, cols, a = entry
            factor = {"none": np.ones_like(z), "relu": z > 0, "sigmoid": a * (1.0 - a)}
            da = _ref_conv_backward(layer, inp, cols, da * factor[layer.activation], grads)
    return value, grads[::-1]


_SHAPES = {2: (6, 4), 3: (6, 4, 4)}


def _net(rank, activation, channels, seed, first=(3, 1, 5)):
    """conv (non-cubic kernel) -> pool (3, 2[, 2]) -> conv 3^rank -> conv 1^rank
    sigmoid; a pool of 3 makes scaling by 1/6 or 1/12 inexact, so the
    summation order shows in the last bit. Inputs are (6, 4[, 4])."""
    rng = np.random.default_rng(seed)
    first = first[-rank:]
    return Network(
        [
            ConvLayer(rng.normal(0, 0.3, first + (channels, 5)), rng.normal(0, 0.2, 5), activation),
            AvgPool((3,) + (2,) * (rank - 1)),
            ConvLayer(rng.normal(0, 0.3, (3,) * rank + (5, 4)), rng.normal(0, 0.2, 4), activation),
            ConvLayer(rng.normal(0, 0.5, (1,) * rank + (4, 1)), rng.normal(0, 0.2, 1), "sigmoid"),
        ],
        _SHAPES[rank] + (channels,),
    )


def _assert_same_gradients(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is not None:
            for a, b in zip(g, w):
                np.testing.assert_array_equal(a, b, strict=True)


class TestBitIdentity:
    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "none"])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("cached", [False, True], ids=["cols", "cached-cols"])
    @pytest.mark.parametrize("kind", ["bce", "mse"])
    def test_matches_reference(self, rank, activation, channels, cached, kind):
        net = _net(rank, activation, channels, seed=rank * 10 + channels)
        rng = np.random.default_rng(3)
        x = rng.normal(size=_SHAPES[rank] + (channels,))
        t = (rng.uniform(size=net.output_shapes()[-1]) > 0.5).astype(float)
        cols = input_cols(net, x) if cached else None
        value, grads = backward(net, x, t, kind, first_cols=cols)
        ref_value, ref_grads = _ref_backward(net, x, t, kind)
        assert value == ref_value
        _assert_same_gradients(grads, ref_grads)
        np.testing.assert_array_equal(predict(net, x), _ref_predict(net, x), strict=True)

    def test_segmenters_match_reference(self):
        rng = np.random.default_rng(8)
        net = build_segmenter_3d(seed=1)
        x = rng.uniform(size=(16, 16, 16, 1))
        t = (rng.uniform(size=(8, 8, 8, 1)) > 0.5).astype(float)
        value, grads = backward(net, x, t, "bce", first_cols=input_cols(net, x), workspace=Workspace())
        ref_value, ref_grads = _ref_backward(net, x, t, "bce")
        assert value == ref_value
        _assert_same_gradients(grads, ref_grads)
        net2d = build_segmenter_2d(seed=1)
        x2d = rng.uniform(size=(64, 64, 1))
        np.testing.assert_array_equal(predict(net2d, x2d), _ref_predict(net2d, x2d), strict=True)


def _band_rows(monkeypatch, net, shape, rows):
    """Set the band budget so that ``predict`` cuts ``shape`` into bands
    of ``rows`` input rows."""
    first_row_bytes = 8 * math.prod(net.output_shapes(shape)[0][1:])
    monkeypatch.setattr(network, "_BAND_BYTES", rows * first_row_bytes)
    assert network._bands(net, shape, net.output_shapes(shape))[0] == rows


class TestBanding:
    """predict over many small row bands against the whole-input reference."""

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("first", [(3, 1, 5), (5, 3, 1)])
    @pytest.mark.parametrize("activation", ["relu", "none"])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("rows, height", [(3, 15), (6, 15), (6, 30), (12, 30), (12, 12)],
                             ids=["one-window", "short-last", "even", "wide-short-last", "one-band"])
    def test_matches_reference(self, monkeypatch, rank, first, activation, channels, rows, height):
        net = _net(rank, activation, channels, seed=rank * 10 + channels, first=first)
        shape = (height,) + _SHAPES[rank][1:] + (channels,)
        _band_rows(monkeypatch, net, shape, rows)
        x = np.random.default_rng(height).normal(size=shape)
        np.testing.assert_array_equal(predict(net, x), _ref_predict(net, x), strict=True)

    def test_2d_segmenter_matches_reference(self, monkeypatch):
        net = build_segmenter_2d(seed=1)
        x = np.random.default_rng(12).uniform(size=(96, 64, 1))
        _band_rows(monkeypatch, net, x.shape, 8)
        np.testing.assert_array_equal(predict(net, x), _ref_predict(net, x), strict=True)

    def test_slicewise_volume_is_the_same(self, monkeypatch):
        spec = PhantomSpec(kind="sphere", radius=6.0, noise_sigma=0.05, seed=21)
        grid, _, _ = make_phantom(spec, (40, 40, 8), Spacing(0.5, 0.5, 2.0))
        net = build_segmenter_2d(seed=1)
        whole = ml_estimate_slicewise(grid, net)
        assert 0.0 < whole < grid.data.size * grid.spacing.voxel_volume_mm3
        _band_rows(monkeypatch, net, (40, 40, 1), 2)
        assert ml_estimate_slicewise(grid, net) == whole

    def test_shape_error_names_the_whole_input(self):
        net = build_segmenter_2d(seed=0)
        x = np.zeros((65, 1024, 1))
        assert network._bands(net, (64, 1024, 1), net.output_shapes((64, 1024, 1)))[0] < 64
        with pytest.raises(ValueError, match=re.escape("(65, 1024)")):
            predict(net, x)
        with pytest.raises(ValueError, match="rank 3"):
            predict(build_segmenter_3d(seed=0), np.zeros((32, 32, 1)))


class TestExactSpans:
    """Each band computes, layer by layer, only the rows the next layer
    reads, so no conv row is computed twice."""

    @pytest.mark.parametrize("bands", [1, 2, 5])
    @pytest.mark.parametrize("build, shape", [(build_segmenter_2d, (40, 24, 1)),
                                              (build_segmenter_3d, (20, 6, 4, 1))])
    def test_each_conv_row_is_computed_once(self, monkeypatch, bands, build, shape):
        net = build(seed=2)
        _band_rows(monkeypatch, net, shape, shape[0] // bands)
        rows = {}

        def counting(layer, x, cols=None, out=None):
            # the rows of x are the rows the GEMM computes: cols has one
            # row per site of x
            assert cols.shape[0] == math.prod(x.shape[:-1])
            rows.setdefault(id(layer), []).append(x.shape[0])
            return conv_forward_cached(layer, x, cols, out)

        conv_forward_cached = network.conv_forward_cached
        monkeypatch.setattr(network, "conv_forward_cached", counting)
        x = np.random.default_rng(14).uniform(size=shape)
        got = predict(net, x)
        np.testing.assert_array_equal(got, _ref_predict(net, x), strict=True)
        convs = [(i, layer) for i, layer in enumerate(net.layers) if isinstance(layer, ConvLayer)]
        in_rows = [shape[0]] + [s[0] for s in net.output_shapes(shape)]
        for i, layer in convs:
            assert len(rows[id(layer)]) == bands
            assert sum(rows[id(layer)]) == in_rows[i]

    def test_spans_widen_by_the_kernel_reach_inside_the_image(self):
        # 2-D segmenter, 32 input rows, bands of 8: the 3x3 conv reads one
        # real row on each side of the band, clipped at the image edge;
        # the pool and the 1x1 conv widen nothing
        net = build_segmenter_2d(seed=3)
        assert network._spans(net, [32, 32, 16], 0, 4) == [(0, 9), (0, 8), (0, 4), (0, 4)]
        assert network._spans(net, [32, 32, 16], 4, 8) == [(7, 17), (8, 16), (4, 8), (4, 8)]


class TestWorkspace:
    def test_reuse_across_shapes_matches_fresh(self):
        net = _net(3, "relu", 2, seed=4)
        rng = np.random.default_rng(5)
        ws = Workspace()
        for shape in [(6, 4, 4), (12, 2, 6), (6, 4, 4), (6, 4, 4)]:
            x = rng.normal(size=shape + (2,))
            t = rng.uniform(size=net.output_shapes(x.shape)[-1])
            for kind in ("bce", "mse"):
                value, grads = backward(net, x, t, kind, workspace=ws)
                fresh_value, fresh_grads = backward(net, x, t, kind)
                assert value == fresh_value
                _assert_same_gradients(grads, fresh_grads)

    def test_gradients_survive_the_next_step(self):
        net = _net(3, "relu", 1, seed=6)
        rng = np.random.default_rng(7)
        x1, x2 = rng.normal(size=(2, 6, 4, 4, 1))
        t1, t2 = rng.uniform(size=(2, 2, 2, 2, 1))
        ws = Workspace()
        _, grads = backward(net, x1, t1, "bce", workspace=ws)
        kept = [a.copy() for a in gradient_list(grads)]
        backward(net, x2, t2, "bce", workspace=ws)
        for a, b in zip(gradient_list(grads), kept):
            np.testing.assert_array_equal(a, b)


    @pytest.mark.parametrize("kind", ["bce", "mse"])
    def test_pool_gradient_reuses_the_relu_output(self, kind):
        # the gradient spread back through a pool lands in the z buffer
        # of the relu conv below it, so no full-size ("dz", ...) buffer
        # is kept; two steps on one workspace both match the reference
        rng = np.random.default_rng(12)
        for net, shape in [(build_segmenter_3d(seed=0), (8, 8, 8, 1)),
                           (build_segmenter_2d(seed=0), (16, 16, 1))]:
            ws = Workspace()
            for _ in range(2):
                x = rng.uniform(size=shape)
                t = rng.uniform(size=net.output_shapes(shape)[-1])
                value, grads = backward(net, x, t, kind, workspace=ws)
                assert not [key for key in ws._buffers if key[0] == "dz"]
                ref_value, ref_grads = _ref_backward(net, x, t, kind)
                assert value == ref_value
                _assert_same_gradients(grads, ref_grads)


class TestMemory:
    def test_3d_step_with_workspace_allocates_less_than_one_activation(self):
        net = build_segmenter_3d(seed=0)
        rng = np.random.default_rng(9)
        x = rng.uniform(size=(32, 32, 32, 1))
        t = (rng.uniform(size=(16, 16, 16, 1)) > 0.5).astype(float)
        cols, ws = input_cols(net, x), Workspace()
        backward(net, x, t, "bce", first_cols=cols, workspace=ws)
        tracemalloc.start()
        try:
            backward(net, x, t, "bce", first_cols=cols, workspace=ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32**3 * 32 * 8

    def test_2d_predict_holds_one_conv_output(self):
        net = build_segmenter_2d(seed=0)
        x = np.random.default_rng(10).uniform(size=(256, 256, 1))
        sites = 256 * 256
        tracemalloc.start()
        try:
            predict(net, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sites * 9 * 8 + 1.25 * sites * 32 * 8

    def test_2d_predict_1024_is_bounded_by_the_band(self):
        net = build_segmenter_2d(seed=0)
        x = np.random.default_rng(11).uniform(size=(1024, 1024, 1))
        predict(net, x)
        tracemalloc.start()
        try:
            out = predict(net, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one band's conv output with its halo rows, its im2col matrix
        # and its pooled rows stay under twice the budget; the whole
        # conv output would be 268 MB
        assert peak < 2 * network._BAND_BYTES + out.nbytes


class TestBandWorkers:
    """predict's row bands on several threads: the same bits, the first
    failing band in band order, no thread for a one-band input."""

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("first", [(3, 1, 5), (5, 3, 1)])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("rows, height", [(3, 15), (6, 15), (6, 30), (12, 30), (12, 12)],
                             ids=["one-window", "short-last", "even", "wide-short-last", "one-band"])
    def test_banding_shapes_match_reference(self, monkeypatch, rank, first, channels, rows,
                                            height):
        net = _net(rank, "relu", channels, seed=rank * 10 + channels, first=first)
        shape = (height,) + _SHAPES[rank][1:] + (channels,)
        _band_rows(monkeypatch, net, shape, rows)
        x = np.random.default_rng(height).normal(size=shape)
        ref = _ref_predict(net, x)
        for workers in (lambda bands: 1, lambda bands: 2, lambda bands: bands):
            monkeypatch.setattr(network, "_band_workers", workers)
            np.testing.assert_array_equal(predict(net, x), ref, strict=True)

    def test_1024_slice_is_the_same_on_any_worker_count(self, monkeypatch):
        net = build_segmenter_2d(seed=1)
        x = np.random.default_rng(13).uniform(size=(1024, 1024, 1))
        shapes = net.output_shapes(x.shape)
        results = []
        for workers in (1, 2, 32):
            monkeypatch.setattr(network, "_band_workers", lambda bands: workers)
            assert network._band_plan(net, x.shape, shapes)[0] == workers
            results.append(predict(net, x))
        for got in results[1:]:
            np.testing.assert_array_equal(got, results[0], strict=True)

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_first_failing_band_in_band_order_is_raised(self, monkeypatch, workers):
        net = build_segmenter_2d(seed=2)
        shape = (40, 24, 1)
        _band_rows(monkeypatch, net, shape, 4)
        monkeypatch.setattr(network, "_band_workers", lambda bands: workers)
        _, height, scale = network._band_plan(net, shape, net.output_shapes(shape))
        spans = network._spans
        started = []

        def failing(net, in_rows, lo, hi):
            band = lo // (height // scale)
            started.append(band)
            if band == 1:
                time.sleep(0.2)  # band 3 fails first in time
                raise ValueError("band 1")
            if band == 3:
                raise ValueError("band 3")
            return spans(net, in_rows, lo, hi)

        monkeypatch.setattr(network, "_spans", failing)
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="band 1"):
            predict(net, np.zeros(shape))
        assert set(threading.enumerate()) == before
        assert 1 in started and sorted(started) == list(range(len(started)))
        if workers == 1:
            assert started == [0, 1]  # no band starts after a failure

    def test_more_workers_than_cores_compute_each_band_once(self, monkeypatch):
        # a lost update in handing out bands would compute one twice or
        # skip one, and leave rows of the output unwritten
        net = build_segmenter_2d(seed=4)
        shape = (40, 24, 1)
        _band_rows(monkeypatch, net, shape, 2)
        monkeypatch.setattr(network, "_band_workers", lambda bands: bands)
        x = np.random.default_rng(16).uniform(size=shape)
        ref = _ref_predict(net, x)
        spans = network._spans
        computed = []

        def counting(net, in_rows, lo, hi):
            computed.append(lo)
            return spans(net, in_rows, lo, hi)

        monkeypatch.setattr(network, "_spans", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                computed.clear()
                np.testing.assert_array_equal(predict(net, x), ref, strict=True)
                assert sorted(computed) == list(range(20))  # 20 bands of one pooled row
        finally:
            sys.setswitchinterval(interval)

    def test_one_band_input_starts_no_thread(self, monkeypatch):
        # four CPUs with BLAS on one thread: a 32^3 volume is one band and
        # runs on the calling thread, a 256^2 slice is two and starts one
        monkeypatch.setattr(network, "_band_workers", vworkers.spare_workers)
        monkeypatch.setattr(vworkers.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        started = []
        start = threading.Thread.start

        def recording(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        rng = np.random.default_rng(15)
        predict(build_segmenter_3d(seed=0), rng.uniform(size=(32, 32, 32, 1)))
        assert started == []
        predict(build_segmenter_2d(seed=0), rng.uniform(size=(256, 256, 1)))
        assert started == ["predict-band-1"]

    def test_1024_peak_is_bounded_by_the_band_on_two_workers(self, monkeypatch):
        # the two workers' bands share the one budget
        monkeypatch.setattr(network, "_band_workers", lambda bands: 2)
        net = build_segmenter_2d(seed=0)
        shape = (1024, 1024, 1)
        assert network._band_plan(net, shape, net.output_shapes(shape))[:2] == (2, 16)
        TestMemory().test_2d_predict_1024_is_bounded_by_the_band()
