import math

import numpy as np
import pytest

from volumetrica.nn.layers import (
    ConvLayer,
    _add_bias,
    _im2col,
    _unit_bounds,
    avg_pool,
    avg_pool_backward,
    conv_backward,
    conv_forward_cached,
    sigmoid,
)
from volumetrica.nn.losses import bce, bce_with_logits, mse


def _loop_conv3d(x, weights, bias):
    """Reference same-padding cross-correlation, straight from the sums."""
    kz, ky, kx, in_ch, out_ch = weights.shape
    nz, ny, nx, _ = x.shape
    pz, py, px = kz // 2, ky // 2, kx // 2
    out = np.zeros((nz, ny, nx, out_ch))
    for z in range(nz):
        for y in range(ny):
            for xx in range(nx):
                for oc in range(out_ch):
                    acc = bias[oc]
                    for dz in range(kz):
                        for dy in range(ky):
                            for dx in range(kx):
                                sz, sy, sx = z + dz - pz, y + dy - py, xx + dx - px
                                if 0 <= sz < nz and 0 <= sy < ny and 0 <= sx < nx:
                                    for ic in range(in_ch):
                                        acc += weights[dz, dy, dx, ic, oc] * x[sz, sy, sx, ic]
                    out[z, y, xx, oc] = acc
    return out


class TestConvForward:
    def test_identity_1x1(self):
        layer = ConvLayer(np.ones((1, 1, 1, 1, 1)), np.zeros(1), "none")
        x = np.random.default_rng(0).normal(size=(4, 4, 4, 1))
        np.testing.assert_array_equal(conv_forward_cached(layer, x)[0], x)

    def test_zero_kernel_sigmoid_is_constant(self):
        c = 0.7
        layer = ConvLayer(np.zeros((3, 3, 3, 2, 1)), np.array([c]), "sigmoid")
        x = np.random.default_rng(1).normal(size=(6, 6, 6, 2))
        out = conv_forward_cached(layer, x)[0]
        np.testing.assert_allclose(out, 1.0 / (1.0 + math.exp(-c)), atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 5, 5, 2))
        weights = rng.normal(size=(3, 3, 3, 2, 3))
        bias = rng.normal(size=3)
        layer = ConvLayer(weights, bias, "none")
        np.testing.assert_allclose(
            conv_forward_cached(layer, x)[0], _loop_conv3d(x, weights, bias), atol=1e-12
        )

    def test_channel_mismatch_rejected(self):
        layer = ConvLayer(np.zeros((3, 3, 1, 4)), np.zeros(4), "relu")
        with pytest.raises(ValueError, match="channels"):
            conv_forward_cached(layer, np.zeros((8, 8, 2)))[0]

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            ConvLayer(np.zeros((2, 3, 1, 1)), np.zeros(1), "none")

    def test_param_count_formula(self):
        rng = np.random.default_rng(0)
        for rank in (2, 3):
            for k in (1, 3, 5):
                for in_ch, out_ch in [(1, 32), (32, 1), (3, 7)]:
                    layer = ConvLayer.create(rank, k, in_ch, out_ch, "none", rng)
                    stored = layer.weights.size + layer.bias.size
                    assert layer.param_count == stored == out_ch * (in_ch * k**rank + 1)


class TestIm2col:
    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("kernel", [1, 3, 5, (3, 1, 5)], ids=["k1", "k3", "k5", "k315"])
    def test_matches_offset_slice_oracle(self, rank, channels, kernel):
        kernel = (kernel,) * rank if isinstance(kernel, int) else kernel[-rank:]
        spatial = (6, 5, 7)[-rank:]
        x = np.random.default_rng(rank + channels).normal(size=spatial + (channels,))
        xp = np.pad(x, [(k // 2, k // 2) for k in kernel] + [(0, 0)])
        # column block j: the input shifted by kernel offset j
        blocks = [
            xp[tuple(slice(o, o + s) for o, s in zip(offsets, spatial))].reshape(-1, channels)
            for offsets in np.ndindex(*kernel)
        ]
        cols = _im2col(x, kernel)
        assert cols.flags.c_contiguous
        np.testing.assert_array_equal(cols, np.concatenate(blocks, axis=1), strict=True)


class TestAvgPool:
    def test_constant_preserved(self):
        x = np.full((8, 8, 8, 3), 2.5)
        out = avg_pool(x, (2, 2, 2))
        assert out.shape == (4, 4, 4, 3)
        np.testing.assert_array_equal(out, 2.5)

    def test_2x2_block_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
        np.testing.assert_array_equal(avg_pool(x, (2, 2)), [[[2.5]]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 6, 8, 2))
        out = avg_pool(x, (2, 3, 4))
        expected = np.zeros((2, 2, 2, 2))
        for z in range(2):
            for y in range(2):
                for xx in range(2):
                    block = x[2 * z : 2 * z + 2, 3 * y : 3 * y + 3, 4 * xx : 4 * xx + 4]
                    expected[z, y, xx] = block.mean(axis=(0, 1, 2))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            avg_pool(np.zeros((5, 4, 1)), (2, 2))

    def test_backward_distributes_evenly(self):
        dz = np.ones((2, 2, 1))
        dx = avg_pool_backward((2, 2), (4, 4, 1), dz)
        np.testing.assert_array_equal(dx, np.full((4, 4, 1), 0.25))


class TestLosses:
    def test_mse_zero_when_equal(self):
        x = np.random.default_rng(0).normal(size=(3, 3, 1))
        assert mse(x, x) == 0.0

    def test_bce_half_is_ln2(self):
        pred = np.full((4, 4, 1), 0.5)
        target = (np.random.default_rng(1).uniform(size=(4, 4, 1)) > 0.5).astype(float)
        assert bce(pred, target) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_against_high_precision_oracle(self):
        rng = np.random.default_rng(2)
        pred = rng.uniform(0.01, 0.99, size=50)
        target = rng.uniform(size=50)
        mse_oracle = float(np.mean((pred.astype(np.longdouble) - target) ** 2))
        bce_oracle = float(
            -np.mean(
                target * np.log(pred.astype(np.longdouble))
                + (1 - target) * np.log1p(-pred.astype(np.longdouble))
            )
        )
        assert mse(pred, target) == pytest.approx(mse_oracle, abs=1e-12)
        assert bce(pred, target) == pytest.approx(bce_oracle, abs=1e-12)

    def test_bce_rejects_hard_zero_one(self):
        with pytest.raises(ValueError):
            bce(np.array([0.0, 0.5]), np.array([0.0, 1.0]))

    def test_fused_bce_finite_for_extreme_logits(self):
        logits = np.linspace(-500.0, 500.0, 2001)
        target = (np.sin(logits) > 0).astype(float)
        assert math.isfinite(bce_with_logits(logits, target))

    def test_fused_matches_plain_in_safe_range(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(-5, 5, size=100)
        t = rng.uniform(size=100)
        assert bce_with_logits(z, t) == pytest.approx(bce(sigmoid(z), t), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))


class TestSigmoid:
    def test_strictly_inside_unit_interval(self):
        z = np.linspace(-500.0, 500.0, 4001)
        s = sigmoid(z)
        assert np.all(s > 0.0) and np.all(s < 1.0)

    def test_symmetric(self):
        z = np.linspace(-30, 30, 601)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-15)

    def test_matches_two_branch_reference_bit_for_bit(self):
        def reference(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return np.clip(out, *_unit_bounds(out.dtype))

        tiny = np.nextafter(0.0, 1.0)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.0, -709.0,
                            745.0, -745.0, 710.0, -710.0, 36.8, -36.8, tiny, -tiny,
                            2.2250738585072014e-308 / 3, -2.2250738585072014e-308 / 3])
        rng = np.random.default_rng(13)
        cases = [special, special.reshape(2, 9, 1)]
        cases += [rng.normal(0.0, scale, size=n) for n in (1, 7, 31, 255, 257, 1001)
                  for scale in (1.0, 50.0, 800.0)]
        for z in cases:
            got, want = sigmoid(z), reference(z)
            assert got.shape == want.shape and got.dtype == want.dtype
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBias:
    @pytest.mark.parametrize("sites", [1, 3, 7, 255, 257, 384, 1000, 4096 + 5])
    @pytest.mark.parametrize("channels", [1, 2, 32])
    def test_equals_broadcast_add(self, sites, channels):
        rng = np.random.default_rng(sites * 100 + channels)
        z = rng.normal(size=(sites, 1, channels))
        bias = rng.normal(size=channels)
        want = z + bias
        _add_bias(z, bias)
        np.testing.assert_array_equal(z, want, strict=True)

    def test_empty_output(self):
        z = np.empty((0, 5, 3))
        _add_bias(z, np.ones(3))
        assert z.shape == (0, 5, 3)


class TestBiasGradient:
    """``conv_backward``'s ``db`` has the bits of the per-channel sum
    ``dz.reshape(-1, C).sum(axis=0)``, non-finite values included."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels", [1, 2, 3, 32])
    @pytest.mark.parametrize("sites", [1, 7, 4101])
    @pytest.mark.parametrize("special", [False, True], ids=["finite", "inf-nan"])
    def test_matches_the_axis_0_sum(self, dtype, channels, sites, special):
        rng = np.random.default_rng(sites * 100 + channels)
        layer = ConvLayer.create(2, 1, 1, channels, "none", rng, dtype=dtype)
        x = rng.normal(size=(sites, 1, 1)).astype(dtype)
        dz = (rng.normal(size=(sites, 1, channels)) * 1e3).astype(dtype)
        if special:
            flat = dz.reshape(-1)
            picks = rng.choice(flat.size, size=min(flat.size, 3), replace=False)
            flat[picks] = [np.inf, -np.inf, np.nan][: len(picks)]
        with np.errstate(invalid="ignore"):
            _, db, _ = conv_backward(layer, x, x.reshape(sites, 1), dz, need_dx=False)
            expected = dz.reshape(-1, channels).sum(axis=0)
        assert db.dtype == dtype and db.shape == (channels,)
        assert db.tobytes() == expected.tobytes()
