"""Convolution and pooling layers for 2-D and 3-D channels-last tensors.

Tensors are float64 numpy arrays shaped (*spatial, channels); 3-D
spatial order is (z, y, x). Convolution is cross-correlation (no kernel
flip) with 'same' zero padding and stride 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

ACTIVATIONS = ("none", "relu", "sigmoid")

# keep sigmoid outputs strictly inside (0, 1) even for saturating logits
_SIGMOID_MAX = float(np.nextafter(1.0, 0.0))
_SIGMOID_MIN = float(np.nextafter(0.0, 1.0))


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, _SIGMOID_MIN, _SIGMOID_MAX)


def apply_activation(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "none":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        return sigmoid(z)
    raise ValueError(f"unknown activation {kind!r}")


def activation_grad(a: np.ndarray, z: np.ndarray, kind: str) -> np.ndarray:
    """d(activation)/dz from cached forward values, as a multiplicative
    factor (relu returns the boolean mask; numpy casts on multiply)."""
    if kind == "none":
        return np.ones_like(z)
    if kind == "relu":
        return z > 0
    if kind == "sigmoid":
        return a * (1.0 - a)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class ConvLayer:
    """Same-padding convolution with per-output-channel bias.

    ``weights`` has shape (*kernel, in_ch, out_ch) with odd kernel
    extents; parameter count is out_ch * (in_ch * prod(kernel) + 1).
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "none"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim not in (4, 5):
            raise ValueError("weights must be (*kernel, in_ch, out_ch) with rank 2 or 3")
        if any(k % 2 == 0 for k in self.kernel):
            raise ValueError(f"kernel extents must be odd, got {self.kernel}")
        if self.bias.shape != (self.out_channels,):
            raise ValueError("bias must have one entry per output channel")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def rank(self) -> int:
        return self.weights.ndim - 2

    @property
    def kernel(self) -> tuple[int, ...]:
        return self.weights.shape[: self.weights.ndim - 2]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[-2]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[-1]

    @property
    def param_count(self) -> int:
        return self.out_channels * (self.in_channels * math.prod(self.kernel) + 1)

    @classmethod
    def create(cls, rank, kernel_size, in_channels, out_channels, activation, rng):
        """Glorot-uniform initialized layer; bounded and reproducible."""
        kernel = (kernel_size,) * rank if np.isscalar(kernel_size) else tuple(kernel_size)
        fan_in = in_channels * math.prod(kernel)
        fan_out = out_channels * math.prod(kernel)
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=kernel + (in_channels, out_channels))
        return cls(weights, np.zeros(out_channels), activation)


@dataclass(frozen=True)
class AvgPool:
    """Non-overlapping window means; spatial extents must divide."""

    pool: tuple[int, ...]

    def __post_init__(self):
        pool = tuple(int(p) for p in self.pool)
        if len(pool) not in (2, 3) or any(p < 1 for p in pool):
            raise ValueError(f"pool extents must be positive, rank 2 or 3, got {pool}")
        object.__setattr__(self, "pool", pool)

    @property
    def rank(self) -> int:
        return len(self.pool)


def _im2col(x: np.ndarray, kernel: tuple[int, ...]) -> np.ndarray:
    """Rows of all same-padded receptive fields: (n_sites, prod(k)*in_ch).

    Column block j holds the input channels at kernel offset j, matching
    the (*kernel, in_ch, out_ch) weight layout flattened to 2-D. For a
    1x1 kernel the rows are the input itself, returned without a copy.
    """
    rank = len(kernel)
    spatial = x.shape[:rank]
    channels = x.shape[-1]
    n_sites = math.prod(spatial)
    if all(k == 1 for k in kernel):
        return x.reshape(n_sites, channels)
    pads = [(k // 2, k // 2) for k in kernel] + [(0, 0)]
    xp = np.pad(x, pads)
    cols = np.empty((n_sites, math.prod(kernel) * channels))
    for j, offsets in enumerate(product(*(range(k) for k in kernel))):
        window = tuple(slice(o, o + s) for o, s in zip(offsets, spatial))
        cols[:, j * channels : (j + 1) * channels] = xp[window].reshape(n_sites, channels)
    return cols


def conv_forward_cached(layer: ConvLayer, x: np.ndarray, cols: np.ndarray | None = None):
    """Convolve, add bias, apply the layer activation; returns (a, z, cols),
    the activation plus what backward needs.

    ``cols`` lets callers reuse a previously built im2col matrix when
    the same input is convolved repeatedly (training epochs).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != layer.rank + 1:
        raise ValueError(
            f"input must be rank {layer.rank} spatial + channels, got shape {x.shape}"
        )
    if x.shape[-1] != layer.in_channels:
        raise ValueError(
            f"input has {x.shape[-1]} channels, layer expects {layer.in_channels}"
        )
    if cols is None:
        cols = _im2col(x, layer.kernel)
    out_ch = layer.out_channels
    z = (cols @ layer.weights.reshape(-1, out_ch)).reshape(x.shape[: layer.rank] + (out_ch,))
    z += layer.bias
    a = apply_activation(z, layer.activation)
    return a, z, cols


def conv_backward(layer: ConvLayer, x, cols, dz, need_dx: bool = True):
    """Gradients given dz = dL/d(pre-activation).

    Returns (dW, db, dx); dx is None when not requested (first layer).
    ``cols`` is the im2col matrix of ``x`` from the forward pass.
    """
    dz_flat = dz.reshape(-1, layer.out_channels)
    db = dz_flat.sum(axis=0)
    dW = (cols.T @ dz_flat).reshape(layer.weights.shape)
    if not need_dx:
        return dW, db, None
    # dx is the same-padding correlation of dz with the spatially
    # flipped kernel, input/output channels swapped
    w_rev = np.flip(layer.weights, axis=tuple(range(layer.rank)))
    w_rev = np.ascontiguousarray(np.swapaxes(w_rev, -1, -2))
    dx = _im2col(dz, layer.kernel) @ w_rev.reshape(-1, layer.in_channels)
    return dW, db, dx.reshape(x.shape)


def avg_pool(x: np.ndarray, pool: tuple[int, ...]) -> np.ndarray:
    """Mean over non-overlapping pool windows; channels preserved."""
    x = np.asarray(x, dtype=np.float64)
    rank = len(pool)
    if x.ndim != rank + 1:
        raise ValueError(f"input must be rank {rank} spatial + channels, got {x.shape}")
    for ax, p in enumerate(pool):
        if x.shape[ax] % p != 0:
            raise ValueError(
                f"spatial extent {x.shape[ax]} on axis {ax} not divisible by pool {p}"
            )
    out = None
    for offsets in product(*(range(p) for p in pool)):
        sl = tuple(slice(o, None, p) for o, p in zip(offsets, pool))
        out = x[sl].copy() if out is None else out + x[sl]
    return out * (1.0 / math.prod(pool))


def avg_pool_backward(pool: tuple[int, ...], x_shape, dz: np.ndarray) -> np.ndarray:
    """Spread each pooled gradient evenly over its window."""
    rank = len(pool)
    scale = 1.0 / math.prod(pool)
    src = dz * scale
    # one broadcast + one copy instead of chained repeats
    expanded_shape = []
    src_index = []
    for ax, p in enumerate(pool):
        expanded_shape.extend([dz.shape[ax], p])
        src_index.extend([slice(None), None])
    expanded_shape.append(dz.shape[-1])
    src_index.append(slice(None))
    out = np.broadcast_to(src[tuple(src_index)], expanded_shape).reshape(x_shape)
    if not out.flags.writeable:
        out = out.copy()
    return out
