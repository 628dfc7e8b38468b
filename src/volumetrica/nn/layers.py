"""Convolution and pooling layers for 2-D and 3-D channels-last tensors.

Tensors are numpy arrays shaped (*spatial, channels); 3-D spatial order
is (z, y, x). A layer computes in the dtype of its parameters, float32
or float64 (``FLOAT_DTYPES``), and casts its input to it. Convolution
is cross-correlation (no kernel flip) with 'same' zero padding and
stride 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ACTIVATIONS = ("none", "relu", "sigmoid")
# the dtypes a layer's parameters, and so its arithmetic, may have
FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def as_float(x, dtype=None) -> np.ndarray:
    """``x`` as an array of ``dtype``; without one, ``x`` keeps a float32
    or float64 dtype and anything else becomes float64."""
    x = np.asarray(x)
    if dtype is None:
        dtype = x.dtype if x.dtype in FLOAT_DTYPES else np.float64
    return x.astype(dtype, copy=False)


@cache
def _unit_bounds(dtype: np.dtype) -> tuple:
    """The least and the greatest value of ``dtype`` strictly inside (0, 1)."""
    zero, one = dtype.type(0), dtype.type(1)
    return np.nextafter(zero, one), np.nextafter(one, zero)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) otherwise,
    so exp never overflows; one exp over the whole array. The exp
    argument is -z or z itself, never -|z|, so a NaN keeps its sign.
    Outputs stay strictly inside (0, 1) in their dtype, even for
    saturating logits."""
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    d = 1.0 + e
    return np.clip(np.where(pos, 1.0 / d, e / d), *_unit_bounds(d.dtype))


def apply_activation(z: np.ndarray, kind: str) -> np.ndarray:
    """The activation of ``z``; relu overwrites ``z`` in place."""
    if kind == "none":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    if kind == "sigmoid":
        return sigmoid(z)
    raise ValueError(f"unknown activation {kind!r}")


def activation_grad(a: np.ndarray, kind: str, out=None):
    """d(activation)/dz from cached forward values, as a multiplicative
    factor, written to ``out`` when given.

    relu gives a boolean mask (numpy casts on multiply) read from the
    activation: a > 0 exactly where z > 0, and relu's z has been
    overwritten by a. "none" gives the scalar 1.
    """
    if kind == "none":
        return 1.0
    if kind == "relu":
        return np.greater(a, 0.0, out=out)
    if kind == "sigmoid":
        return np.multiply(a, 1.0 - a, out=out)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class ConvLayer:
    """Same-padding convolution with per-output-channel bias.

    ``weights`` has shape (*kernel, in_ch, out_ch) with odd kernel
    extents and a dtype of ``FLOAT_DTYPES``; the bias takes that dtype.
    Parameter count is out_ch * (in_ch * prod(kernel) + 1).
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "none"

    def __post_init__(self):
        self.weights = np.asarray(self.weights)
        if self.weights.dtype not in FLOAT_DTYPES:
            raise ValueError(f"weights must be float32 or float64, got {self.weights.dtype}")
        self.bias = np.asarray(self.bias, dtype=self.weights.dtype)
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
    def dtype(self) -> np.dtype:
        return self.weights.dtype

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
    def create(cls, rank, kernel_size, in_channels, out_channels, activation, rng,
               dtype=np.float64):
        """Glorot-uniform initialized layer; bounded and reproducible. The
        weights are drawn in float64 and then cast to ``dtype``, so the
        same ``rng`` state gives a float32 layer that is the float64 one
        rounded."""
        kernel = (kernel_size,) * rank if np.isscalar(kernel_size) else tuple(kernel_size)
        fan_in = in_channels * math.prod(kernel)
        fan_out = out_channels * math.prod(kernel)
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=kernel + (in_channels, out_channels))
        return cls(weights.astype(dtype, copy=False), np.zeros(out_channels, dtype), activation)


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
    return _im2col_rows(x, kernel, 0, x.shape[0])


def _im2col_rows(x: np.ndarray, kernel: tuple[int, ...], first: int, stop: int) -> np.ndarray:
    """``_im2col`` rows of only the sites in rows [first, stop) of the
    first axis. Their receptive fields read the real rows of ``x``
    around them and zero rows only past the edges of ``x``."""
    rank = len(kernel)
    channels = x.shape[-1]
    if all(k == 1 for k in kernel):
        rows = x[first:stop]
        return rows.reshape(math.prod(rows.shape[:rank]), channels)
    reach = kernel[0] // 2
    lo, hi = max(0, first - reach), min(x.shape[0], stop + reach)
    pad = [(lo - (first - reach), stop + reach - hi)] + [(k // 2, k // 2) for k in kernel[1:]]
    xp = np.pad(x[lo:hi], pad + [(0, 0)])
    # windows[*site, c, *offset] = xp[site + offset, c]; one copy puts
    # the offsets ahead of the channel
    windows = sliding_window_view(xp, kernel, axis=tuple(range(rank)))
    order = tuple(range(rank)) + tuple(range(rank + 1, 2 * rank + 1)) + (rank,)
    n_sites = math.prod(windows.shape[:rank])
    return windows.transpose(order).reshape(n_sites, math.prod(kernel) * channels)


def _add_bias(z: np.ndarray, bias: np.ndarray) -> None:
    """``z += bias`` over the channel axis of the C-contiguous ``z``,
    through rows of up to 256 sites: the same element-wise additions,
    with inner loops of 256 sites' channels instead of one site's."""
    if z.size == 0:
        return
    channels = bias.shape[0]
    sites = math.gcd(z.size // channels, 256)
    rows = z.reshape(-1, sites * channels)
    rows += np.tile(bias, sites)


def conv_forward_cached(layer: ConvLayer, x: np.ndarray, cols: np.ndarray | None = None,
                        out: np.ndarray | None = None):
    """Convolve, add bias, apply the layer activation; returns (a, z, cols),
    the activation plus what backward needs.

    ``cols`` lets callers reuse a previously built im2col matrix when
    the same input is convolved repeatedly (training epochs). ``out`` is
    an optional C-contiguous (*spatial, out_ch) buffer for z in the
    layer's dtype. relu is applied in place, so for a relu layer
    ``z is a``.
    """
    x = as_float(x, layer.dtype)
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
    z = np.empty(x.shape[: layer.rank] + (out_ch,), layer.dtype) if out is None else out
    np.matmul(cols, layer.weights.reshape(-1, out_ch), out=z.reshape(-1, out_ch))
    _add_bias(z, layer.bias)
    a = apply_activation(z, layer.activation)
    return a, z, cols


def conv_backward(layer: ConvLayer, x, cols, dz, need_dx: bool = True):
    """Gradients given dz = dL/d(pre-activation).

    Returns (dW, db, dx); dx is None when not requested (first layer).
    ``cols`` is the im2col matrix of ``x`` from the forward pass.
    """
    dz_flat = dz.reshape(-1, layer.out_channels)
    # numpy sums an (n, C) array over axis 0 row after row, one C-wide
    # inner loop per row; einsum adds the rows in the same order in one
    # pass. One column is a contiguous reduction, which numpy sums
    # pairwise and einsum does not, so it keeps the plain sum.
    db = dz_flat.sum(axis=0) if layer.out_channels == 1 else np.einsum("ij->j", dz_flat)
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
    """Mean over non-overlapping pool windows; channels preserved. A
    float32 input is pooled in float32, any other in float64."""
    x = as_float(x)
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
        if out is None:
            out = x[sl].copy()
        else:
            out += x[sl]
    out *= 1.0 / math.prod(pool)
    return out


def avg_pool_backward(pool: tuple[int, ...], x_shape, dz: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Spread each pooled gradient evenly over its window, into the
    optional C-contiguous buffer ``out`` of shape ``x_shape`` and the
    dtype of ``dz``."""
    src = dz * (1.0 / math.prod(pool))
    # view the output as (n0, p0, n1, p1, ..., channels) and broadcast
    # dz over the p axes: one copy instead of chained repeats
    expanded_shape = []
    src_index = []
    for ax, p in enumerate(pool):
        expanded_shape.extend([dz.shape[ax], p])
        src_index.extend([slice(None), None])
    expanded_shape.append(dz.shape[-1])
    src_index.append(slice(None))
    if out is None:
        out = np.empty(x_shape, dz.dtype)
    out.reshape(expanded_shape)[...] = src[tuple(src_index)]
    return out
