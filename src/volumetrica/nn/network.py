"""Network container, forward/backward passes, the two fixed
architectures, and the flat binary parameter container."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from volumetrica.errors import InputError
from volumetrica.nn.layers import (
    AvgPool,
    ConvLayer,
    _im2col,
    _im2col_rows,
    activation_grad,
    as_float,
    avg_pool,
    avg_pool_backward,
    conv_backward,
    conv_forward_cached,
)
from volumetrica.nn.losses import bce_with_logits, bce_with_logits_grad, mse, mse_grad
from volumetrica.workers import run_in_order, spare_workers as _band_workers


@dataclass
class Network:
    """Ordered conv/pool layers plus the declared input shape
    (*spatial, channels). Every conv layer has the same dtype, which is
    the network's: its passes compute in it. ``extent_mm`` is the
    physical extent, per spatial axis in input order, of the grids the
    network was trained on, or None where it is unknown."""

    layers: list
    input_shape: tuple[int, ...]
    extent_mm: tuple[float, ...] | None = None

    def __post_init__(self):
        shape = tuple(self.input_shape)
        channels = shape[-1]
        dtypes = set()
        for i, layer in enumerate(self.layers):
            if isinstance(layer, ConvLayer):
                if layer.in_channels != channels:
                    raise ValueError(
                        f"layer {i} expects {layer.in_channels} channels, gets {channels}"
                    )
                channels = layer.out_channels
                dtypes.add(layer.dtype)
            elif isinstance(layer, AvgPool):
                continue
            else:
                raise TypeError(f"unsupported layer type {type(layer)!r}")
        if len(dtypes) > 1:
            raise ValueError(f"conv layers mix dtypes {sorted(d.name for d in dtypes)}")
        if self.extent_mm is not None:
            extent = tuple(float(e) for e in self.extent_mm)
            if len(extent) != len(shape) - 1 or not all(0.0 < e < math.inf for e in extent):
                raise ValueError(f"training extent must be {len(shape) - 1} finite values "
                                 f"> 0 mm, got {self.extent_mm!r}")
            self.extent_mm = extent

    @property
    def rank(self) -> int:
        return len(self.input_shape) - 1

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the conv layers; float64 for a network without one."""
        for layer in self.layers:
            if isinstance(layer, ConvLayer):
                return layer.dtype
        return np.dtype(np.float64)

    def output_shapes(self, input_shape=None) -> list[tuple[int, ...]]:
        """Shape after each layer for ``input_shape`` (*spatial,
        channels), by default the declared input shape."""
        shape = tuple(self.input_shape if input_shape is None else input_shape)
        shapes = []
        spatial = list(shape[:-1])
        channels = shape[-1]
        for layer in self.layers:
            if layer.rank != len(spatial):
                raise ValueError(
                    f"input must be rank {layer.rank} spatial + channels, got shape {shape}"
                )
            if isinstance(layer, ConvLayer):
                channels = layer.out_channels
            else:
                for ax, p in enumerate(layer.pool):
                    if spatial[ax] % p != 0:
                        raise ValueError(f"pool {layer.pool} does not divide {tuple(spatial)}")
                    spatial[ax] //= p
            shapes.append(tuple(spatial) + (channels,))
        return shapes

    def param_count(self) -> int:
        return sum(l.param_count for l in self.layers if isinstance(l, ConvLayer))

    def parameters(self) -> list[np.ndarray]:
        params = []
        for layer in self.layers:
            if isinstance(layer, ConvLayer):
                params.extend([layer.weights, layer.bias])
        return params


class Workspace:
    """Output buffers that ``backward`` reuses from step to step: each
    conv layer's z, each relu mask, and the gradient spread back through
    a pool, which lands in the z of the conv below the pool when there is
    one. A buffer is made again when its shape changes, so any input
    shape is served; ``train`` steps in one workspace, each CV fold
    thread in its own. Returned gradients never alias these buffers."""

    def __init__(self):
        self._buffers: dict = {}

    def buffer(self, key, shape, dtype) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._buffers[key] = np.empty(shape, dtype)
        return buf


# byte budget for the widest conv outputs of the row bands in flight in
# ``predict``; it sets the band height: 32 rows of a 1024^2 slice for the
# 2-D segmenter on one worker, one band for a 32^3 volume through the
# 3-D segmenter
_BAND_BYTES = 8 << 20


def _bands(net: Network, shape, shapes, budget: int | None = None) -> tuple[int, int]:
    """(height, scale) of the row bands along the first spatial axis
    whose widest conv output fits in ``budget`` bytes, by default
    ``_BAND_BYTES``: the band height in input rows is a multiple of
    ``scale``, the product of the axis-0 pool extents, so band edges
    fall on pool windows and every band pools the windows of the whole
    input."""
    budget = _BAND_BYTES if budget is None else budget
    rows, scale = shape[0], 1
    for layer, out_shape in zip(net.layers, shapes):
        if isinstance(layer, ConvLayer):
            row_bytes = layer.dtype.itemsize * math.prod(out_shape[1:])
            rows = min(rows, budget * scale // max(row_bytes, 1))
        else:
            scale *= layer.pool[0]
    return max(1, rows // scale) * scale, scale


def _band_plan(net: Network, shape, shapes) -> tuple[int, int, int]:
    """(workers, height, scale) of ``predict``: one worker per CPU that
    BLAS leaves spare, at most one per band of the full budget. Several
    workers split the budget, so the bands in flight together stay
    within ``_BAND_BYTES``."""
    height, scale = _bands(net, shape, shapes)
    workers = _band_workers(-(-shape[0] // height))
    if workers > 1:
        height, scale = _bands(net, shape, shapes, _BAND_BYTES // workers)
    return workers, height, scale


def _spans(net: Network, in_rows, lo: int, hi: int) -> list[tuple[int, int]]:
    """Rows [lo, hi) of each layer's input, then of the output, that a
    band computes for output rows [lo, hi). Walking back from the
    output, a conv needs ``kernel[0] // 2`` more rows on each side,
    clipped to its input, and a pool of ``p`` needs ``p`` rows a row."""
    spans = [(lo, hi)]
    for layer, rows in zip(reversed(net.layers), reversed(in_rows)):
        if isinstance(layer, ConvLayer):
            reach = layer.kernel[0] // 2
            lo, hi = max(0, lo - reach), min(rows, hi + reach)
        else:
            lo, hi = lo * layer.pool[0], hi * layer.pool[0]
        spans.append((lo, hi))
    return spans[::-1]


def predict(net: Network, x: np.ndarray) -> np.ndarray:
    """Pure forward pass; identical inputs give bit-identical outputs.

    Runs in bands of rows along the first spatial axis, so peak memory
    is bounded by the band and not by the input. Each layer of a band
    computes only the rows that the next layer reads: a conv reads its
    real neighbour rows and zero rows only at the image edges. The bands
    run on the workers of ``_band_plan`` and each writes only its own
    rows of the output. The result equals one pass over the whole input
    bit for bit, on any number of workers. ``x`` is cast once to the
    network's dtype, which the output has too.
    """
    x = as_float(x, net.dtype)
    # the whole input's shape is checked before it is cut into bands
    shapes = net.output_shapes(x.shape)
    workers, height, scale = _band_plan(net, x.shape, shapes)
    n = x.shape[0]
    in_rows = [n] + [s[0] for s in shapes[:-1]]
    out = np.empty(shapes[-1] if shapes else x.shape, x.dtype)

    def band(index: int) -> None:
        start = index * height
        spans = _spans(net, in_rows, start // scale, min(n, start + height) // scale)
        a = x[spans[0][0] : spans[0][1]]
        for layer, (a_lo, _), (lo, hi) in zip(net.layers, spans, spans[1:]):
            if isinstance(layer, ConvLayer):
                first, stop = lo - a_lo, hi - a_lo
                cols = _im2col_rows(a, layer.kernel, first, stop)
                a = conv_forward_cached(layer, a[first:stop], cols)[0]
                # keep only the activation: the im2col matrix is freed
                # before the next layer allocates
                del cols
            else:
                a = avg_pool(a, layer.pool)
        out[spans[-1][0] : spans[-1][1]] = a

    run_in_order(band, -(-n // height), workers, "predict-band")
    return out


def _forward_cached(net: Network, x: np.ndarray, first_cols, ws: Workspace):
    a = as_float(x, net.dtype)
    cache = []
    for i, layer in enumerate(net.layers):
        if isinstance(layer, ConvLayer):
            inp = a
            z_buf = ws.buffer(("z", i), inp.shape[:-1] + (layer.out_channels,), layer.dtype)
            a, z, cols = conv_forward_cached(layer, a, first_cols if i == 0 else None, out=z_buf)
            cache.append(("conv", layer, inp, z, cols, a))
        else:
            inp_shape = a.shape
            a = avg_pool(a, layer.pool)
            cache.append(("pool", layer, inp_shape))
    return a, cache


def input_cols(net: Network, x: np.ndarray):
    """Precompute the first layer's im2col matrix for repeated passes
    over the same input, in the network's dtype; returns None when the
    first layer is not a convolution."""
    if not net.layers or not isinstance(net.layers[0], ConvLayer):
        return None
    return _im2col(as_float(x, net.dtype), net.layers[0].kernel)


def backward(net: Network, x: np.ndarray, target: np.ndarray, loss_kind: str, first_cols=None,
             workspace: Workspace | None = None):
    """Loss and exact gradients for every weight and bias.

    Returns (loss_value, grads) where grads maps one (dW, db) tuple per
    conv layer (None for pools), in layer order. For bce the last layer
    must be a sigmoid conv; the gradient is taken at its z through the
    fused stable path. ``workspace`` holds the large intermediates between
    calls; without one a fresh workspace is used.
    """
    ws = Workspace() if workspace is None else workspace
    target = as_float(target, net.dtype)
    out, cache = _forward_cached(net, x, first_cols, ws)
    if out.shape != target.shape:
        raise ValueError(f"output shape {out.shape} != target shape {target.shape}")

    # the loss seeds the gradient: bce's is taken at the last conv's z,
    # so that layer alone takes no activation factor
    seeded = None
    if loss_kind == "bce":
        last = net.layers[-1] if net.layers else None
        if not isinstance(last, ConvLayer) or last.activation != "sigmoid":
            raise ValueError("bce requires a sigmoid final layer")
        seeded = len(cache) - 1
        z = cache[seeded][3]
        loss_value = bce_with_logits(z, target)
        da = bce_with_logits_grad(z, target)
    elif loss_kind == "mse":
        loss_value = mse(out, target)
        da = mse_grad(out, target)
    else:
        raise ValueError(f"unknown loss kind {loss_kind!r}")

    # every activation factor is taken first, so a pool can spread its
    # gradient into the z of the conv below it: that z is read no more
    factors = {}
    for pos, entry in enumerate(cache):
        if entry[0] == "conv" and pos != seeded:
            _, layer, inp, z, cols, a = entry
            # relu's mask is the one full-size factor: sigmoid ends the
            # network and "none" gives a scalar
            mask = ws.buffer(("mask", pos), a.shape, bool) if layer.activation == "relu" else None
            factors[pos] = activation_grad(a, layer.activation, out=mask)
    grads = [None] * len(cache)
    for pos in range(len(cache) - 1, -1, -1):
        entry = cache[pos]
        if entry[0] == "conv":
            _, layer, inp, z, cols, a = entry
            dz = da if pos == seeded else np.multiply(da, factors[pos], out=da)
            dW, db, da = conv_backward(layer, inp, cols, dz, need_dx=pos > 0)
            grads[pos] = (dW, db)
        else:
            _, layer, inp_shape = entry
            if pos > 0 and cache[pos - 1][0] == "conv":
                out = cache[pos - 1][3]  # that conv's z
            else:
                out = ws.buffer(("dz", pos), inp_shape, da.dtype)
            da = avg_pool_backward(layer.pool, inp_shape, da, out=out)
    return loss_value, grads


def gradient_list(grads) -> list[np.ndarray]:
    """Flatten per-layer (dW, db) tuples to match Network.parameters()."""
    flat = []
    for g in grads:
        if g is not None:
            flat.extend(g)
    return flat


def build_segmenter_2d(seed: int = 0, dtype=np.float64) -> Network:
    """(1024,1024,1) -> Conv 32@3x3 relu -> AvgPool 2x2 -> Conv 1@1x1 sigmoid,
    in ``dtype``: a float32 net is the float64 net of ``seed`` rounded."""
    return _build_segmenter(2, 1024, seed, dtype)


def build_segmenter_3d(seed: int = 0, dtype=np.float64) -> Network:
    """(32,32,32,1) -> Conv 32@3x3x3 relu -> AvgPool 2x2x2 -> Conv 1@1x1x1 sigmoid,
    in ``dtype``: a float32 net is the float64 net of ``seed`` rounded."""
    return _build_segmenter(3, 32, seed, dtype)


def _build_segmenter(rank: int, side: int, seed: int, dtype) -> Network:
    rng = np.random.default_rng(seed)
    layers = [ConvLayer.create(rank, 3, 1, 32, "relu", rng, dtype),
              AvgPool((2,) * rank),
              ConvLayer.create(rank, 1, 32, 1, "sigmoid", rng, dtype)]
    return Network(layers, (side,) * rank + (1,))


_MAGIC = b"VNET"
_VERSION = 2
_ACTIVATION_CODES = {"none": 0, "relu": 1, "sigmoid": 2}
_ACTIVATION_NAMES = {v: k for k, v in _ACTIVATION_CODES.items()}
# a weight dtype's code is its width in bytes
_DTYPE_CODES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


def save_network(net: Network, path) -> None:
    """Flat little-endian container, version 2: magic, version, weight
    dtype code, input shape, training extent in mm (0 where unknown),
    layer table, parameters in the network's dtype."""
    dtype = _DTYPE_CODES[net.dtype.itemsize]
    out = [_MAGIC, struct.pack("<IB", _VERSION, dtype.itemsize)]
    out.append(struct.pack("<B", len(net.input_shape)))
    out.append(struct.pack(f"<{len(net.input_shape)}I", *net.input_shape))
    out.append(struct.pack(f"<{net.rank}d", *(net.extent_mm or (0.0,) * net.rank)))
    out.append(struct.pack("<I", len(net.layers)))
    for layer in net.layers:
        if isinstance(layer, ConvLayer):
            out.append(struct.pack("<BB", 1, layer.rank))
            out.append(struct.pack(f"<{layer.rank}I", *layer.kernel))
            out.append(struct.pack("<IIB", layer.in_channels, layer.out_channels,
                                   _ACTIVATION_CODES[layer.activation]))
            out.append(np.ascontiguousarray(layer.weights, dtype=dtype).tobytes())
            out.append(np.ascontiguousarray(layer.bias, dtype=dtype).tobytes())
        else:
            out.append(struct.pack("<BB", 2, layer.rank))
            out.append(struct.pack(f"<{layer.rank}I", *layer.pool))
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


def load_network(path, rank: int | None = None) -> Network:
    """Read a container written by ``save_network``, of version 2 or of
    version 1 (float64 weights, no extent: it loads as a float64 network
    of unknown extent). A truncated, corrupted or over-long file, one
    with non-finite parameters or an unknown dtype code, or, when
    ``rank`` is given, a network of another rank raises InputError
    naming ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _decode_network(data, rank)
    except ValueError as exc:
        raise InputError(f"cannot load model {path}: {exc}") from exc


def _decode_network(data: bytes, expected_rank: int | None) -> Network:
    if data[:4] != _MAGIC:
        raise ValueError("not a network container (bad magic)")
    pos = 4

    def take(fmt: str) -> tuple:
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(data):
            raise ValueError(f"network container truncated at byte {pos}")
        values = struct.unpack_from(fmt, data, pos)
        pos += size
        return values

    def take_floats(count: int) -> np.ndarray:
        nonlocal pos
        if pos + dtype.itemsize * count > len(data):
            raise ValueError(f"network container truncated at byte {pos}")
        values = np.frombuffer(data, dtype=dtype, count=count, offset=pos).astype(dtype.type)
        pos += dtype.itemsize * count
        if not np.all(np.isfinite(values)):
            raise ValueError(f"non-finite parameter before byte {pos}")
        return values

    (version,) = take("<I")
    if version not in (1, _VERSION):
        raise ValueError(f"unsupported network container version {version}")
    # version 1 has float64 weights and records no extent
    (code,) = take("<B") if version > 1 else (8,)
    if code not in _DTYPE_CODES:
        raise ValueError(f"unknown weight dtype code {code} in container")
    dtype = _DTYPE_CODES[code]
    (ndim,) = take("<B")
    if ndim not in (3, 4):
        raise ValueError(f"input shape has {ndim} axes, expected 3 or 4")
    if expected_rank is not None and ndim - 1 != expected_rank:
        raise ValueError(f"needs a {expected_rank}-D model, got a {ndim - 1}-D one")
    input_shape = take(f"<{ndim}I")
    extent = take(f"<{ndim - 1}d") if version > 1 else ()
    (n_layers,) = take("<I")
    layers = []
    for _ in range(n_layers):
        kind, rank = take("<BB")
        extents = take(f"<{rank}I")
        if kind == 1:
            in_ch, out_ch, act = take("<IIB")
            if act not in _ACTIVATION_NAMES:
                raise ValueError(f"unknown activation code {act} in container")
            weights = take_floats(math.prod(extents) * in_ch * out_ch).reshape(
                extents + (in_ch, out_ch)
            )
            bias = take_floats(out_ch)
            layers.append(ConvLayer(weights, bias, _ACTIVATION_NAMES[act]))
        elif kind == 2:
            layers.append(AvgPool(extents))
        else:
            raise ValueError(f"unknown layer kind {kind} in container")
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} trailing bytes after the network container")
    # an all-zero extent is unknown; Network checks any other
    network = Network(layers, tuple(input_shape), extent if any(extent) else None)
    network.output_shapes()  # layer ranks match the input and every pool divides it
    return network
