"""Epoch loop with per-case optimizer steps (batch size 1)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from volumetrica.io import write_csv
from volumetrica.nn.layers import as_float, avg_pool
from volumetrica.nn.network import Network, Workspace, backward, gradient_list, input_cols
from volumetrica.nn.optim import AdamState, SgdState, optimizer_step


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    loss: str = "bce"
    optimizer: str = "adam"
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.loss not in ("mse", "bce"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainingLog:
    losses: list[float] = field(default_factory=list)

    def to_csv(self, path) -> None:
        """Write the ``epoch,loss`` table, epochs counted from 1."""
        write_csv(path, ("epoch", "loss"), enumerate(self.losses, start=1))


def fit_target_to_output(net: Network, target: np.ndarray, input_shape=None) -> np.ndarray:
    """Average-pool a full-resolution target down to the network's
    output grid when the architecture downsamples.

    ``input_shape`` is the actual case input (*spatial, channels); it
    defaults to the network's declared input shape. The result has the
    network's dtype.
    """
    target = as_float(target, net.dtype)
    out_spatial = net.output_shapes(input_shape)[-1][:-1]
    t_spatial = target.shape[:-1]
    if t_spatial == out_spatial:
        return target
    factors = []
    for t, o in zip(t_spatial, out_spatial):
        if t % o != 0:
            raise ValueError(f"target spatial {t_spatial} incompatible with output {out_spatial}")
        factors.append(t // o)
    return avg_pool(target, tuple(factors))


def train(net: Network, cases, config: TrainConfig) -> TrainingLog:
    """Run the epoch loop over cases given as ``(x, target)`` or
    ``(x, target, cols)``. ``cols`` is the caller's ``input_cols(net, x)``;
    it is built here when a case brings none.

    Inputs are only read, so several runs may share them, read-only,
    across threads; inputs already in the network's dtype are used
    without a copy. Deterministic for a fixed configuration: cases are
    visited in order and all arithmetic is in the network's dtype,
    float32 or float64.
    """
    cases = list(cases)
    if not cases:
        raise ValueError("no valid images")
    prepared = []
    workspaces: dict[tuple, Workspace] = {}
    for item in cases:
        x, target, cols = (*item, None)[:3]
        x = as_float(x, net.dtype)
        target = fit_target_to_output(net, target, input_shape=x.shape)
        if cols is None:  # the first layer sees the same input every epoch: im2col once
            cols = input_cols(net, x)
        else:
            cols = as_float(cols, net.dtype)
        ws = workspaces.setdefault(x.shape, Workspace())
        prepared.append((x, target, cols, ws))

    params = net.parameters()
    if config.optimizer == "adam":
        state = AdamState.for_params(params, learning_rate=config.learning_rate)
    else:
        state = SgdState(config.learning_rate)

    log = TrainingLog()
    for _ in range(config.epochs):
        total = 0.0
        for x, target, cols, ws in prepared:
            value, grads = backward(net, x, target, config.loss, first_cols=cols, workspace=ws)
            if not math.isfinite(value):
                raise TrainingDivergedError(f"non-finite loss {value!r}")
            optimizer_step(params, gradient_list(grads), state)
            total += value
        log.losses.append(total / len(prepared))
    return log
