"""Epoch loop with per-case optimizer steps (batch size 1), whole
(``train``) or one step at a time (``train_steps``), so that several
runs can share threads step by step."""

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


def training_case(net: Network, x, target, cols=None) -> tuple:
    """``(x, target, cols)`` as ``train_steps`` steps on them, as read-only
    views that several runs may share across threads: ``x`` in the
    network's dtype, ``target`` pooled to the network's output grid and
    ``cols`` the first layer's im2col of ``x``, built here when not given.
    A triple in this form comes back without a copy."""
    x = as_float(x, net.dtype)
    target = fit_target_to_output(net, target, input_shape=x.shape)
    # the first layer sees the same input every epoch: im2col once
    cols = input_cols(net, x) if cols is None else as_float(cols, net.dtype)
    triple = tuple(None if a is None else a.view() for a in (x, target, cols))
    for a in triple:
        if a is not None:  # a view: the caller's array stays writeable
            a.flags.writeable = False
    return triple


def train_steps(net: Network, cases, config: TrainConfig):
    """The epoch loop over cases given as ``(x, target)`` or ``(x, target,
    cols)``, each made a ``training_case``, as a generator that runs one
    optimizer step per resumption and returns the ``TrainingLog``.

    Before each step the generator yields the number of steps still to
    run, that step included (the first yield, once the cases are
    prepared, is the total); the caller resumes it with
    ``send(workspace)``, the ``Workspace`` that step computes in. One
    workspace may serve several runs, one step at a time; it remakes a
    buffer when a case's input shape differs from the last one's.

    Deterministic for a fixed configuration: cases are visited in order
    and all arithmetic is in the network's dtype, float32 or float64.
    Steps compute with numpy's floating-point warnings off. A non-finite
    loss, or a non-finite parameter after the last step, raises
    ``TrainingDivergedError`` naming the epoch (from 1) and the case
    (its index in ``cases``).
    """
    cases = [training_case(net, *item) for item in cases]
    if not cases:
        raise ValueError("no valid images")
    params = net.parameters()
    if config.optimizer == "adam":
        state = AdamState.for_params(params, learning_rate=config.learning_rate)
    else:
        state = SgdState(config.learning_rate)

    log = TrainingLog()
    left = config.epochs * len(cases)
    for epoch in range(1, config.epochs + 1):
        total = 0.0
        for case, (x, target, cols) in enumerate(cases):
            workspace = yield left
            left -= 1
            with np.errstate(all="ignore"):  # per thread, so never across a yield
                value, grads = backward(net, x, target, config.loss, first_cols=cols,
                                        workspace=workspace)
                del workspace  # the caller decides how long a workspace lives
                if not math.isfinite(value):
                    raise TrainingDivergedError(
                        f"epoch {epoch}, case {case}: non-finite loss {value!r}")
                optimizer_step(params, gradient_list(grads), state)
            total += value
        log.losses.append(total / len(cases))
    if not all(np.isfinite(p).all() for p in params):
        raise TrainingDivergedError(f"epoch {epoch}, case {case}: non-finite parameter")
    return log


def train(net: Network, cases, config: TrainConfig) -> TrainingLog:
    """``train_steps`` run to its end, every step in one workspace."""
    run, workspace = train_steps(net, cases, config), Workspace()
    try:
        next(run)
        while True:
            run.send(workspace)
    except StopIteration as done:
        return done.value
