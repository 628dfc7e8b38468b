"""Parameter update rules: plain SGD and bias-corrected Adam."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Adam moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class SgdState:
    learning_rate: float


@dataclass
class AdamState:
    """First/second moment accumulators mirroring the parameter shapes."""

    learning_rate: float = 1e-3
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params, learning_rate: float = 1e-3) -> "AdamState":
        state = cls(learning_rate=learning_rate)
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
        return state


def optimizer_step(params, grads, state) -> list:
    """Apply one update in place; returns the parameter list."""
    if len(params) != len(grads):
        raise ValueError("params and grads must align")
    if isinstance(state, SgdState):
        for p, g in zip(params, grads):
            p -= state.learning_rate * g
        return params
    if isinstance(state, AdamState):
        if len(state.m) != len(params):
            raise ValueError("Adam state does not mirror the parameter list")
        state.step += 1
        c1 = 1.0 - ADAM_BETA1**state.step
        c2 = 1.0 - ADAM_BETA2**state.step
        for p, g, m, v in zip(params, grads, state.m, state.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        return params
    raise TypeError(f"unknown optimizer state {type(state)!r}")
