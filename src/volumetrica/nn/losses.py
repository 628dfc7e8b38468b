"""Training losses with exact gradients.

Binary cross-entropy is also provided in a fused logit form that stays
finite for any representable logit; the training loop uses the fused
form together with a sigmoid output layer.
"""

from __future__ import annotations

import numpy as np

from volumetrica.nn.layers import sigmoid


def _check_shapes(pred: np.ndarray, target: np.ndarray) -> None:
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {target.shape}")


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    _check_shapes(pred, target)
    d = pred - target
    return float(np.mean(d * d))


def mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    return 2.0 * (pred - target) / pred.size


def bce(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean of -[t*log(p) + (1-t)*log(1-p)]; requires p strictly in (0,1)."""
    _check_shapes(pred, target)
    if np.any(pred <= 0.0) or np.any(pred >= 1.0):
        raise ValueError("bce needs probabilities strictly inside (0, 1)")
    return float(-np.mean(target * np.log(pred) + (1.0 - target) * np.log1p(-pred)))


def bce_with_logits(logits: np.ndarray, target: np.ndarray) -> float:
    """Numerically stable fused sigmoid + bce; finite for any logit."""
    _check_shapes(logits, target)
    return float(
        np.mean(np.maximum(logits, 0.0) - logits * target + np.log1p(np.exp(-np.abs(logits))))
    )


def bce_with_logits_grad(logits: np.ndarray, target: np.ndarray) -> np.ndarray:
    return (sigmoid(logits) - target) / logits.size

