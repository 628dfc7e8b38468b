"""Bland-Altman agreement analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BlandAltman:
    """Bias, spread and limits of agreement of paired differences."""

    bias: float
    sd_diff: float
    loa_lower: float
    loa_upper: float
    differences: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.differences, dtype=np.float64).view()
        d.flags.writeable = False
        object.__setattr__(self, "differences", d)


def bland_altman(m, a) -> BlandAltman:
    """Differences d_i = m_i - a_i, bias d-bar, sd with the n-1
    denominator, limits of agreement d-bar +/- 1.96 sd."""
    m = np.asarray(m, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if m.shape != a.shape or m.ndim != 1:
        raise ValueError("inputs must be 1-D arrays of equal length")
    if len(m) < 2:
        raise ValueError("need at least 2 pairs")
    d = m - a
    bias = float(d.mean())
    sd = float(math.sqrt(np.sum((d - bias) ** 2) / (len(d) - 1)))
    return BlandAltman(bias, sd, bias - 1.96 * sd, bias + 1.96 * sd, d)
