"""ROC analysis: the curve over observed thresholds and its AUC via the
rank statistic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RocCurve:
    """(threshold, sensitivity, specificity) triples over the observed
    thresholds, sorted by rising threshold, plus the tie-corrected AUC.

    A case is called positive when its score is >= the threshold, so
    sensitivity is non-increasing as the threshold rises.
    """

    thresholds: np.ndarray
    sensitivity: np.ndarray
    specificity: np.ndarray
    auc: float

    def __post_init__(self):
        for name in ("thresholds", "sensitivity", "specificity"):
            v = np.asarray(getattr(self, name), dtype=np.float64).view()
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        if not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc {self.auc} outside [0, 1]")


def _check_labels(labels) -> np.ndarray:
    labels = np.asarray(labels).astype(bool)
    if labels.all() or not labels.any():
        raise ValueError("both classes must be present")
    return labels


def _midranks(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based); ties share their mean rank."""
    order = np.argsort(x, kind="stable")
    z = x[order]
    n = len(x)
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j < n and z[j] == z[i]:
            j += 1
        ranks[i:j] = 0.5 * (i + j - 1) + 1.0
        i = j
    out = np.empty(n)
    out[order] = ranks
    return out


def roc_auc(scores, labels) -> RocCurve:
    """ROC curve over observed thresholds; AUC from the Mann-Whitney
    rank statistic with ties counting one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = _check_labels(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must align")
    m = int(labels.sum())
    n = len(labels) - m

    ranks = _midranks(scores)
    auc = (float(ranks[labels].sum()) - m * (m + 1) / 2.0) / (m * n)

    thresholds = np.unique(scores)
    sens = np.empty(len(thresholds))
    spec = np.empty(len(thresholds))
    pos_scores = np.sort(scores[labels])
    neg_scores = np.sort(scores[~labels])
    for i, c in enumerate(thresholds):
        tp = m - np.searchsorted(pos_scores, c, side="left")
        fp = n - np.searchsorted(neg_scores, c, side="left")
        sens[i] = tp / m
        spec[i] = (n - fp) / n
    return RocCurve(thresholds, sens, spec, float(auc))
