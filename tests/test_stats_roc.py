import numpy as np
import pytest

from volumetrica.stats import roc_auc


def brute_force_auc(scores, labels):
    pos = scores[labels]
    neg = scores[~labels]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([False, False, True, True])
        curve = roc_auc(scores, labels)
        assert curve.auc == 1.0

    def test_all_equal_scores_auc_half(self):
        curve = roc_auc(np.ones(10), np.arange(10) % 2 == 0)
        assert curve.auc == 0.5

    def test_brute_force_pair_counting_12pt(self):
        scores = np.array([3.0, 1.0, 2.0, 2.0, 5.0, 4.0, 2.0, 6.0, 0.5, 3.5, 2.5, 1.5])
        labels = np.array([1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1], dtype=bool)
        curve = roc_auc(scores, labels)
        assert curve.auc == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)

    def test_exhaustive_randomized_vs_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(4, 40))
            scores = rng.integers(0, 8, size=n).astype(float)  # many ties
            labels = rng.uniform(size=n) > 0.5
            if labels.all() or not labels.any():
                continue
            curve = roc_auc(scores, labels)
            assert curve.auc == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)

    def test_sensitivity_non_increasing(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=50)
        labels = rng.uniform(size=50) > 0.4
        curve = roc_auc(scores, labels)
        assert np.all(np.diff(curve.sensitivity) <= 1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc(np.arange(4.0), np.ones(4, dtype=bool))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=60)
        labels = rng.uniform(size=60) > 0.5
        curve = roc_auc(scores, labels)
        transformed = roc_auc(np.exp(scores), labels)
        assert transformed.auc == pytest.approx(curve.auc, abs=1e-12)

