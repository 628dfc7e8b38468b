"""Bootstrap, k-fold cross-validation, and the fold-wise volume-error
harness.

All randomness flows through the Philox counter-based generator with
the stream index equal to the resample index, so every resample is
reproducible and independently addressable from the recorded seed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from volumetrica.workers import run_in_order, spare_workers as _fold_workers

CI_LEVEL = 0.95


def _stream(seed: int, stream: int = 0) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def bootstrap_ci(values, resamples: int = 2000, seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap interval for the mean at CI_LEVEL."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 2:
        raise ValueError("need at least 2 values")
    means = np.empty(resamples)
    for i in range(resamples):
        rng = _stream(seed, i)
        means[i] = values[rng.integers(0, n, size=n)].mean()
    alpha = (1.0 - CI_LEVEL) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


@dataclass(frozen=True)
class CVPlan:
    """Test-fold assignment per index; fold sizes differ by at most 1."""

    fold_of: np.ndarray
    k: int
    seed: int

    def __post_init__(self):
        f = np.asarray(self.fold_of, dtype=np.int64).view()
        f.flags.writeable = False
        object.__setattr__(self, "fold_of", f)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.fold_of == fold)[0]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.fold_of != fold)[0]


def kfold(n: int, k: int = 5, seed: int = 0) -> CVPlan:
    """Shuffled balanced folds; every index lands in exactly one test fold."""
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if k < 2:
        raise ValueError("k must be >= 2")
    order = _stream(seed).permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    base, extra = divmod(n, k)
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        fold_of[order[start : start + size]] = fold
        start += size
    return CVPlan(fold_of, k, seed)


@dataclass(frozen=True)
class CVResult:
    per_fold_mean: np.ndarray
    per_case_error: np.ndarray
    per_case_volume: np.ndarray
    fold_of: np.ndarray

    @property
    def mean_error(self) -> float:
        return float(self.per_fold_mean.mean())

    @property
    def sd_error(self) -> float:
        if len(self.per_fold_mean) < 2:
            return 0.0
        return float(self.per_fold_mean.std(ddof=1))

    def fold_errors(self, fold: int) -> np.ndarray:
        return self.per_case_error[self.fold_of == fold]


# a fold whose trainer raised; a trainer may return None as its model
_UNTRAINED = object()


def cv_volume_error(cohort, trainer, estimator, plan: CVPlan) -> CVResult:
    """Train on k-1 folds, measure relative volume error on the held-out
    fold; every case is scored exactly once, out of fold.

    ``cohort`` is a sequence of (case, true_volume); ``trainer`` maps a
    list of cases to a model; ``estimator`` maps (model, case) to mm^3.
    The work is 2k tasks of one ordered work queue (``run_in_order``) on
    ``_fold_workers(k)`` threads: task f trains fold f and task k + f
    scores fold f's held-out cases once that model is ready, so a spare
    thread scores the early folds while the last ones train. ``trainer``
    and ``estimator`` must therefore be safe to call from several
    threads at once. After a task raises no further task is started, and
    the first failure in task order is raised: every training failure
    before any scoring one. The errors and fold means are assembled in
    fold order on the calling thread.
    """
    cohort = list(cohort)
    if len(cohort) != len(plan.fold_of):
        raise ValueError("plan does not match cohort size")
    k = plan.k
    models = [_UNTRAINED] * k
    trained = [threading.Event() for _ in range(k)]

    def task(index):
        fold = index % k
        if index < k:
            try:
                models[fold] = trainer([cohort[i][0] for i in plan.train_indices(fold)])
            finally:  # a failed fold still releases its scorer
                trained[fold].set()
            return None
        trained[fold].wait()
        if models[fold] is _UNTRAINED:  # the trainer's error is raised instead
            return None
        return [float(estimator(models[fold], cohort[i][0])) for i in plan.test_indices(fold)]

    scored = run_in_order(task, 2 * k, _fold_workers(k), "cv-fold")[k:]
    per_case_error = np.full(len(cohort), np.nan)
    per_case_volume = np.full(len(cohort), np.nan)
    fold_means = []
    for fold, volumes in enumerate(scored):
        errors = []
        for i, volume in zip(plan.test_indices(fold), volumes):
            truth = cohort[i][1]
            err = abs(volume - truth) / truth
            per_case_error[i] = err
            per_case_volume[i] = volume
            errors.append(err)
        fold_means.append(float(np.mean(errors)))
    return CVResult(np.array(fold_means), per_case_error, per_case_volume, plan.fold_of.copy())
