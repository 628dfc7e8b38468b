import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from volumetrica import workers as vworkers
from volumetrica.nn import network
from volumetrica.nn.network import build_segmenter_2d, build_segmenter_3d, input_cols, predict
from volumetrica.nn.training import TrainConfig, train
from volumetrica.stats import resample
from volumetrica.stats.resample import cv_volume_error, kfold


class MeanVolumeModel:
    """Toy model: predicts the mean training-truth volume."""

    def __init__(self, volumes):
        self.value = float(np.mean(volumes))


def _cohort(n, rng):
    truths = rng.uniform(500.0, 1500.0, n)
    return [(float(t), float(t)) for t in truths]  # case payload = its truth


class TestCvVolumeError:
    def test_every_case_scored_once_out_of_fold(self):
        rng = np.random.default_rng(0)
        cohort = _cohort(25, rng)
        plan = kfold(25, 5, seed=1)
        cv = cv_volume_error(
            cohort,
            trainer=lambda cases: MeanVolumeModel(cases),
            estimator=lambda model, case: model.value,
            plan=plan,
        )
        assert np.all(np.isfinite(cv.per_case_error))
        assert np.all(np.isfinite(cv.per_case_volume))
        assert len(cv.per_fold_mean) == 5
        assert cv.sd_error >= 0.0
        np.testing.assert_array_equal(cv.fold_of, plan.fold_of)

    def test_perfect_estimator_zero_error(self):
        rng = np.random.default_rng(1)
        cohort = _cohort(10, rng)
        plan = kfold(10, 5, seed=2)
        cv = cv_volume_error(
            cohort,
            trainer=lambda cases: None,
            estimator=lambda model, case: case,  # the payload is the truth
            plan=plan,
        )
        np.testing.assert_array_equal(cv.per_case_error, 0.0)
        assert cv.mean_error == 0.0

    def test_fold_errors_partition(self):
        rng = np.random.default_rng(2)
        cohort = _cohort(12, rng)
        plan = kfold(12, 4, seed=3)
        cv = cv_volume_error(
            cohort,
            trainer=lambda cases: MeanVolumeModel(cases),
            estimator=lambda model, case: model.value,
            plan=plan,
        )
        total = sum(len(cv.fold_errors(f)) for f in range(4))
        assert total == 12
        for f in range(4):
            np.testing.assert_allclose(cv.fold_errors(f).mean(), cv.per_fold_mean[f])

    def test_plan_size_mismatch(self):
        plan = kfold(8, 4, seed=0)
        with pytest.raises(ValueError, match="cohort"):
            cv_volume_error([(1.0, 1.0)] * 9, lambda c: None, lambda m, c: 1.0, plan)

    def test_trainer_never_sees_test_cases(self):
        plan = kfold(9, 3, seed=5)
        cohort = [(i, float(i + 1)) for i in range(9)]
        seen = []

        def trainer(cases):
            seen.append(sorted(cases))
            return set(cases)

        def estimator(model, case):
            # folds train concurrently, so a model is matched to its fold
            # through the held-out case it scores, not through call order
            assert case not in model
            assert model == set(int(i) for i in plan.train_indices(plan.fold_of[case]))
            return 1.0

        cv_volume_error(cohort, trainer, estimator, plan)
        assert len(seen) == 3
        assert sorted(seen) == sorted(
            sorted(int(i) for i in plan.train_indices(fold)) for fold in range(3)
        )


def _net_cohort(n, rng):
    """(case, truth) pairs whose cases are small 3-D training triples
    with read-only first-layer columns, as ``stats`` prepares them."""
    net = build_segmenter_3d(seed=0)
    cohort = []
    for _ in range(n):
        x = rng.uniform(size=(8, 8, 8, 1))
        case = (x, (rng.uniform(size=(4, 4, 4, 1)) > 0.5).astype(float), input_cols(net, x))
        for a in case:
            a.flags.writeable = False
        cohort.append((case, float(rng.uniform(5.0, 50.0))))
    return cohort


def _train_net(cases):
    net = build_segmenter_3d(seed=3)
    train(net, cases, TrainConfig(epochs=2))
    return net


def _predicted_volume(net, case):
    return float(predict(net, case[0]).sum())


class TestFoldWorkers:
    def test_any_worker_count_gives_the_same_result(self, monkeypatch):
        cohort = _net_cohort(8, np.random.default_rng(3))
        plan = kfold(8, 4, seed=4)
        results = []
        for workers in (1, 2, plan.k):
            monkeypatch.setattr(resample, "_fold_workers", lambda k: workers)
            results.append(cv_volume_error(cohort, _train_net, _predicted_volume, plan))
        for cv in results[1:]:
            for field in ("per_fold_mean", "per_case_error", "per_case_volume", "fold_of"):
                np.testing.assert_array_equal(getattr(cv, field), getattr(results[0], field),
                                              strict=True)

    @pytest.mark.parametrize(
        "env, workers",
        [({}, 1), ({"OPENBLAS_NUM_THREADS": "1"}, 4), ({"OMP_NUM_THREADS": "2"}, 2),
         ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),
         ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 4),
         ({"GOTO_NUM_THREADS": "8"}, 1)],
    )
    def test_workers_fill_the_cpus_blas_leaves_spare(self, monkeypatch, env, workers):
        monkeypatch.setattr(vworkers.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert resample._fold_workers(5) == workers
        assert resample._fold_workers(3) == min(3, workers)

    @pytest.mark.parametrize("blas, workers", [(None, 1), ("1", 4), ("2", 2)])
    def test_band_workers_follow_the_same_rule(self, monkeypatch, blas, workers):
        # predict's bands take their worker count from the rule above,
        # capped at the bands of the full budget: 32 for a 1024^2 slice
        # through the 2-D segmenter, one for a 32^3 volume through the 3-D
        monkeypatch.setattr(vworkers.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        if blas is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
        for net, shape, bands in [(build_segmenter_2d(seed=0), (1024, 1024, 1), 32),
                                  (build_segmenter_2d(seed=0), (256, 256, 1), 2),
                                  (build_segmenter_2d(seed=0), (128, 128, 1), 1),
                                  (build_segmenter_3d(seed=0), (32, 32, 32, 1), 1)]:
            shapes = net.output_shapes(shape)
            height = network._bands(net, shape, shapes)[0]
            assert -(-shape[0] // height) == bands
            assert network._band_plan(net, shape, shapes)[0] == min(bands, workers)
            assert resample._fold_workers(bands) == min(bands, workers)

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_first_failing_fold_in_fold_order_is_raised(self, monkeypatch, workers):
        plan = kfold(10, 5, seed=6)
        cohort = [(i, 1.0) for i in range(10)]
        fold_of_train = {
            tuple(int(i) for i in plan.train_indices(f)): f for f in range(5)
        }
        started = []

        def trainer(cases):
            fold = fold_of_train[tuple(cases)]
            started.append(fold)
            if fold == 1:
                time.sleep(0.2)  # fold 3 fails first in time
                raise ValueError("fold 1")
            if fold == 3:
                raise ValueError("fold 3")
            return None

        monkeypatch.setattr(resample, "_fold_workers", lambda k: workers)
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="fold 1"):
            cv_volume_error(cohort, trainer, lambda m, c: 1.0, plan)
        assert set(threading.enumerate()) == before
        assert 1 in started and sorted(started) == list(range(len(started)))
        if workers == 1:
            assert started == [0, 1]  # no fold starts after a failure

    def test_more_workers_than_cores_train_each_fold_once(self, monkeypatch):
        # a lost update in handing out folds would train one twice or skip one
        k = 12
        plan = kfold(3 * k, k, seed=8)
        cohort = [(i, 1.0) for i in range(3 * k)]
        trained = Counter()
        lock = threading.Lock()

        def trainer(cases):
            key = tuple(cases)
            sum(i * i for i in range(2000))  # Python work, so threads switch mid-fold
            with lock:
                trained[key] += 1
            return key

        def estimator(model, case):  # exact only with the model of the case's fold
            own = tuple(int(i) for i in plan.train_indices(plan.fold_of[case]))
            return 1.0 if model == own else 2.0

        monkeypatch.setattr(resample, "_fold_workers", lambda k: k)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                trained.clear()
                cv = cv_volume_error(cohort, trainer, estimator, plan)
                assert np.all(cv.per_case_error == 0.0)
                assert sorted(trained.values()) == [1] * k
                assert set(trained) == {
                    tuple(int(i) for i in plan.train_indices(f)) for f in range(k)
                }
        finally:
            sys.setswitchinterval(interval)


class TestScoringOverlapsTraining:
    """Task k + f scores fold f as soon as its model is ready, so a spare
    thread scores the early folds while the last ones train."""

    @staticmethod
    def _folds(plan):
        """the fold each trainer input belongs to"""
        return {tuple(int(i) for i in plan.train_indices(f)): f for f in range(plan.k)}

    def test_first_fold_is_scored_before_the_last_one_trains(self, monkeypatch):
        plan = kfold(6, 3, seed=1)
        cohort = [(i, 1.0) for i in range(6)]
        fold_of_train = self._folds(plan)
        scored_fold_0 = threading.Event()
        seen_while_training = []

        def trainer(cases):
            fold = fold_of_train[tuple(cases)]
            if fold == 2:  # returns only once fold 0 has been scored, or after the timeout
                seen_while_training.append(scored_fold_0.wait(timeout=10))
            return fold

        def estimator(model, case):
            if model == 0:
                scored_fold_0.set()
            return 1.0

        monkeypatch.setattr(resample, "_fold_workers", lambda k: 2)
        before = set(threading.enumerate())
        cv = cv_volume_error(cohort, trainer, estimator, plan)
        assert set(threading.enumerate()) == before
        assert seen_while_training == [True]
        np.testing.assert_array_equal(cv.per_case_error, 0.0)

    def test_failed_fold_releases_its_waiting_scorer(self, monkeypatch):
        plan = kfold(6, 3, seed=1)
        cohort = [(i, 1.0) for i in range(6)]
        fold_of_train = self._folds(plan)
        scored_fold_0 = threading.Event()
        scored = []

        def trainer(cases):
            fold = fold_of_train[tuple(cases)]
            if fold == 1:
                # by now the other thread has scored fold 0 and waits for fold 1
                assert scored_fold_0.wait(timeout=10)
                time.sleep(0.2)
                raise ValueError("fold 1")
            return fold

        def estimator(model, case):
            scored.append(model)
            if model == 0:
                scored_fold_0.set()
            return 1.0

        monkeypatch.setattr(resample, "_fold_workers", lambda k: 2)
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="fold 1"):
            cv_volume_error(cohort, trainer, estimator, plan)
        assert set(threading.enumerate()) == before
        assert 1 not in scored and 0 in scored

    @pytest.mark.parametrize("workers", [1, 2])
    def test_model_none_is_scored(self, monkeypatch, workers):
        plan = kfold(9, 3, seed=2)
        cohort = [(i, float(i + 1)) for i in range(9)]
        models = []

        def estimator(model, case):
            models.append(model)
            return case + 1.0

        monkeypatch.setattr(resample, "_fold_workers", lambda k: workers)
        cv = cv_volume_error(cohort, lambda cases: None, estimator, plan)
        assert models == [None] * 9
        np.testing.assert_array_equal(cv.per_case_volume, np.arange(1.0, 10.0))
        np.testing.assert_array_equal(cv.per_case_error, 0.0)


class TestCVPlan:
    def test_indices_consistency(self):
        plan = kfold(14, 4, seed=7)
        for fold in range(4):
            test = set(plan.test_indices(fold).tolist())
            train = set(plan.train_indices(fold).tolist())
            assert test | train == set(range(14))
            assert not test & train

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            kfold(5, 1)
