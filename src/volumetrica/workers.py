"""Threads for loops of independent tasks: how many to start, and the
ordered work queue they share. The per-case loops of the cohort
commands (``phantom``, ``train``, ``eval``, ``compare``, ``stats``),
the optimizer steps of the CV folds of ``stats`` and the scoring of
their held-out cases, the row bands of ``predict`` and the estimators
and input hashes of ``estimate`` all run through it. A task may wait
for an earlier task, never for a later one: every earlier task has
already been claimed by a running thread. Standard library only; numpy
releases the GIL in the BLAS calls and ufuncs the tasks spend their
time in, hashlib and file reads in theirs.
"""

from __future__ import annotations

import os
import threading


def _blas_threads(cpus: int) -> int:
    """Threads one BLAS call runs on, by OpenBLAS's rule: the first
    positive count among these variables, else every CPU."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return min(int(value), cpus)
    return cpus


def spare_workers(tasks: int) -> int:
    """Threads to run ``tasks`` tasks on: one per CPU that BLAS leaves
    spare, at most one per task. Threads on CPUs that BLAS threads
    already fill only contend (a 5-fold 30-epoch CV run on 2 CPUs took
    54 s, not 40 s, with both), so a multi-threaded BLAS keeps the tasks
    on the calling thread."""
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(tasks, cpus // _blas_threads(cpus)))


def run_in_order(task, count: int, workers: int, name: str) -> list:
    """``[task(0), ..., task(count - 1)]``, computed by the calling
    thread and ``workers - 1`` extra threads named ``name-<n>``.

    The calling thread takes task 0 before any extra thread starts, so
    the first task's allocations stay in that thread's heap; then each
    thread takes the next task index not yet started. After a task
    raises no further task is started, and the exception of the first
    failing task in task order is raised once every thread has stopped:
    tasks start in order, so every task before a failure has already
    started and runs to its end. With one worker no thread is started.
    """
    results = [None] * count
    errors = [None] * count
    lock = threading.Lock()
    pending = iter(range(count))
    stop = False

    def claim():
        with lock:
            return None if stop else next(pending, None)

    def work(index):
        nonlocal stop
        while index is not None:
            try:
                results[index] = task(index)
            except BaseException as exc:  # re-raised on the calling thread below
                errors[index] = exc
                with lock:
                    stop = True
            index = claim()

    first = claim()
    extra = [threading.Thread(target=lambda: work(claim()), name=f"{name}-{n}")
             for n in range(1, workers)]
    for thread in extra:
        thread.start()
    try:
        work(first)
    finally:
        # an interrupt on the calling thread also ends the extra threads
        # after their current task
        with lock:
            stop = True
        for thread in extra:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
