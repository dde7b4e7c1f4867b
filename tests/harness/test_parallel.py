"""The parallel run-execution engine: ordering, determinism, crashes.

The load-bearing property is byte-identity: dispatching runs across a
process pool must produce *exactly* the output of the serial loop —
same results, same order, same progress log, same rendered reports.
"""

import os

import pytest

from repro.faults import SMOKE_SCENARIOS, run_chaos
from repro.harness import (
    CellSpec,
    ExperimentGrid,
    ParallelExecutor,
    StandardParams,
    WorkerCrashError,
    resolve_jobs,
)
from repro.harness.parallel import JOBS_ENV_VAR


def _square(task):
    return task * task


def _raise_on_negative(task):
    if task < 0:
        raise ValueError(f"bad task {task}")
    return task


def _exit_on_boom(task):
    if task == "boom":
        os._exit(17)  # simulate an OOM-kill / segfault, not an exception
    return task


# -- resolve_jobs ----------------------------------------------------------------


def test_resolve_jobs_defaults_to_one(monkeypatch):
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    assert resolve_jobs(None) == 1


def test_resolve_jobs_reads_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV_VAR, "3")
    assert resolve_jobs(None) == 3
    assert resolve_jobs(2) == 2  # explicit beats the environment


def test_resolve_jobs_rejects_garbage(monkeypatch):
    monkeypatch.setenv(JOBS_ENV_VAR, "many")
    with pytest.raises(ValueError, match="not an integer"):
        resolve_jobs(None)
    with pytest.raises(ValueError, match=">= 1"):
        resolve_jobs(0)


# -- map semantics ---------------------------------------------------------------


def test_map_results_in_task_order_any_jobs():
    tasks = list(range(12))
    serial = ParallelExecutor(1).map(_square, tasks)
    pooled = ParallelExecutor(3).map(_square, tasks)
    assert serial == pooled == [t * t for t in tasks]


def test_progress_fires_in_task_order_any_jobs():
    tasks = list(range(6))
    labels = [f"run {i}" for i in tasks]
    logs = {}
    for jobs in (1, 3):
        lines = []
        ParallelExecutor(jobs).map(
            _square, tasks, labels=labels, progress=lines.append
        )
        logs[jobs] = lines
    assert logs[1] == logs[3] == labels


def test_label_count_must_match():
    with pytest.raises(ValueError, match="labels"):
        ParallelExecutor(1).map(_square, [1, 2], labels=["only one"])


def test_task_exceptions_propagate_like_serial():
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="bad task -3"):
            ParallelExecutor(jobs).map(_raise_on_negative, [1, -3, 2])


def test_worker_crash_raises_worker_crash_error():
    tasks = ["ok1", "ok2", "boom", "ok3"]
    with pytest.raises(WorkerCrashError) as excinfo:
        ParallelExecutor(2).map(
            _exit_on_boom, tasks, labels=[f"cell {t}" for t in tasks]
        )
    exc = excinfo.value
    assert "worker process died while running" in str(exc)
    assert exc.total == len(tasks)
    assert exc.label.startswith("cell ")
    for label, result in exc.completed:  # partial results, in task order
        assert label.startswith("cell ")
        assert result in tasks


# -- byte-identity of real reports -----------------------------------------------


def _chaos(jobs, progress=None):
    return run_chaos(
        SMOKE_SCENARIOS,
        seed=5,
        duration_s=0.4,
        n_consumers=2,
        baseline_impls=("BP",),
        progress=progress,
        jobs=jobs,
    )


def test_chaos_matrix_byte_identical_across_jobs():
    serial_log, pooled_log = [], []
    serial = _chaos(1, serial_log.append)
    pooled = _chaos(4, pooled_log.append)
    assert pooled.to_json() == serial.to_json()
    assert pooled.render() == serial.render()
    assert pooled_log == serial_log


def test_grid_sweep_byte_identical_across_jobs():
    params = StandardParams(duration_s=0.3, replicates=2, seed=42)
    specs = [CellSpec.make("BP", n_consumers=2), CellSpec.make("Sem", n_consumers=2)]
    serial = ExperimentGrid(params, jobs=1).run(specs)
    pooled = ExperimentGrid(params, jobs=4).run(specs)
    assert pooled == serial
    assert repr(pooled) == repr(serial)
