"""Process-pool execution engine for independent simulation runs.

Every experiment in this repository — grid cells, chaos scenario ×
implementation pairs, replicates — is a *pure function* of its
parameters: a fresh :class:`~repro.harness.runner.Rig` per run, named
RNG streams derived from ``(seed, replicate)``, no shared mutable
state. That is exactly the property that lets the in-memory run plan
(:class:`~repro.harness.grid.ExperimentGrid`) hand one run of a cell
to every figure that reads it, and it equally makes runs safe to fan
out across processes.

:class:`ParallelExecutor` is the one engine all of them share:

* ``jobs=1`` (the default) runs fully in-process — no pool, no pickle,
  byte-for-byte the historical serial behaviour;
* ``jobs=N`` dispatches tasks to a ``ProcessPoolExecutor`` and returns
  results **in task order**, so callers reassemble reports that are
  byte-identical to a serial run;
* progress callbacks fire at *dispatch* time in task order, so the
  progress log is identical no matter how workers interleave;
* a worker process dying (OOM-killed, segfaulted C extension, …)
  surfaces as :class:`WorkerCrashError` naming the task that was lost,
  with every already-completed result attached — callers report partial
  results and exit non-zero instead of dumping a pool traceback.

Task functions must be module-level (picklable by reference) and take a
single argument tuple. Workers are ordinary Python processes that
import :mod:`repro`; per-process module-level caches (the baseline
cache and the workload-trace memo in :mod:`repro.harness.runner`) warm
up once per worker and are then shared by every task the worker runs —
the World Cup-like workload is synthesized once per worker, not once
per run.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence

# Re-exported for back-compat; the environment read itself lives in
# harness.params (the one module allowed to touch ambient config).
from repro.harness.params import JOBS_ENV_VAR, ambient_jobs


class WorkerCrashError(RuntimeError):
    """A pool worker died mid-run (not a Python exception in the task).

    Attributes
    ----------
    label:
        Human-readable name of the first task whose result was lost.
    completed:
        Results that finished before the crash, as ``(label, result)``
        pairs in task order — callers can report partial progress.
    total:
        Total number of tasks that were dispatched.
    """

    def __init__(
        self,
        label: str,
        completed: List[tuple],
        total: int,
    ) -> None:
        super().__init__(
            f"worker process died while running {label!r} "
            f"({len(completed)}/{total} runs completed)"
        )
        self.label = label
        self.completed = completed
        self.total = total


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective job count: explicit value, else ``$REPRO_JOBS``, else 1."""
    if jobs is None:
        jobs = ambient_jobs()
        if jobs is None:
            return 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


class ParallelExecutor:
    """Dispatch independent run tasks, serially or across a process pool."""

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = resolve_jobs(jobs)

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        labels: Optional[Sequence[str]] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> List[Any]:
        """Run ``fn`` over ``tasks``; results come back in task order.

        ``labels`` (parallel to ``tasks``) name tasks for progress lines
        and crash reports. ``progress`` is invoked once per task, in
        task order, at dispatch time — identical output for any jobs
        count. An ordinary exception raised *by the task* propagates
        exactly as it would serially; only the worker process itself
        dying is translated to :class:`WorkerCrashError`.
        """
        tasks = list(tasks)
        if labels is None:
            labels = [f"task {i}" for i in range(len(tasks))]
        else:
            labels = list(labels)
            if len(labels) != len(tasks):
                raise ValueError(
                    f"{len(labels)} labels for {len(tasks)} tasks"
                )
        if self.jobs == 1 or len(tasks) <= 1:
            results = []
            for label, task in zip(labels, tasks):
                if progress is not None:
                    progress(label)
                results.append(fn(task))
            return results

        workers = min(self.jobs, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                futures = []
                for label, task in zip(labels, tasks):
                    if progress is not None:
                        progress(label)
                    futures.append(pool.submit(fn, task))
            except BrokenProcessPool:
                raise WorkerCrashError(labels[len(futures)], [], len(tasks))
            completed: List[tuple] = []
            results = []
            for label, future in zip(labels, futures):
                try:
                    result = future.result()
                except BrokenProcessPool:
                    raise WorkerCrashError(label, completed, len(tasks)) from None
                completed.append((label, result))
                results.append(result)
        return results
