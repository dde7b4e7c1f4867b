"""The §VI run plan: every evaluation cell simulated once per grid.

The paper's multi-pair evaluation is one grid — implementation ×
consumers × buffer size — and its figures are views through it:
Figure 9 is one column, Figures 10 and 11 are a row and a column
through the Figure 9 cell, and the §VI-C scalars reuse the BP/PBPL
cells at B0 = 25 and 50. An :class:`ExperimentGrid` holds the runs it
has simulated in memory, keyed on the *resolved* cell, so every view
that asks for a cell it already holds gets the same
:class:`~repro.metrics.run.RunMetrics` back instead of a re-run.

The memo lives on the grid object, never at module level: a fresh grid
(what each standalone ``run_*`` call builds) simulates every run it
returns.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.harness.parallel import ParallelExecutor
from repro.harness.params import StandardParams
from repro.harness.runner import run_multi
from repro.metrics.run import RunMetrics


@dataclass(frozen=True)
class CellSpec:
    """One grid cell: an implementation in a specific configuration."""

    implementation: str
    n_consumers: int = 5
    buffer_size: Optional[int] = None
    #: PBPL-only config overrides, as a hashable sorted tuple of pairs.
    pbpl_overrides: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, implementation: str, **kwargs) -> "CellSpec":
        overrides = kwargs.pop("pbpl_overrides", None)
        if isinstance(overrides, dict):
            kwargs["pbpl_overrides"] = tuple(sorted(overrides.items()))
        elif overrides is not None:
            kwargs["pbpl_overrides"] = tuple(overrides)
        return cls(implementation=implementation, **kwargs)

    def overrides_dict(self) -> dict:
        return dict(self.pbpl_overrides)


class ExperimentGrid:
    """Runs cells against one parameter set, each (cell, replicate) once.

    ``jobs=None`` honours ``$REPRO_JOBS``.
    """

    def __init__(self, params: StandardParams, jobs: Optional[int] = None) -> None:
        self.params = params
        self.executor = ParallelExecutor(jobs)
        self._runs: Dict[Tuple[Hashable, int], RunMetrics] = {}

    def _cell_key(self, spec: CellSpec) -> Hashable:
        """What the simulation actually depends on: the buffer resolved
        against the params, and for PBPL the full resolved config, so an
        override equal to its default lands on the default cell."""
        buf = (
            self.params.buffer_size
            if spec.buffer_size is None
            else spec.buffer_size
        )
        if spec.implementation != "PBPL":
            return (spec.implementation, spec.n_consumers, buf)
        config = self.params.pbpl_config(buf, **spec.overrides_dict())
        return (spec.implementation, spec.n_consumers, buf, astuple(config))

    def run(self, specs: Sequence[CellSpec]) -> List[RunMetrics]:
        """Every replicate of every spec, in spec × replicate order.

        Only the (cell, replicate) pairs this grid does not hold yet are
        simulated, in one executor map and in that same order, so a
        multi-job executor keeps every worker busy and the result is
        byte-identical to the serial sweep.
        """
        replicates = range(self.params.replicates)
        cells = [(spec, self._cell_key(spec)) for spec in specs]
        missing: Dict[Tuple[Hashable, int], Tuple] = {}
        for spec, key in cells:
            for replicate in replicates:
                if (key, replicate) not in self._runs:
                    missing.setdefault((key, replicate), (spec, self.params, replicate))
        runs = self.executor.map(
            _replicate_task,
            list(missing.values()),
            labels=[
                f"{spec.implementation} x{spec.n_consumers} r{replicate}"
                for spec, _, replicate in missing.values()
            ],
        )
        self._runs.update(zip(missing, runs))
        return [self._runs[key, r] for _, key in cells for r in replicates]


def _replicate_task(task) -> RunMetrics:
    """One (cell, replicate) run — module-level so pool workers can
    pickle it by reference."""
    spec, params, replicate = task
    return run_multi(
        spec.implementation,
        spec.n_consumers,
        params,
        replicate,
        buffer_size=spec.buffer_size,
        pbpl_overrides=spec.overrides_dict() or None,
    )
