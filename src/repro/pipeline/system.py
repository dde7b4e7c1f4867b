"""PBPL over a pipeline topology: managers + pool + stage consumers.

:class:`PipelineSystem` assembles a validated
:class:`~repro.pipeline.topology.Topology` into running machinery:

* one :class:`~repro.core.manager.CoreManager` per consumer core (the
  same slot grid all stages latch onto),
* one :class:`~repro.buffers.pool.GlobalBufferPool` sized
  ``B_g = B_0 × n_stages`` over the *consumer* stages (operations and
  sinks — sources are external arrival processes and hold no buffer),
* one :class:`~repro.pipeline.stage.StageConsumer` per consumer stage,
  wired to forward into its downstream stages and to publish its
  predicted drain time to them,
* one producer per (source → stage) edge, a source of the run's
  :class:`~repro.sim.arrivals.ArrivalStream` replaying the source's
  workload trace (fan-out at a source is broadcast: every downstream
  stage sees the full feed).

The chaos-compat surface (``pairs``/``consumers``/``managers``/``pool``/
``kill_core``/``aggregate_stats``/…) is inherited from
:class:`~repro.core.system.PBPLSystem` unchanged, so the fault
injectors and consumer migration apply to pipeline stages exactly as
they do to independent pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.buffers.pool import GlobalBufferPool
from repro.core.config import PBPLConfig
from repro.core.manager import CoreManager
from repro.core.system import PBPLSystem
from repro.cpu.machine import Machine
from repro.impls.base import PairStats
from repro.pipeline.stage import StageConsumer
from repro.pipeline.topology import Topology
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment
    from repro.telemetry.registry import MetricsRegistry
    from repro.trace.tracer import Tracer

#: End-to-end latency quantiles the pipeline reports.
E2E_QUANTILES = (0.5, 0.95, 0.99)


def pooled_quantiles(
    stats: Sequence[PairStats], quantiles: Sequence[float]
) -> Dict[float, float]:
    """Exact quantiles of every raw latency in ``stats``; 0 with none."""
    raw: List[float] = []
    for s in stats:
        raw.extend(s.latencies)
    if not raw:
        return {q: 0.0 for q in quantiles}
    arr = np.sort(np.asarray(raw))
    return {q: float(np.quantile(arr, q, method="linear")) for q in quantiles}


@dataclass
class StageMetrics:
    """One consumer stage's share of a pipeline run."""

    stage: str
    role: str
    core: int
    #: Consumer stages on the longest source→stage path (1 = first).
    depth: int
    produced: int
    consumed: int
    items_shed: int
    buffered: int
    invocations: int
    scheduled_wakeups: int
    overflow_wakeups: int
    backpressure_stalls: int
    deadline_misses: int
    max_latency_s: float
    #: Believed stage energy: ω per activation + e per item (the same
    #: Eq. 8 beliefs the reservation cost function optimises against).
    energy_j: float
    avg_buffer_capacity: float


class PipelineSystem(PBPLSystem):
    """The paper's algorithm generalised to a stage DAG."""

    name = "PBPL"
    consumer_cls = StageConsumer

    def __init__(
        self,
        env: "Environment",
        machine: Machine,
        topology: Topology,
        traces: Sequence[Trace],
        config: Optional[PBPLConfig] = None,
        consumer_cores: Optional[Sequence[int]] = None,
        desync_grids: bool = False,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        sources = topology.sources()
        if len(traces) != len(sources):
            raise ValueError(
                f"topology {topology.name!r} has {len(sources)} source(s) "
                f"but {len(traces)} trace(s) were supplied"
            )
        self.env = env
        self.machine = machine
        self.topology = topology
        self.config = config or PBPLConfig()
        self.tracer = tracer
        cores = list(consumer_cores) if consumer_cores else [0]
        slot = self.config.effective_slot_size()

        stages = topology.consumer_stages()
        depths = topology.stage_depths()
        self.pool = GlobalBufferPool(
            self.config.buffer_size, len(stages), metrics=metrics
        )
        distinct = list(dict.fromkeys(cores))
        self.managers: Dict[int, CoreManager] = {
            core_id: CoreManager(
                env,
                machine.core(core_id),
                machine.timers,
                slot,
                grid_origin_s=(
                    i * slot / len(distinct) if desync_grids else 0.0
                ),
                watchdog_grace_s=self.config.watchdog_grace_s,
                tracer=tracer,
                metrics=metrics,
            )
            for i, core_id in enumerate(distinct)
        }
        #: Stage name -> its consumer (topological order in ``consumers``).
        self.stage_consumers: Dict[str, StageConsumer] = {}
        self.consumers: List[StageConsumer] = []
        for i, stage in enumerate(stages):
            core_id = cores[i % len(cores)]
            # Per-stage config: the stage's own service cost, and the
            # *cumulative* deadline depth·L (deadline misses and
            # shed-to-deadline ages are measured from the item's origin
            # timestamp, which compounds along the path).
            stage_config = replace(
                self.config,
                service_time_s=(
                    stage.service_time_s
                    if stage.service_time_s is not None
                    else self.config.service_time_s
                ),
                max_response_latency_s=(
                    self.config.max_response_latency_s * depths[stage.name]
                ),
            )
            consumer = self.consumer_cls(
                env,
                machine.core(core_id),
                self.managers[core_id],
                self.pool,
                stage_config,
                stage,
                stage_budget_s=self.config.max_response_latency_s,
                tracer=tracer,
                metrics=metrics,
            )
            self.stage_consumers[stage.name] = consumer
            self.consumers.append(consumer)

        # Wire forwarding: stage -> downstream consumer stages.
        for stage in stages:
            consumer = self.stage_consumers[stage.name]
            dests = [
                self.stage_consumers[d.name]
                for d in topology.downstream(stage.name)
            ]
            if dests:
                consumer.downstreams = dests

        #: (source stage, trace, fed consumers) triples for :meth:`start`.
        self._source_feeds: List[Tuple[object, Trace, List[StageConsumer]]] = [
            (
                source,
                trace,
                [
                    self.stage_consumers[d.name]
                    for d in topology.downstream(source.name)
                ],
            )
            for source, trace in zip(sources, traces)
        ]
        self.migrations = []

    def start(self) -> "PipelineSystem":
        super().start()
        for source, trace, dests in self._source_feeds:
            for dest in dests:
                self.env.arrivals.add(
                    trace.times, dest.try_deliver, dest.stats,
                    f"{dest.owner}-producer",
                )
        return self

    # -- pipeline metrics -------------------------------------------------------
    @property
    def backpressure_stalls(self) -> int:
        """Forward deliveries that hit a full downstream buffer."""
        return sum(c.backpressure_stalls for c in self.consumers)

    def stage_metrics(self) -> List[StageMetrics]:
        """Per-stage breakdown (topological order)."""
        depths = self.topology.stage_depths()
        cfg = self.config
        rows = []
        for c in self.consumers:
            s = c.stats
            rows.append(
                StageMetrics(
                    stage=c.stage.name,
                    role=c.stage.role,
                    core=c.core.core_id,
                    depth=depths[c.stage.name],
                    produced=s.produced,
                    consumed=s.consumed,
                    items_shed=s.items_shed,
                    buffered=len(c.buffer) + c.in_flight,
                    invocations=s.invocations,
                    scheduled_wakeups=s.scheduled_wakeups,
                    overflow_wakeups=s.overflow_wakeups,
                    backpressure_stalls=c.backpressure_stalls,
                    deadline_misses=s.deadline_misses,
                    max_latency_s=s.max_latency_s,
                    energy_j=(
                        s.invocations * cfg.wakeup_cost_j
                        + s.consumed * cfg.energy_per_item_j
                    ),
                    avg_buffer_capacity=c.average_buffer_capacity(),
                )
            )
        return rows

    def e2e_latency_percentiles(
        self, quantiles: Sequence[float] = E2E_QUANTILES
    ) -> Dict[float, float]:
        """End-to-end latency quantiles over all sink-stage items.

        Sink stages record latency from the item's *origin* timestamp
        (stages forward originals), so their pooled raw samples are the
        pipeline's end-to-end distribution (all 0 before any item).
        """
        sinks = [c for c in self.consumers if c.stage.role == "sink"]
        return pooled_quantiles([c.stats for c in sinks], quantiles)

    def __repr__(self) -> str:
        return (
            f"<PipelineSystem {self.topology.name!r} "
            f"x{len(self.consumers)} cores={sorted(self.managers)}>"
        )
