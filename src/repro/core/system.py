"""PBPL system assembly: managers + pool + latching consumers.

This is the top-level entry point for running the paper's algorithm:
one :class:`~repro.core.manager.CoreManager` per consumer core, one
:class:`~repro.buffers.pool.GlobalBufferPool` shared by all consumers
(``B_g = B_0 × M``), and one :class:`LatchingConsumer` per trace. The
interface mirrors :class:`repro.impls.multi.MultiPairSystem` so the
experiment harness treats PBPL as just another implementation named
``"PBPL"``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.buffers.pool import GlobalBufferPool
from repro.cpu.machine import Machine
from repro.core.config import PBPLConfig
from repro.core.consumer import LatchingConsumer
from repro.core.manager import CoreManager
from repro.core.migration import MigrationReport, migrate_consumers
from repro.impls.base import PairStats
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment
    from repro.telemetry.registry import MetricsRegistry
    from repro.trace.tracer import Tracer


class PBPLSystem:
    """The paper's algorithm over M producer-consumer pairs.

    Parameters
    ----------
    traces:
        One trace per pair (phase-shifted copies in the paper's setup).
    config:
        :class:`PBPLConfig`; ``buffer_size`` plays the role of B_0.
    consumer_cores:
        Core ids hosting consumers, round-robin (default ``[0]``,
        matching the baselines' placement).
    desync_grids:
        Stagger each core manager's slot-grid origin by Δ/n_cores
        (ablation knob: shared origins align idle windows across cores,
        which cluster-level idle states reward — see
        :mod:`repro.cpu.cluster`).
    """

    name = "PBPL"
    #: Consumer class to instantiate (extension hook — the resource-aware
    #: generalisation substitutes its own subclass).
    consumer_cls = LatchingConsumer

    def __init__(
        self,
        env: "Environment",
        machine: Machine,
        traces: Sequence[Trace],
        config: Optional[PBPLConfig] = None,
        consumer_cores: Optional[Sequence[int]] = None,
        desync_grids: bool = False,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if not traces:
            raise ValueError("need at least one trace")
        self.env = env
        self.machine = machine
        self.config = config or PBPLConfig()
        #: Event tracer threaded into every manager and consumer
        #: (None keeps them on the zero-cost NULL_TRACER path).
        self.tracer = tracer
        #: Metrics registry threaded the same way (None keeps every
        #: instrumentation site on the zero-cost NULL_REGISTRY path).
        self.metrics = metrics
        cores = list(consumer_cores) if consumer_cores else [0]
        slot = self.config.effective_slot_size()

        self.pool = GlobalBufferPool(
            self.config.buffer_size, len(traces), metrics=metrics
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
        self.consumers: List[LatchingConsumer] = [
            self.consumer_cls(
                env,
                machine.core(cores[i % len(cores)]),
                self.managers[cores[i % len(cores)]],
                self.pool,
                trace,
                self.config,
                owner=f"consumer-{i}",
                tracer=tracer,
                metrics=metrics,
            )
            for i, trace in enumerate(traces)
        ]
        #: One report per core failure survived (see :meth:`kill_core`).
        self.migrations: List[MigrationReport] = []
        #: Fault-gated adaptive-overflow rig (armed by :meth:`start`
        #: when ``config.overflow_policy == "adaptive"``).
        self.adaptive = None

    #: Mirror of MultiPairSystem for harness interchangeability.
    @property
    def pairs(self) -> List[LatchingConsumer]:
        return self.consumers

    def start(self) -> "PBPLSystem":
        for manager in self.managers.values():
            manager.start()
        for consumer in self.consumers:
            consumer.start()
        if self.config.overflow_policy == "adaptive":
            # Local import: repro.faults.adaptive is kernel-importable
            # (only faults.chaos is fenced off by the layer rules), but
            # importing it lazily keeps module load acyclic.
            from repro.faults.adaptive import arm_adaptive_overflow

            self.adaptive = arm_adaptive_overflow(
                self.env, self, tracer=self.tracer
            )
        return self

    # -- core failure & migration ---------------------------------------------
    def kill_core(self, core_id: int) -> MigrationReport:
        """Fail-stop core ``core_id``'s manager and migrate its consumers.

        Teardown + re-homing + re-reservation run synchronously at the
        call's timestamp (see :mod:`repro.core.migration`); the report
        is also appended to :attr:`migrations` for the resilience
        metrics. Raises for unknown/already-dead cores and when no
        manager would survive — the caller (the fault injector) treats
        the no-survivor case as "fault has no purchase" *before*
        calling.
        """
        manager = self.managers.get(core_id)
        if manager is None:
            raise ValueError(
                f"no manager on core {core_id} (managers: {sorted(self.managers)})"
            )
        if not manager.alive:
            raise ValueError(f"core {core_id}'s manager is already dead")
        if not any(
            m.alive for cid, m in self.managers.items() if cid != core_id
        ):
            raise RuntimeError(
                f"cannot kill core {core_id}: no surviving manager to "
                f"migrate its consumers onto"
            )
        report = migrate_consumers(self, manager, tracer=self.tracer)
        self.migrations.append(report)
        return report

    # -- aggregated statistics -----------------------------------------------
    def aggregate_stats(self) -> PairStats:
        """Element-wise sum of all consumers' counters.

        ``scheduled_wakeups`` is taken from the managers (one per fired
        slot — a *CPU* wakeup), not from the consumers (one per
        activation — a *process* wakeup), matching how the paper counts
        its internal upper bound.
        """
        total = PairStats()
        for consumer in self.consumers:
            s = consumer.stats
            total.produced += s.produced
            total.consumed += s.consumed
            total.invocations += s.invocations
            total.overflows += s.overflows
            total.items_shed += s.items_shed
            total.overflow_wakeups += s.overflow_wakeups
            total.deadline_misses += s.deadline_misses
            total.last_miss_s = max(total.last_miss_s, s.last_miss_s)
            total.latencies.extend(s.latencies)
            total._lat_sum += s._lat_sum
            total._lat_n += s._lat_n
            total._lat_max = max(total._lat_max, s._lat_max)
        total.scheduled_wakeups = sum(
            m.scheduled_wakeups for m in self.managers.values()
        )
        return total

    @property
    def watchdog_recoveries(self) -> int:
        """Slots fired by the watchdog instead of their (lost) timer."""
        return sum(m.watchdog_recoveries for m in self.managers.values())

    @property
    def lost_signals(self) -> int:
        """Slot timer signals the fault model swallowed."""
        return sum(m.lost_signals for m in self.managers.values())

    def buffered_items(self) -> int:
        """Items currently sitting (or in flight) in consumer buffers —
        the remainder term of the conservation check
        ``produced == consumed + shed + buffered``."""
        return sum(len(c.buffer) + c.in_flight for c in self.consumers)

    @property
    def predictor_clamps(self) -> int:
        """HardenedPredictor clamp events across all consumers (0 when
        the predictors are not hardened)."""
        return sum(
            getattr(c.predictor, "clamped", 0) for c in self.consumers
        )

    @property
    def predictor_reconvergences(self) -> int:
        """HardenedPredictor reconvergence events across all consumers."""
        return sum(
            getattr(c.predictor, "reconvergences", 0) for c in self.consumers
        )

    @property
    def total_activations(self) -> int:
        """Consumer activations across all managers (≥ scheduled slots;
        the ratio is the latching factor)."""
        return sum(m.activations for m in self.managers.values())

    def average_buffer_capacity(self) -> float:
        """Mean (over consumers) of time-weighted buffer capacity — the
        paper's "average buffer size" metric (≈43 of 50 in its runs)."""
        if not self.consumers:
            return 0.0
        return sum(c.average_buffer_capacity() for c in self.consumers) / len(
            self.consumers
        )

    def __repr__(self) -> str:
        return f"<PBPLSystem x{len(self.consumers)} cores={sorted(self.managers)}>"
