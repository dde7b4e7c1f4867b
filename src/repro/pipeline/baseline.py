"""Baseline implementations over a pipeline topology.

:class:`BaselinePipelineSystem` runs the same stage DAGs as
:class:`~repro.pipeline.system.PipelineSystem`, but with one classic
single-pair implementation (Mutex/Sem/BP/PBP/SPBP) per consumer stage:
each stage keeps its own fixed buffer and synchronisation discipline,
and re-produces its drained items into the downstream stages' delivery
routines via the :attr:`~repro.impls.single.PCImplementation._forward`
hook (:class:`_ForwardingStage`). That makes the comparison fair —
identical topology, identical workload, identical forwarding semantics
(origin timestamps carried end-to-end) — with only the wakeup
discipline differing, which is exactly what ``repro pipeline`` scores.

The spinners (BW/Yield) are rejected: a spinning consumer never
releases its core, so two stages sharing a core could never both run.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.cpu.machine import Machine
from repro.impls.base import PCConfig
from repro.impls.multi import MultiPairSystem
from repro.impls.single import PCImplementation, SINGLE_IMPLEMENTATIONS
from repro.pipeline.system import E2E_QUANTILES, pooled_quantiles
from repro.pipeline.topology import Topology
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment

#: Implementations that cannot share a core across pipeline stages.
_SPINNERS = ("BW", "Yield")


class _ForwardingStage:
    """Mixin that makes a single-pair implementation a pipeline stage.

    Its drained batches go into every downstream stage's delivery
    routine. The ``_forward`` hook is looked up per batch, as
    :class:`~repro.pipeline.stage.StageConsumer` does it, rather than
    stored: a hook kept on the instance would close over the pair, a
    reference cycle that keeps a finished run alive until the cyclic
    collector runs.
    """

    downstreams: Sequence[PCImplementation] = ()
    backpressure_stalls = 0

    @property
    def _forward(self):
        return self._forward_batch if self.downstreams else None

    def _forward_batch(self, batch):
        stalls = 0
        for dest in self.downstreams:
            try_deliver = dest.try_deliver
            dstats = dest.stats
            for t in batch:
                if dest.buffer.is_full:
                    stalls += 1
                blocked = try_deliver(t)
                if blocked is not None:
                    yield from blocked
                dstats.produced += 1
        if stalls:
            self.backpressure_stalls += stalls


#: Each single-pair implementation with the stage hook mixed in.
_STAGE_CLASSES = {
    name: type(f"{cls.__name__}Stage", (_ForwardingStage, cls), {})
    for name, cls in SINGLE_IMPLEMENTATIONS.items()
}


class BaselinePipelineSystem(MultiPairSystem):
    """One baseline implementation instance per consumer stage.

    The :class:`~repro.impls.multi.MultiPairSystem` aggregation surface
    (``pairs``/``aggregate_stats``/``buffered_items``/…) carries over;
    only construction and start-up differ (stages instead of
    independent traces, producers only on source edges).
    """

    def __init__(
        self,
        env: "Environment",
        machine: Machine,
        impl: str,
        topology: Topology,
        traces: Sequence[Trace],
        config: Optional[PCConfig] = None,
        consumer_cores: Optional[Sequence[int]] = None,
    ) -> None:
        if impl in _SPINNERS:
            raise ValueError(
                f"{impl} cannot run a pipeline: a spinning consumer never "
                f"releases its core, so downstream stages would starve"
            )
        sources = topology.sources()
        if len(traces) != len(sources):
            raise ValueError(
                f"topology {topology.name!r} has {len(sources)} source(s) "
                f"but {len(traces)} trace(s) were supplied"
            )
        try:
            impl_cls = _STAGE_CLASSES[impl]
        except KeyError:
            raise ValueError(
                f"unknown implementation {impl!r}; "
                f"choose from {sorted(SINGLE_IMPLEMENTATIONS)}"
            ) from None
        self.env = env
        self.machine = machine
        self.impl_cls = impl_cls
        self.topology = topology
        self.config = config or PCConfig()
        cores = list(consumer_cores) if consumer_cores else [0]

        stages = topology.consumer_stages()
        depths = topology.stage_depths()
        self.stage_pairs: Dict[str, PCImplementation] = {}
        self.pairs: List[PCImplementation] = []
        for i, stage in enumerate(stages):
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
            pair = impl_cls(
                env,
                machine.core(cores[i % len(cores)]),
                machine.timers,
                None,  # no external trace: fed by the upstream stage
                stage_config,
                owner=f"consumer-{stage.name}",
            )
            pair.stage = stage
            self.stage_pairs[stage.name] = pair
            self.pairs.append(pair)

        for stage in stages:
            self.stage_pairs[stage.name].downstreams = [
                self.stage_pairs[d.name]
                for d in topology.downstream(stage.name)
            ]

        self._source_feeds = [
            (
                source,
                trace,
                [
                    self.stage_pairs[d.name]
                    for d in topology.downstream(source.name)
                ],
            )
            for source, trace in zip(sources, traces)
        ]

    #: Alias so duck-typed fault injectors find the consumer list.
    @property
    def consumers(self) -> List[PCImplementation]:
        return self.pairs

    def start(self) -> "BaselinePipelineSystem":
        for pair in self.pairs:
            # Stage consumers start without a producer of their own —
            # their items arrive via the upstream stage's forward.
            self.env.process(pair._consumer(), name=pair.owner)
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
        return sum(p.backpressure_stalls for p in self.pairs)

    def e2e_latency_percentiles(
        self, quantiles: Sequence[float] = E2E_QUANTILES
    ) -> Dict[float, float]:
        """End-to-end quantiles over all sink-stage items (items carry
        origin timestamps, so sink latencies are end-to-end)."""
        sinks = [p for p in self.pairs if p.stage.role == "sink"]
        return pooled_quantiles([p.stats for p in sinks], quantiles)

    def __repr__(self) -> str:
        return (
            f"<BaselinePipelineSystem {self.impl_cls.name} "
            f"{self.topology.name!r} x{len(self.pairs)}>"
        )
