"""The StageConsumer: one pipeline stage as consumer *and* producer.

An interior Operation stage of a :class:`~repro.pipeline.topology.
Topology` drains its upstream buffer exactly like a plain
:class:`~repro.core.consumer.LatchingConsumer` (same predict → latch →
resize loop, same buffer drawn from the global pool) and then
*re-produces* every drained item into its downstream stages' buffers —
the Pipeline/Operation idiom, mapped onto the paper's machinery.

Three things distinguish a stage from a plain pair consumer:

* **Forwarding** — after a batch completes (and the core is released,
  so a back-pressured downstream can still drain), the original
  production timestamps are delivered downstream. Carrying the *origin*
  timestamp means the sink stage's recorded latency is the item's true
  end-to-end pipeline latency, and deadline/shedding ages compound
  correctly along the path.
* **Cross-stage latch alignment** — every reservation publishes its
  predicted drain time (plus ``r̂``) to the downstream stages. An idle
  downstream stage plans its own wake at that drain time, which the ρ
  comparison then latches onto the upstream's already-reserved slot:
  one core wakeup serves the whole chain. The published ``r̂`` also
  seeds an empty downstream predictor (a stage's output rate is its
  successor's arrival rate).
* **Budgets** — a stage at depth ``k`` holds its items to the
  *cumulative* deadline ``k·L`` (its config's ``max_response_latency_s``
  is depth-scaled by the system builder) while planning its own wakeups
  within the per-stage budget ``L`` (``stage_budget_s``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.buffers.pool import GlobalBufferPool
from repro.core.config import PBPLConfig
from repro.core.consumer import LatchingConsumer
from repro.core.manager import CoreManager
from repro.cpu.core import Core
from repro.pipeline.topology import Stage
from repro.workloads.edge import per_item_cost_s

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment
    from repro.telemetry.registry import MetricsRegistry
    from repro.trace.tracer import Tracer
    from repro.workloads.trace import Trace


class StageConsumer(LatchingConsumer):
    """A :class:`LatchingConsumer` that is also a stage's producer side."""

    def __init__(
        self,
        env: "Environment",
        core: Core,
        manager: CoreManager,
        pool: GlobalBufferPool,
        config: PBPLConfig,
        stage: Stage,
        *,
        stage_budget_s: float,
        trace: Optional["Trace"] = None,
        owner: Optional[str] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        super().__init__(
            env,
            core,
            manager,
            pool,
            trace,
            config,
            owner=owner or f"consumer-{stage.name}",
            tracer=tracer,
            metrics=metrics,
        )
        self.stage = stage
        #: Per-stage response budget L (the config's
        #: ``max_response_latency_s`` is the *cumulative* ``depth·L``).
        self.stage_budget_s = stage_budget_s
        #: Downstream stage consumers (wired by the system builder;
        #: empty for sinks). Order follows the topology's edge order,
        #: so fan-out delivery order is deterministic.
        self.downstreams: List["StageConsumer"] = []
        #: Forward deliveries that found the downstream buffer full
        #: (back-pressure pushed upstream instead of absorbed).
        self.backpressure_stalls = 0
        if metrics is not None:
            metrics.counter(
                "backpressure_stalls_total",
                help="Forward deliveries that hit a full downstream buffer.",
                read=lambda: self.backpressure_stalls, stage=stage.name,
            )
        #: Latest upstream predicted hand-off time (cross-stage alignment).
        self._upstream_drain_s = float("-inf")
        #: When the current reservation is upstream-aligned, the slot
        #: floor that keeps ρ-latching from adopting an *earlier* slot
        #: (waking before the hand-off finds an empty buffer).
        self._align_floor: Optional[int] = None

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> "StageConsumer":
        """Interior/sink stages have no external producer: their items
        arrive via an upstream stage's forward. Source-fed stages (a
        trace was supplied) spawn the normal trace replayer."""
        if self.trace is not None:
            super().start()
            return self
        self.env.process(self.process(), name=self.owner)
        return self

    # -- per-item cost -----------------------------------------------------------
    def _item_cost_s(self, t: float) -> float:
        """Per-item service cost with the stage's deterministic spread
        (the hook :func:`~repro.impls.base.serve_batch` calls)."""
        return per_item_cost_s(
            self.config.service_time_s * self.service_scale,
            self.stage.cost_spread,
            t,
        )

    # -- forwarding (the stage's producer side) -----------------------------------
    @property
    def _forward(self):
        """The per-batch forward hook (see :class:`LatchingConsumer`).

        Looked up per batch rather than stored: a bound method kept on
        the instance would be a reference cycle that keeps a finished
        run alive until the cyclic collector runs."""
        return self._forward_batch if self.downstreams else None

    def _forward_batch(self, batch):
        """Deliver a completed batch into every downstream buffer.

        Runs *after* ``hold.release()`` (see
        :meth:`LatchingConsumer.process`): a full downstream buffer
        blocks us here exactly like a back-pressured producer, and the
        downstream consumer needs the core to clear it. Items keep
        their origin timestamps, so latency and shed ages accumulate
        along the path.
        """
        stalls = 0
        for dest in self.downstreams:
            accept = dest._accept_forward
            dstats = dest.stats
            for t in batch:
                if dest.buffer.is_full:
                    stalls += 1
                yield from accept(t)
                dstats.produced += 1
        self.backpressure_stalls += stalls
        if self.tracer.enabled:
            self.tracer.instant(
                self.owner, "stage.forward", "pipeline",
                items=len(batch), fanout=len(self.downstreams), stalls=stalls,
            )

    def _accept_forward(self, t: float):
        """Admit one forwarded item — always flow-controlled.

        Admission control (the overflow policy: shedding, dropping)
        runs exactly once, at the pipeline ingress. An item that made
        it past the ingress is *in* the pipeline: interior hand-offs
        back-pressure the upstream stage on a full buffer instead of
        re-running the lossy policy against already-admitted work.
        Deadline protection still holds — a forwarded item that ages
        past its cumulative deadline is shed by the ingress policy on
        the *next* admission decision upstream, and counted as a
        deadline miss here if served late.
        """
        if self.buffer.is_full:
            self.stats.overflows += 1
            self.stats.forward_overflows += 1
            self._trigger_overflow()
            while self.buffer.is_full:
                if self._space_event is None or self._space_event.triggered:
                    self._space_event = self.env.event()
                yield self._space_event
        self.buffer.push(t)
        if self.buffer.is_full:
            self._trigger_overflow()

    # -- cross-stage latch alignment ----------------------------------------------
    def note_upstream_plan(self, drain_s: float, r_hat: Optional[float]) -> None:
        """An upstream stage reserved a slot draining at ``drain_s``.

        The drain time feeds :meth:`_plan_horizon` (align our next wake
        with the upstream batch hand-off); ``r̂`` seeds our predictor
        when it has no history of its own yet — the upstream's service
        rate *is* our arrival rate until we have observed one.
        """
        if drain_s > self._upstream_drain_s:
            self._upstream_drain_s = drain_s
        if (
            r_hat is not None
            and r_hat > 0
            and self.predictor.predict() is None
        ):
            self._observe_rate(r_hat)
        self._realign(drain_s)

    def _realign(self, drain_s: float) -> None:
        """Chase the upstream's slot when it moves.

        An upstream overflow wake cancels its reservation and re-plans,
        which would strand our aligned reservation on a slot nobody
        else holds (an unshared core wakeup for a still-empty buffer).
        While we are idle with an empty buffer, move the pending
        reservation onto the newly published hand-off slot instead.
        """
        if not self.buffer.is_empty:
            return
        if self._activation is None or self._activation.triggered:
            return  # mid-batch (or already activated): re-plan normally
        gap = drain_s - self.env.now
        if not 0.0 < gap <= self.stage_budget_s:
            return
        track = self.manager.track
        target = track.slot_of(drain_s)
        held = track.reservation_of(self)
        if held is None or held == target or target <= track.slot_of(self.env.now):
            return
        if self.tracer.enabled:
            self.tracer.instant(
                self.owner, "stage.align", "pipeline",
                drain_s=drain_s, realigned=True,
            )
        self.manager.reserve(self, target)

    def _make_reservation(self):
        chosen, latched = super()._make_reservation()
        if self.downstreams:
            # Publish our own activation slot as the hand-off: a
            # downstream aligned onto the *same* slot queues behind us
            # on the core, and the forward-after-release ordering lands
            # our batch in its buffer before its drain runs — one core
            # wakeup serves the whole chain.
            drain_s = self.manager.track.time_of(chosen)
            r_hat = self.predictor.predict()
            for dest in self.downstreams:
                dest.note_upstream_plan(drain_s, r_hat)
        self._align_floor = None
        return chosen, latched

    def _plan_horizon(self, r_hat, plan_capacity):
        """Per-stage budget L, aligned with the upstream hand-off when idle.

        The config's ``max_response_latency_s`` is the cumulative
        ``depth·L`` (it governs deadline misses and shed ages), so the
        wake-planning cap is re-anchored to the per-stage budget here.
        An *empty* stage whose upstream hand-off lands within the budget
        plans its wake exactly there — that slot is typically shared
        with sibling stages aligned on the same hand-off, so one core
        wakeup serves the whole fan-out. The floor recorded alongside
        keeps :meth:`_pick_slot` from ρ-latching an *earlier* slot
        (which would fire before the items exist).
        """
        L = self.stage_budget_s
        if r_hat is None or r_hat <= 0:
            horizon = L
        else:
            horizon = min(plan_capacity / r_hat, L)
        hint = self._upstream_drain_s
        now = self.env.now
        gap = hint - now
        if 0.0 < gap <= L and self._align_safe(hint):
            if self.tracer.enabled:
                self.tracer.instant(
                    self.owner, "stage.align", "pipeline", drain_s=hint,
                )
            self._align_floor = self.manager.track.slot_of(hint) - 1
            horizon = gap
        return horizon

    def _align_safe(self, hint: float) -> bool:
        """Aligning must not sacrifice already-buffered items: the
        oldest one has to still meet its *cumulative* deadline when the
        upstream hand-off slot fires."""
        if self.buffer.is_empty:
            return True
        return hint - self.buffer.peek() <= self.config.max_response_latency_s

    def _pick_slot(self, target_time, now, current, r_hat):
        floor = self._align_floor
        if floor is not None and floor > current:
            # Aligned reservation: never adopt a slot before the
            # upstream hand-off, including on the pool-capped re-pick.
            current = floor
        return super()._pick_slot(target_time, now, current, r_hat)
