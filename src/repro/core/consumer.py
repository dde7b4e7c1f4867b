"""The PBPL consumer (paper §V-C): predict → reserve → resize.

Each consumer is autonomous. When activated (by its core manager at a
reserved slot, or by a buffer overflow), it drains its buffer in one
batch, then:

1. **Prediction** — records the rate over the last inter-invocation gap
   (``r_j = |γ|/(τ_j − τ_{j-1})``) into its predictor and reads ``r̂``;
2. **Reservation** — evaluates the per-item cost function (Eq. 8)

       ρ(s_j) = (w(s_j) + e(r̂·(s_j−s_i))) / (r̂·(s_j−s_i))

   starting at the buffer-fill horizon ``g(s_i + B/r̂)`` (capped by the
   max response latency) and backtracking toward reserved slots —
   thanks to the track's constant-time helper, exactly two candidates
   need comparing: the ideal slot and the latest already-reserved slot
   before it. Reserved slots have ``w = 0``: that is *latching*.
3. **Dynamic resizing** — shrinks its buffer to the predicted batch for
   the chosen slot (releasing slack into the global pool) or grows it
   from the pool when the prediction would overflow sooner.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.buffers.pool import GlobalBufferPool
from repro.cpu.core import Core
from repro.core.config import PBPLConfig
from repro.core.manager import CoreManager
from repro.core.predictors import HardenedPredictor, RatePredictor, make_predictor
from repro.impls.base import PairStats, Producer
from repro.impls.single import WAKE_CHECK_S
from repro.sim.errors import SimulationError
from repro.telemetry.registry import NULL_REGISTRY
from repro.trace.tracer import NULL_TRACER
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment
    from repro.telemetry.registry import MetricsRegistry
    from repro.trace.tracer import Tracer

#: Upper bounds for the per-batch item-count histogram (powers of two:
#: batch sizes follow buffer capacities, which the pool hands out in
#: small integer steps).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class LatchingConsumer:
    """One PBPL producer-consumer pair member (the consumer side)."""

    #: Per-batch forward hook: a generator callable ``forward(batch)``
    #: run after the batch completes and the core is released. The
    #: pipeline subsystem points this at
    #: :meth:`~repro.pipeline.stage.StageConsumer._forward_batch` so an
    #: operation stage re-produces its drained items into downstream
    #: buffers; None (the default) keeps the plain-pair fast path.
    _forward = None

    def __init__(
        self,
        env: "Environment",
        core: Core,
        manager: CoreManager,
        pool: GlobalBufferPool,
        trace: Trace,
        config: PBPLConfig,
        owner: str = "consumer",
        predictor: Optional[RatePredictor] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.env = env
        self.core = core
        self.manager = manager
        self.pool = pool
        self.trace = trace
        self.config = config
        self.owner = owner
        #: Event tracer (the falsy NULL_TRACER when tracing is off);
        #: the consumer's events live on the track named after it.
        self.tracer = tracer or NULL_TRACER
        #: Aggregated telemetry (the falsy NULL_REGISTRY when metrics
        #: are off). Instruments are resolved once here so every hot
        #: site is a truthiness guard plus one pre-bound method call;
        #: the NULL path hands back shared no-op singletons.
        self.metrics = metrics or NULL_REGISTRY
        self._m_produced = self.metrics.counter(
            "items_produced_total",
            help="Items delivered into consumer buffers.", consumer=owner,
        )
        self._m_consumed = self.metrics.counter(
            "items_consumed_total",
            help="Items drained and serviced by consumers.", consumer=owner,
        )
        self._m_wake_scheduled = self.metrics.counter(
            "wakeups_total",
            help="Consumer wake episodes by cause.",
            consumer=owner, kind="scheduled",
        )
        self._m_wake_overflow = self.metrics.counter(
            "wakeups_total", consumer=owner, kind="overflow",
        )
        self._m_latched = self.metrics.counter(
            "slots_latched_total",
            help="Reservations adopted onto an existing slot (w=0).",
            consumer=owner,
        )
        self._m_missed = self.metrics.counter(
            "slots_missed_total",
            help="Reservations that opened a fresh slot.", consumer=owner,
        )
        self._m_overflows = self.metrics.counter(
            "overflows_total",
            help="Full-buffer encounters on delivery.", consumer=owner,
        )
        self._m_shed = self.metrics.counter(
            "overflow_drops_total",
            help="Items discarded by lossy overflow policies.",
            consumer=owner,
        )
        self._m_resize_up = self.metrics.counter(
            "buffer_resizes_total",
            help="Dynamic buffer resizes by direction.",
            consumer=owner, direction="up",
        )
        self._m_resize_down = self.metrics.counter(
            "buffer_resizes_total", consumer=owner, direction="down",
        )
        self._m_capacity = self.metrics.gauge(
            "buffer_capacity",
            help="Current buffer capacity in slots.", consumer=owner,
        )
        self._m_batch_items = self.metrics.histogram(
            "batch_items", BATCH_BUCKETS,
            help="Items drained per batch.", consumer=owner,
        )
        self._m_clamps = self.metrics.counter(
            "predictor_clamps_total",
            help="Hardened-predictor outlier clamps.", consumer=owner,
        )
        self._m_reconv = self.metrics.counter(
            "predictor_reconvergences_total",
            help="Hardened-predictor regime re-convergences.",
            consumer=owner,
        )
        # Pre-bound `.inc` for the per-item/per-slot sites: one
        # attribute load + call instead of re-creating the bound method
        # on every delivery (measurable by `repro metrics overhead`).
        self._inc_produced = self._m_produced.inc
        self._inc_latched = self._m_latched.inc
        self._inc_missed = self._m_missed.inc
        self._inc_wake_scheduled = self._m_wake_scheduled.inc
        self._inc_wake_overflow = self._m_wake_overflow.inc
        self.stats = PairStats()
        self.predictor = predictor or make_predictor(
            config.predictor,
            **(
                {"window": config.predictor_window}
                if config.predictor == "moving-average"
                else {}
            ),
        )
        if config.harden_predictor and not isinstance(
            self.predictor, HardenedPredictor
        ):
            self.predictor = HardenedPredictor(
                self.predictor, clamp_factor=config.predictor_clamp_factor
            )
        # "adaptive" buffers start lossless ("block") and are flipped to
        # shed-to-deadline by the fault-gated controller only while a
        # fault is detected — so they register with the deadline clock
        # armed but the blocking policy in force.
        self.buffer = pool.register(
            owner,
            policy=(
                "block"
                if config.overflow_policy == "adaptive"
                else config.overflow_policy
            ),
            max_item_age_s=(
                config.max_response_latency_s
                if config.overflow_policy in ("shed-to-deadline", "adaptive")
                else None
            ),
            clock=lambda: self.env.now,
        )
        if self.metrics:
            self._m_capacity.set(self.buffer.capacity)
        #: Transient service-time multiplier (fault injectors raise it
        #: during a consumer-slowdown window).
        self.service_scale = 1.0
        #: Plain callbacks fired on every full-buffer push encounter —
        #: the fault detector's overflow-rate signal subscribes here.
        self.on_overflow: "list" = []
        #: One-shot callbacks fired (then cleared) when a batch fully
        #: completes — the migration layer uses this to timestamp the
        #: consumer's first post-migration batch (its recovery point).
        self.on_batch_done: "list" = []
        self.in_flight = 0
        self._space_event = None
        self._activation = None
        self._overflow = None
        self._done = None
        self._last_invocation = env.now
        # Time-weighted buffer-capacity average (the paper's "average
        # buffer size" metric under dynamic resizing).
        self._created_at = env.now
        self._cap_last_change = env.now
        self._cap_weighted_sum = 0.0

    # -- producer side -----------------------------------------------------------
    def deliver(self, t: float):
        """Delivery routine handed to the :class:`Producer`.

        Under the default ``"block"`` policy a full buffer back-
        pressures the producer (the paper's semantics). Lossy policies
        never block: the buffer itself resolves the overflow (dropping
        or shedding per its policy) and every discarded item is counted
        into ``stats.items_shed`` — the resilience report's
        conservation check depends on that accounting being exact.
        """
        blocked = self.try_deliver(t)
        if blocked is not None:
            yield from blocked

    def try_deliver(self, t: float):
        """Synchronous fast path of :meth:`deliver`.

        Returns None when the item was placed without suspending (the
        overwhelming majority of deliveries), else a generator carrying
        the overflow/back-pressure path for the caller to ``yield
        from``. Same operations in the same order as the plain
        generator route — the split only avoids allocating and resuming
        a generator for deliveries that never block.
        """
        if self.metrics:
            self._inc_produced()
        buffer = self.buffer
        if buffer.is_full:
            return self._deliver_overflow(t)
        buffer.push(t)
        if buffer.is_full:
            self._trigger_overflow()
        return None

    def _deliver_overflow(self, t: float):
        """The full-buffer branch of delivery (block or shed)."""
        self.stats.overflows += 1
        if self.metrics:
            self._m_overflows.inc()
        if self.on_overflow:
            for hook in self.on_overflow:
                hook()
        self._trigger_overflow()
        if self.buffer.policy == "block":
            if self.tracer:
                self.tracer.instant(
                    self.owner, "overflow", "buffer",
                    policy="block", capacity=self.buffer.capacity,
                )
            while self.buffer.is_full:
                # Share one pending event across *all* blocked
                # deliverers: a pipeline fan-in stage has several
                # upstream forwarders, and overwriting the event
                # would orphan (starve) every blocker but the last.
                if self._space_event is None or self._space_event.triggered:
                    self._space_event = self.env.event()
                yield self._space_event
            self.buffer.push(t)
        else:
            before = self.buffer.items_dropped
            self.buffer.try_push(t)
            shed = self.buffer.items_dropped - before
            self.stats.items_shed += shed
            if shed and self.metrics:
                self._m_shed.inc(shed)
            if self.tracer:
                self.tracer.instant(
                    self.owner, "overflow", "buffer",
                    policy=self.buffer.policy, shed=shed,
                    capacity=self.buffer.capacity,
                )
        if self.buffer.is_full:
            self._trigger_overflow()

    def _trigger_overflow(self) -> None:
        if self._overflow is not None and not self._overflow.triggered:
            self._overflow.succeed()
            self._overflow = None

    def _notify_space(self) -> None:
        if self._space_event is not None and not self._space_event.triggered:
            self._space_event.succeed()
        self._space_event = None

    # -- manager side --------------------------------------------------------------
    def activate(self, slot_index: int):
        """Called by the core manager when a reserved slot fires.

        Returns an event that triggers when this consumer has finished
        its batch (or None if the consumer is mid-overflow and will
        re-reserve on its own)."""
        if self._activation is None or self._activation.triggered:
            return None  # busy handling an overflow right now
        self._done = self.env.event()
        self._activation.succeed(slot_index)
        return self._done

    def rehome(self, manager: CoreManager) -> None:
        """Re-home onto ``manager`` after this consumer's core failed.

        Swaps the manager *and* the core (batches, core acquisition and
        trace spans all read ``self.core`` per iteration, so the very
        next batch runs on the new core). The buffer needs no move —
        it lives in the global pool. The predictor carries over as-is:
        rates are grid-independent, and if the post-migration cadence
        shifts the observed rate regime, the
        :class:`~repro.core.predictors.HardenedPredictor` re-convergence
        machinery snaps it to the new level (counted in
        ``predictor_reconvergences``). Re-reservation is the caller's
        move: :func:`repro.core.migration.migrate_consumers` re-reserves
        via :meth:`_make_reservation` — the normal predict → latch →
        resize path — for consumers that held a reservation on the dead
        track.
        """
        if not manager.alive:
            raise RuntimeError(
                f"cannot re-home {self.owner!r} onto dead manager "
                f"core{manager.core.core_id}"
            )
        self.manager = manager
        self.core = manager.core

    # -- the consumer process ----------------------------------------------------
    def process(self):
        env = self.env
        cfg = self.config
        stats = self.stats
        record_latency = stats.record_latency
        item_cost_s = self._item_cost_s
        base_cost = type(self)._item_cost_s is LatchingConsumer._item_cost_s
        deadline_s = cfg.max_response_latency_s
        keep_raw = cfg.track_latencies
        # Bootstrap: no history yet — reserve the very next slot.
        self.manager.reserve(self, self.manager.track.slot_of(env.now) + 1)
        while True:
            self._activation = env.event()
            self._overflow = env.event()
            if self.buffer.is_full:
                # Refilled to the brim while we were still processing the
                # previous batch: handle as an immediate overflow wake.
                scheduled = False
            else:
                yield env.any_of([self._activation, self._overflow])
                scheduled = self._activation.triggered
            self._activation = None
            self._overflow = None
            if not scheduled:
                self.stats.overflow_wakeups += 1
                # We are awake outside our reservation: withdraw it so
                # the manager does not wake the core for a drained buffer.
                self.manager.cancel(self)
            else:
                self.stats.scheduled_wakeups += 1
            if self.metrics:
                (
                    self._inc_wake_scheduled if scheduled else self._inc_wake_overflow
                )()
            self.stats.invocations += 1

            batch_span = None
            if self.tracer:
                batch_span = self.tracer.begin(
                    self.owner, "batch", "consumer",
                    scheduled=scheduled, core=self.core.core_id,
                )
            core = self.core
            hold = yield from core.acquire(self.owner, after_block=True)
            yield from hold.busy(WAKE_CHECK_S)
            batch = self.buffer.drain()
            self.in_flight = len(batch)
            self._notify_space()
            # The per-item loop is hold.busy() inlined (same operations,
            # same order — one generator allocation and two resumes saved
            # per consumed item). hold is never released inside the loop,
            # and the batch-opening busy(WAKE_CHECK_S) above has already
            # consumed the hold's pending wake/context-switch cost, so
            # the startup branch reduces to plain division.
            timeout = env.timeout
            speedup = core.pstates.speedup
            account_busy = core._account_busy
            owner = self.owner
            service_time_s = self.config.service_time_s
            for t in batch:
                # service_scale is read per item on purpose: fault
                # injectors change it mid-run. Subclasses overriding
                # _item_cost_s (pipeline stages) keep their hook; the
                # base cost is computed inline.
                cost = (
                    service_time_s * self.service_scale
                    if base_cost
                    else item_cost_s(t)
                )
                if cost < 0:
                    raise SimulationError(f"negative cpu time {cost!r}")
                if not core._pstate_settled:
                    core._reselect_pstate()
                duration = cost / speedup(core.pstate)
                if duration > 0:
                    yield timeout(duration)
                account_busy(owner, duration)
                stats.consumed += 1
                record_latency(
                    env.now - t, deadline_s, keep_raw, now_s=env.now
                )
                self.in_flight -= 1
            if self.metrics:
                # Batch-level accounting: one observe + one add per
                # batch, never per item.
                self._m_batch_items.observe(len(batch))
                self._m_consumed.inc(len(batch))

            # Prediction update (r_j over the inter-invocation gap).
            gap = env.now - self._last_invocation
            if gap > 0:
                self._observe_rate(len(batch) / gap)
            self._last_invocation = env.now

            self._make_reservation()
            hold.release()
            if batch_span is not None:
                self.tracer.end(batch_span, items=len(batch))

            if self.on_batch_done:
                hooks, self.on_batch_done = self.on_batch_done, []
                for hook in hooks:
                    hook()

            if scheduled and self._done is not None:
                self._done.succeed()
                self._done = None

            if self._forward is not None and batch:
                # Forward *after* releasing the core: a downstream
                # buffer under back-pressure needs the core free so its
                # own consumer can drain it — forwarding while holding
                # the core would deadlock the shared-core case.
                yield from self._forward(batch)

    def _item_cost_s(self, t: float) -> float:
        """Per-item service cost (hook: pipeline stages add a
        deterministic per-item spread)."""
        return self.config.service_time_s * self.service_scale

    def _observe_rate(self, rate: float) -> None:
        """Feed the predictor; trace/count clamp and re-convergence."""
        predictor = self.predictor
        if (self.tracer or self.metrics) and isinstance(
            predictor, HardenedPredictor
        ):
            clamped, reconverged = predictor.clamped, predictor.reconvergences
            predictor.observe(rate)
            if predictor.clamped > clamped:
                if self.tracer:
                    self.tracer.instant(
                        self.owner, "predictor.clamp", "predictor", rate=rate,
                    )
                if self.metrics:
                    self._m_clamps.inc()
            if predictor.reconvergences > reconverged:
                if self.tracer:
                    self.tracer.instant(
                        self.owner, "predictor.reconverge", "predictor",
                        rate=rate,
                    )
                if self.metrics:
                    self._m_reconv.inc()
        else:
            predictor.observe(rate)

    # -- reservation & resizing ---------------------------------------------------
    def _rho(self, slot_index: int, now: float, r_hat: float) -> float:
        """The paper's Eq. 8, per-item cost of draining at ``slot_index``."""
        cfg = self.config
        dt = self.manager.track.time_of(slot_index) - now
        n = max(r_hat * dt, 1e-9)
        w = 0.0 if self.manager.track.is_reserved(slot_index) else cfg.wakeup_cost_j
        return (w + n * cfg.energy_per_item_j) / n

    def _make_reservation(self) -> "tuple[int, bool]":
        """Predict → latch → resize → reserve; returns (slot, latched)."""
        env = self.env
        cfg = self.config
        track = self.manager.track
        now = env.now
        current = track.slot_of(now)
        r_hat = self.predictor.predict()

        # Horizon: when the buffer is predicted to fill, but never past
        # the response-latency bound (§IV-A). Planning uses at least the
        # base entitlement B0: a previous downsizing lent slots to the
        # pool, but B0 is this consumer's reclaimable share — planning
        # with the shrunken capacity would feed back into ever-closer
        # reservations regardless of the configured buffer size.
        plan_capacity = max(self.buffer.capacity, self.pool.base_allocation)
        horizon = self._plan_horizon(r_hat, plan_capacity)
        chosen, latched = self._pick_slot(now + horizon, now, current, r_hat)

        capped = False
        if cfg.enable_resizing:
            self._resize_for(chosen, r_hat)
            if r_hat is not None and r_hat > 0:
                gap = track.time_of(chosen) - now
                if self.buffer.capacity < r_hat * gap:
                    # The pool could not back the planned slot ("fails to
                    # find a slot that can support its expected high
                    # rate", §V-C): fall back to the latest slot the
                    # granted capacity *can* support.
                    supported = now + self.buffer.capacity / r_hat
                    closer, closer_latched = self._pick_slot(
                        supported, now, current, r_hat
                    )
                    if closer < chosen:
                        chosen, latched, capped = closer, closer_latched, True
        if self.tracer:
            self.tracer.instant(
                self.owner, "reserve.decision", "predictor",
                slot=chosen,
                r_hat=(0.0 if r_hat is None else r_hat),
                latched=latched,
                pool_capped=capped,
                capacity=self.buffer.capacity,
            )
        if self.metrics:
            (self._inc_latched if latched else self._inc_missed)()
        self.manager.reserve(self, chosen)
        return chosen, latched

    def _plan_horizon(self, r_hat: Optional[float], plan_capacity: int) -> float:
        """Planning horizon for the next reservation (hook: pipeline
        stages align it with their upstream stage's predicted drain)."""
        cfg = self.config
        if r_hat is None or r_hat <= 0:
            return cfg.max_response_latency_s
        return min(plan_capacity / r_hat, cfg.max_response_latency_s)

    def _pick_slot(
        self, target_time: float, now: float, current: int, r_hat: Optional[float]
    ) -> "tuple[int, bool]":
        """Ideal slot for ``target_time``, latched via the ρ comparison.

        Returns ``(slot, latched)`` — whether the chosen slot is an
        existing reservation adopted over the ideal one (the paper's
        latching move, with ``w = 0`` in Eq. 8).
        """
        cfg = self.config
        track = self.manager.track
        ideal = track.slot_of(target_time)
        if ideal <= current:
            ideal = current + 1
        chosen = ideal
        if cfg.enable_latching and r_hat is not None and r_hat > 0:
            latched = track.last_reserved_at_or_before(ideal, strictly_after=current)
            if latched is not None and latched != ideal:
                # Two candidates (constant-time backtracking): prefer the
                # strictly cheaper per-item cost; ties go to latching.
                if self._rho(latched, now, r_hat) <= self._rho(ideal, now, r_hat):
                    return latched, True
        return chosen, False

    def _resize_for(self, slot_index: int, r_hat: Optional[float]) -> None:
        """Shrink to the predicted batch, or grow from the pool
        (``B_i = min(B_g − ΣB_q, r̂·(τ_{j+1} − τ_j))``)."""
        if r_hat is None:
            return
        # Sizing horizon: the gap to the reserved slot, but never less
        # than one full slot — an overflow wake lands mid-slot, and
        # sizing for the sliver of time left would shrink the buffer
        # into an overflow cascade.
        dt = max(
            self.manager.track.time_of(slot_index) - self.env.now,
            self.manager.track.slot_size_s,
        )
        needed = max(1, math.ceil(r_hat * dt * (1 + self.config.resize_margin)))
        before = self.buffer.capacity
        if needed > self.buffer.capacity:
            self.pool.upsize(self.owner, needed)
        elif needed < self.buffer.capacity:
            self.pool.downsize(self.owner, needed)
        if self.buffer.capacity != before:
            now = self.env.now
            self._cap_weighted_sum += before * (now - self._cap_last_change)
            self._cap_last_change = now
            if self.tracer:
                self.tracer.counter(
                    self.owner, "buffer.capacity", self.buffer.capacity, "buffer"
                )
            if self.metrics:
                (
                    self._m_resize_up
                    if self.buffer.capacity > before
                    else self._m_resize_down
                ).inc()
                self._m_capacity.set(self.buffer.capacity)
        if not self.buffer.is_full:
            # Growing the buffer frees space just like draining does; a
            # producer blocked on the old wall must learn about it.
            self._notify_space()

    def average_buffer_capacity(self, until: Optional[float] = None) -> float:
        """Time-weighted mean of this consumer's buffer capacity."""
        at = self.env.now if until is None else until
        total = self._cap_weighted_sum + self.buffer.capacity * (
            at - self._cap_last_change
        )
        elapsed = at - self._created_at
        return total / elapsed if elapsed > 0 else float(self.buffer.capacity)

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "LatchingConsumer":
        producer = Producer(
            self.env, self.trace, self.deliver, self.stats, f"{self.owner}-producer"
        )
        self.env.process(producer.process(), name=f"{self.owner}-producer")
        self.env.process(self.process(), name=self.owner)
        return self

    def __repr__(self) -> str:
        return f"<LatchingConsumer {self.owner!r} buf={self.buffer!r}>"
