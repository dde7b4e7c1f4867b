"""The seven single producer-consumer implementations (paper §III-A).

Each class wires one trace-driven producer (a source of the run's
:class:`~repro.sim.arrivals.ArrivalStream`) to one consumer process on
one core, differing only in synchronisation discipline — exactly the
study set of the paper:

====== ==========================================================
BW     busy-wait until ``tail != head``; never sleeps
Yield  busy-wait but ``sched_yield`` in the loop (DVFS clocks down)
Mutex  mutex + condition variables over a counted buffer
Sem    two counting semaphores over a circular buffer
BP     sleep until the buffer is *full*, then drain in one batch
PBP    drain every 100 µs via ``nanosleep`` (jittery, drifts)
SPBP   drain every 100 µs via SIGALRM (accurate, absolute grid)
====== ==========================================================

Consumers are pinned to the given core; producers are external event
sources (no consumer-core time) with faithful back-pressure. Response
latency is measured from the item's *intended* production time, so
producer blocking counts against the implementation that caused it.
The circular and the counted buffer are both the one
:class:`~repro.buffers.bounded.BoundedBuffer`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.buffers import BoundedBuffer
from repro.cpu.core import Core
from repro.cpu.timers import TimerService
from repro.impls.base import PairStats, PCConfig, serve_batch
from repro.sim.primitives import ConditionVariable, Mutex, Semaphore
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment

#: CPU cost of a woken consumer inspecting its buffer (and re-arming its
#: timer) even when there is nothing to do — the hidden price of
#: periodic wakeups that the paper's whole argument rests on.
WAKE_CHECK_S = 1e-6


class PCImplementation:
    """Base class: one producer + one consumer on one core."""

    #: Registry key / paper label; set by subclasses.
    name = "abstract"
    #: Per-batch forward hook (``forward(batch)`` generator): the
    #: pipeline subsystem points this at a delivery loop into the next
    #: stage's buffer so the baselines can run the same topologies as
    #: PBPL; None (the default) keeps the plain-pair behaviour.
    _forward = None
    #: The event a consumer sleeping until its buffer fills waits on
    #: (BP, PBP, SPBP); the delivery that fills the buffer fires it.
    _full_event = None

    def __init__(
        self,
        env: "Environment",
        core: Core,
        timers: TimerService,
        trace: Trace,
        config: Optional[PCConfig] = None,
        owner: str = "consumer",
    ) -> None:
        self.env = env
        self.core = core
        self.timers = timers
        self.trace = trace
        self.config = config or PCConfig()
        self.owner = owner
        self.stats = PairStats()
        #: Multiplier on per-item service time — the fault injector's
        #: ConsumerSlowdown hook (mirrors LatchingConsumer's knob).
        self.service_scale = 1.0
        self._space_event = None
        #: Items popped from the buffer but not yet fully processed —
        #: needed for conservation checks at an arbitrary cut-off time.
        self.in_flight = 0
        self.buffer = BoundedBuffer(self.config.buffer_size)

    # -- subclass hooks ------------------------------------------------------
    def _consumer(self):
        raise NotImplementedError

    def try_deliver(self, t: float):
        """Place one item (its production time) for the consumer.

        Returns None when the item went in without suspending the
        producer, else the generator of the blocked path, which the
        producer runs with ``yield from``: the same operations in the
        same order as one delivery generator, without making one for the
        deliveries that never block. This base form suits the batch
        implementations: a full buffer back-pressures the producer, and
        the push that fills the buffer fires ``_full_event``.
        """
        buffer = self.buffer
        if buffer.is_full:
            return self._deliver_blocked(t)
        buffer.push(t)
        full_event = self._full_event
        if full_event is not None and buffer.is_full:
            if not full_event.triggered:
                full_event.succeed()
            self._full_event = None
        return None

    def _deliver_blocked(self, t: float):
        """Block the producer until the consumer frees buffer space,
        then place the item."""
        self.stats.overflows += 1
        while self.buffer.is_full:
            # One shared pending event for all blocked producers — a
            # pipeline fan-in stage has several upstream forwarders,
            # and overwriting would orphan every blocker but the last.
            if self._space_event is None or self._space_event.triggered:
                self._space_event = self.env.event()
            yield self._space_event
        self.try_deliver(t)

    # -- helpers ----------------------------------------------------------------
    @property
    def service_s(self) -> float:
        """Per-item service time, including any injected slowdown."""
        return self.config.service_time_s * self.service_scale

    def _notify_space(self) -> None:
        if self._space_event is not None and not self._space_event.triggered:
            self._space_event.succeed()
        self._space_event = None

    def _record_consumed(self, produced_t: float) -> None:
        now = self.env.now
        self.stats.consumed += 1
        self.stats.record_latency(
            now - produced_t,
            self.config.max_response_latency_s,
            now_s=now,
        )

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "PCImplementation":
        """Add the producer to the run's arrivals; spawn the consumer."""
        self.env.arrivals.add(
            self.trace.times, self.try_deliver, self.stats,
            f"{self.owner}-producer",
        )
        self.env.process(self._consumer(), name=self.owner)
        return self

    def __repr__(self) -> str:
        return f"<{type(self).__name__} owner={self.owner!r}>"


class BusyWaiting(PCImplementation):
    """BW: the consumer spins on ``tail != head``, holding the core."""

    name = "BW"
    #: sched_yield rate of the spin loop (0 = pure spin; Yield overrides).
    spin_yield_rate_hz = 0.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._item_event = None

    def try_deliver(self, t: float):
        buffer = self.buffer
        if buffer.is_full:
            return self._deliver_blocked(t)
        buffer.push(t)
        if self._item_event is not None and not self._item_event.triggered:
            self._item_event.succeed()
            self._item_event = None
        return None

    def _consumer(self):
        cfg = self.config
        hold = yield from self.core.acquire(self.owner, after_block=False)
        self.stats.invocations += 1  # the one and only
        while True:
            if self.buffer.is_empty:
                self._item_event = self.env.event()
                yield from hold.busy_until(
                    self._item_event,
                    reeval_s=cfg.spin_reeval_s,
                    yield_rate_hz=self.spin_yield_rate_hz,
                )
                self._item_event = None
            while not self.buffer.is_empty:
                t = self.buffer.pop()
                self.in_flight = 1
                self._notify_space()
                yield from hold.busy(self.service_s)
                self._record_consumed(t)
                self.in_flight = 0


class Yielding(BusyWaiting):
    """Yield: BW plus ``sched_yield`` — the DVFS governor clocks down."""

    name = "Yield"

    @property
    def spin_yield_rate_hz(self) -> float:  # type: ignore[override]
        return self.config.yield_rate_hz


class MutexCondvar(PCImplementation):
    """Mutex: condition variables over a counted (non-circular) buffer.

    A futex-based condvar wake costs a bit more than a bare ``sem_post``
    (lock handoff + wait-queue management), so the per-cycle sync
    overhead carries a small factor — which is why the paper's Mutex
    bars sit slightly above Sem's.
    """

    name = "Mutex"
    sync_cost_factor = 1.6

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mutex = Mutex(self.env)
        self.not_empty = ConditionVariable(self.env, self.mutex)
        self.not_full = ConditionVariable(self.env, self.mutex)

    def try_deliver(self, t: float):
        mutex = self.mutex
        if not mutex.try_acquire():
            return self._deliver_contended(t)
        if self.buffer.is_full:
            # The blocked path may run on another process than this
            # call, and waits holding the lock as that process: it
            # retakes the lock in this same step.
            mutex.release()
            return self._deliver_contended(t)
        self.buffer.push(t)
        self.not_empty.notify()
        mutex.release()
        return None

    def _deliver_contended(self, t: float):
        """Take the lock, then wait for space."""
        if not self.mutex.try_acquire():
            yield self.mutex.acquire()
        if self.buffer.is_full:
            self.stats.overflows += 1
            while self.buffer.is_full:
                yield from self.not_full.wait()
        self.buffer.push(t)
        self.not_empty.notify()
        self.mutex.release()

    def _consumer(self):
        cfg = self.config
        while True:
            if not self.mutex.try_acquire():
                yield self.mutex.acquire()
            blocked = False
            while self.buffer.is_empty:
                blocked = True
                yield from self.not_empty.wait()
            t = self.buffer.pop()
            self.in_flight = 1
            self.not_full.notify()
            self.mutex.release()
            if blocked:
                self.stats.invocations += 1
            yield from self.core.execute(
                self.owner,
                self.service_s + cfg.sync_overhead_s * self.sync_cost_factor,
                after_block=blocked,
            )
            self._record_consumed(t)
            self.in_flight = 0
            if self._forward is not None:
                yield from self._forward((t,))


class SemaphorePair(PCImplementation):
    """Sem: empty/full counting semaphores over a circular buffer."""

    name = "Sem"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.empty = Semaphore(self.env, self.config.buffer_size)
        self.full = Semaphore(self.env, 0)

    def try_deliver(self, t: float):
        if not self.empty.try_acquire():
            return self._deliver_blocked(t)
        self.buffer.push(t)
        self.full.release()
        return None

    def _deliver_blocked(self, t: float):
        self.stats.overflows += 1
        yield self.empty.acquire()
        self.buffer.push(t)
        self.full.release()

    def _consumer(self):
        cfg = self.config
        while True:
            blocked = not self.full.try_acquire()
            if blocked:
                yield self.full.acquire()
                self.stats.invocations += 1
            t = self.buffer.pop()
            self.in_flight = 1
            self.empty.release()
            yield from self.core.execute(
                self.owner,
                self.service_s + cfg.sync_overhead_s,
                after_block=blocked,
            )
            self._record_consumed(t)
            self.in_flight = 0
            if self._forward is not None:
                yield from self._forward((t,))


class BatchProcessing(PCImplementation):
    """BP: sleep until the buffer is full, then drain it in one batch.

    Per the paper's accounting, *every* BP invocation is a buffer
    overflow (the wakeup condition is "buffer full").
    """

    name = "BP"

    def _consumer(self):
        while True:
            slept = False
            if not self.buffer.is_full:
                self._full_event = self.env.event()
                yield self._full_event
                slept = True
            self.stats.invocations += 1
            self.stats.overflow_wakeups += 1
            hold = yield from self.core.acquire(self.owner, after_block=slept)
            yield from hold.busy(WAKE_CHECK_S)
            batch = self.buffer.drain()
            self.in_flight = len(batch)
            self._notify_space()
            yield from serve_batch(self, hold.core, batch)
            hold.release()
            if self._forward is not None and batch:
                yield from self._forward(batch)


class _PeriodicBatchBase(PCImplementation):
    """Shared machinery of PBP and SPBP: fixed-interval drains + overflow wakes.

    Both process "within fixed time intervals" (paper §III-A): the
    consumer targets the grid ``k·period`` and sleeps until the next
    boundary strictly in the future (missed boundaries are skipped, as
    with any real periodic timer). The only difference between PBP and
    SPBP is *how late* the wake lands past the boundary — ``nanosleep``
    lateness vs signal-delivery skew. That difference is the paper's
    entire PBP→SPBP story: a late consumer lets the buffer overflow
    first (an extra unscheduled wake) and then still pays its boundary
    wake, while the accurate timer drains right on time.
    """

    def _lateness(self) -> float:
        """How far past the grid boundary this impl's timer fires."""
        raise NotImplementedError

    def _boundary_event(self):
        period = self.config.batch_period_s
        k = int(self.env.now / period) + 1
        boundary = k * period
        return self.env.timeout(boundary - self.env.now + self._lateness())

    def _consumer(self):
        while True:
            # One pass of this outer loop = one period: the timer for the
            # next boundary stays armed across any overflow handling in
            # between (the overflow handler does not cancel the periodic
            # timer — overflow wakes are *additive*, which is why timer
            # jitter costs wakeups: a late drain lets the buffer fill,
            # and the boundary wake still happens afterwards).
            tick = self._boundary_event()
            tick_done = False
            while not tick_done:
                if self.buffer.is_full:
                    forced = True
                else:
                    overflow = self.env.event()
                    self._full_event = overflow
                    yield self.env.any_of([tick, overflow])
                    self._full_event = None
                    # A Timeout is "triggered" from construction (its value
                    # is pre-set); "processed" is the fired-by-now test.
                    forced = not tick.processed
                if forced:
                    self.stats.overflow_wakeups += 1
                else:
                    self.stats.scheduled_wakeups += 1
                    tick_done = True
                self.stats.invocations += 1
                hold = yield from self.core.acquire(self.owner, after_block=True)
                yield from hold.busy(WAKE_CHECK_S)
                batch = self.buffer.drain()
                self.in_flight = len(batch)
                self._notify_space()
                yield from serve_batch(self, hold.core, batch)
                hold.release()
                if self._forward is not None and batch:
                    yield from self._forward(batch)


class PeriodicBatch(_PeriodicBatchBase):
    """PBP: fixed intervals timed with ``nanosleep`` (late by its slack)."""

    name = "PBP"

    def _lateness(self) -> float:
        return self.timers.nanosleep_lateness()


class SignalPeriodicBatch(_PeriodicBatchBase):
    """SPBP: fixed intervals timed with SIGALRM (near-exact delivery)."""

    name = "SPBP"

    def _lateness(self) -> float:
        return self.timers.signal_skew()


#: Registry keyed by the paper's labels.
SINGLE_IMPLEMENTATIONS = {
    cls.name: cls
    for cls in (
        BusyWaiting,
        Yielding,
        MutexCondvar,
        SemaphorePair,
        BatchProcessing,
        PeriodicBatch,
        SignalPeriodicBatch,
    )
}
