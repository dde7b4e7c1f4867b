"""The per-core manager (paper §V-B).

One manager owns one core's slot track. Its loop is the paper's Fig. 7:
sleep until the next slot *with at least one reservation* (never waking
the core needlessly), activate every consumer registered there, wait for
them all to finish, then pick the next reserved slot. Reservation
changes while it sleeps re-arm the timer, and the manager feeds the
core's idle logic the exact next-wake time — one of PBPL's quiet
advantages, since a core that knows its wakeup horizon can pick a deep
C-state.

Robustness: the paper assumes every armed slot signal is delivered.
Under the fault model (:meth:`repro.cpu.timers.TimerService.slot_alarm`
may lose a signal) the original loop would sleep forever on
``_changed`` while a reserved slot goes stale. A **slot-recovery
watchdog** closes that hole: when the slot timer is lost, a recovery
timeout fires the overdue slot after a grace period with bounded
exponential backoff (base Δ/8, doubling per *consecutive* recovery,
capped at one slot Δ — so a recovered consumer is never woken more
than one slot late, which is what keeps the resilience latency bound).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.cpu.core import Core
from repro.cpu.timers import TimerService
from repro.core.slots import SlotTrack
from repro.sim.errors import Interrupt
from repro.telemetry.registry import NULL_REGISTRY
from repro.trace.tracer import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment
    from repro.core.consumer import LatchingConsumer
    from repro.telemetry.registry import MetricsRegistry
    from repro.trace.tracer import Tracer

#: Watchdog backoff starts at grace/WATCHDOG_BACKOFF_DIV and doubles per
#: consecutive recovery until it reaches the full grace (one slot Δ).
WATCHDOG_BACKOFF_DIV = 8


class CoreManager:
    """Slot scheduler for one core."""

    def __init__(
        self,
        env: "Environment",
        core: Core,
        timers: TimerService,
        slot_size_s: float,
        grid_origin_s: float = 0.0,
        watchdog_grace_s: Optional[float] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.env = env
        self.core = core
        self.timers = timers
        #: Event tracer (the falsy NULL_TRACER when tracing is off).
        self.tracer = tracer or NULL_TRACER
        #: Trace track hosting this manager's slot lifecycle.
        self.track_name = f"core{core.core_id}.mgr"
        # All managers default to a shared grid origin: on hardware with
        # cluster-level idle states, aligning slots *across* cores makes
        # the cores' idle windows coincide (see repro.cpu.cluster and
        # the cluster-alignment benchmark).
        self.track = SlotTrack(slot_size_s, origin_s=grid_origin_s)
        self._changed = None
        #: Slots fired with ≥1 reservation — the paper's "upper bound"
        #: count of scheduled wakeups.
        self.scheduled_wakeups = 0
        #: Consumer activations delivered (≥ scheduled_wakeups; the
        #: surplus is the latching win).
        self.activations = 0
        #: Maximum watchdog lateness; None defaults to one slot Δ (the
        #: resilience bound), 0 disables the watchdog entirely.
        self.watchdog_grace_s = (
            slot_size_s if watchdog_grace_s is None else watchdog_grace_s
        )
        #: Slot signals the fault model swallowed on this manager.
        self.lost_signals = 0
        #: Slots fired by the watchdog instead of their timer.
        self.watchdog_recoveries = 0
        # Telemetry views of the counts above, read at each snapshot.
        metrics = metrics or NULL_REGISTRY
        core_label = str(core.core_id)
        metrics.counter(
            "slots_fired_total",
            help="Slots fired with at least one reservation.",
            read=lambda: self.scheduled_wakeups, core=core_label,
        )
        metrics.counter(
            "activations_total",
            help="Consumer activations delivered at slots.",
            read=lambda: self.activations, core=core_label,
        )
        metrics.counter(
            "lost_signals_total",
            help="Slot timer signals swallowed by the fault model.",
            read=lambda: self.lost_signals, core=core_label,
        )
        metrics.counter(
            "watchdog_recoveries_total",
            help="Slots fired by the watchdog instead of their timer.",
            read=lambda: self.watchdog_recoveries, core=core_label,
        )
        #: False after :meth:`shutdown` — a fail-stopped manager accepts
        #: no reservations and its process is gone.
        self.alive = True
        self._process = None
        self._consecutive_recoveries = 0
        # Recycled reservation-change event: when a slot timer fires
        # without any reservation change, the armed ``_changed`` event
        # was never triggered and can host the next tick's AnyOf instead
        # of allocating a fresh Event per slot.
        self._spare_changed = None

    # -- reservation interface (used by consumers) -----------------------------
    def reserve(self, consumer: "LatchingConsumer", slot_index: int) -> None:
        """Reserve ``slot_index`` for ``consumer`` (replacing its previous
        reservation) and re-arm the manager's timer."""
        if not self.alive:
            raise RuntimeError(
                f"core {self.core.core_id}'s manager is dead; reservations "
                f"must go to a surviving manager (migrate the consumer first)"
            )
        now_slot = self.track.slot_of(self.env.now)
        if slot_index <= now_slot:
            raise ValueError(
                f"reservation must be in a future slot (now={now_slot}, "
                f"requested={slot_index})"
            )
        self.track.reserve(slot_index, consumer)
        if self.tracer.enabled:
            self.tracer.instant(
                self.track_name,
                "reserve",
                "slot",
                slot=slot_index,
                at_s=self.track.time_of(slot_index),
                consumer=consumer.owner,
            )
        self._notify_change()

    def cancel(self, consumer: "LatchingConsumer") -> None:
        """Withdraw the consumer's reservation (e.g. it is handling an
        overflow right now and will re-reserve afterwards)."""
        cancelled = self.track.cancel(consumer)
        if cancelled is not None:
            if self.tracer.enabled:
                self.tracer.instant(
                    self.track_name, "cancel", "slot",
                    slot=cancelled, consumer=consumer.owner,
                )
            self._notify_change()

    def _notify_change(self) -> None:
        if self._changed is not None and not self._changed.triggered:
            self._changed.succeed()
        self._changed = None

    def _recovery_grace_s(self) -> float:
        """Current watchdog grace: bounded exponential backoff."""
        base = self.watchdog_grace_s / WATCHDOG_BACKOFF_DIV
        return min(
            self.watchdog_grace_s, base * (2 ** self._consecutive_recoveries)
        )

    # -- the manager process ----------------------------------------------------
    def process(self):
        """The manager's simulation process (paper Fig. 7 loop).

        A :class:`~repro.sim.errors.Interrupt` (delivered by
        :meth:`shutdown` on core failure) ends the loop cleanly — an
        uncaught interrupt would fail the Process event and surface from
        ``env.run`` as a crash, which is not what fail-stop means.

        :meth:`~repro.sim.environment.Environment.close` ends the run
        for good. The track's reservations hold consumers that hold this
        manager, so the track is cleared then, or that cycle would keep
        the whole run alive.
        """
        try:
            yield from self._loop()
        except Interrupt:
            return
        except GeneratorExit:
            self.track.clear()
            raise

    def _loop(self):
        env = self.env
        while True:
            # Overdue slots (their start passed while we waited for slow
            # consumers) fire immediately — a reservation is a promise.
            next_slot = self.track.earliest_reserved_slot()

            if next_slot is None:
                # Nothing reserved anywhere: sleep until something is.
                self.core.set_next_wake_hint(None)
                changed = env.event()
                self._changed = changed
                yield changed
                continue

            when = self.track.time_of(next_slot)
            recovering = False
            if when > env.now:
                self.core.set_next_wake_hint(when)
                changed = self._spare_changed
                if changed is None:
                    changed = env.event()
                else:
                    self._spare_changed = None
                self._changed = changed
                # Slot timers are signal-driven (accurate) — PBPL is an
                # evolution of SPBP, the study's best performer. The
                # fault model may swallow the signal (timer is None).
                timer = self.timers.slot_alarm(when)
                if timer is None:
                    self.lost_signals += 1
                    if self.tracer.enabled:
                        self.tracer.instant(
                            self.track_name, "signal.lost", "slot",
                            slot=next_slot, due_s=when,
                        )
                    if self.watchdog_grace_s <= 0:
                        # Watchdog disabled: the legacy failure mode —
                        # sleep until a reservation change saves us.
                        yield changed
                        continue
                    timer = env.timeout(
                        (when - env.now) + self._recovery_grace_s()
                    )
                    recovering = True
                yield env.any_of([timer, changed])
                if not timer.processed:
                    continue  # reservations changed: recompute target
                self._changed = None
                if not changed.triggered:
                    # The timer won and nothing touched the change event:
                    # drop the (already-satisfied) AnyOf's subscription
                    # and recycle the event for the next slot tick.
                    changed.callbacks.clear()
                    self._spare_changed = changed
                if recovering:
                    self.watchdog_recoveries += 1
                    self._consecutive_recoveries += 1
                    if self.tracer.enabled:
                        self.tracer.instant(
                            self.track_name, "watchdog.recovery", "slot",
                            slot=next_slot, due_s=when,
                            late_s=env.now - when,
                        )
                else:
                    self._consecutive_recoveries = 0

            holders: List["LatchingConsumer"] = self.track.pop_slot(next_slot)
            if not holders:
                continue  # everyone cancelled while the timer was in flight
            self.scheduled_wakeups += 1
            slot_span = None
            if self.tracer.enabled:
                slot_span = self.tracer.begin(
                    self.track_name, "slot", "slot",
                    slot=next_slot,
                    due_s=when,
                    consumers=len(holders),
                    recovered=recovering,
                    core=self.core.core_id,
                )
            done_events = []
            for consumer in holders:
                done = consumer.activate(next_slot)
                self.activations += 1
                if done is not None:
                    done_events.append(done)
            if done_events:
                # "After all registered consumers finish executing, the
                # core manager determines the next slot to wake up."
                yield env.all_of(done_events)
            if slot_span is not None:
                self.tracer.end(slot_span, activated=len(done_events))

    def start(self) -> "CoreManager":
        self._process = self.env.process(
            self.process(), name=f"core-manager-{self.core.core_id}"
        )
        return self

    def shutdown(self) -> List["LatchingConsumer"]:
        """Fail-stop this manager: tear down the timer and pending
        reservations deterministically.

        The manager process is interrupted (it exits cleanly), the
        core's wake hint is cleared, the change events are dropped, and
        every pending reservation is popped off the track. Returns the
        orphaned holders in deterministic order (slot order, insertion
        order within a slot) — the migration layer re-reserves for
        exactly these consumers on surviving managers. Idempotent.

        Consumers mid-batch at the kill finish on this core — the fault
        model is fail-stop at *slot* granularity: the failure lands
        between slots, never inside an item's service.
        """
        if not self.alive:
            return []
        self.alive = False
        self.core.set_next_wake_hint(None)
        self._changed = None
        self._spare_changed = None
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("core-failure")
        orphans: List["LatchingConsumer"] = []
        while True:
            slot = self.track.earliest_reserved_slot()
            if slot is None:
                break
            orphans.extend(self.track.pop_slot(slot))
        if self.tracer.enabled:
            self.tracer.instant(
                self.track_name, "shutdown", "slot", orphans=len(orphans),
            )
        return orphans

    def __repr__(self) -> str:
        return (
            f"<CoreManager core={self.core.core_id} "
            f"scheduled={self.scheduled_wakeups} track={self.track!r}>"
        )
