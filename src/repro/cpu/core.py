"""A simulated CPU core: execution, idle management, wakeup accounting.

The core is where the paper's cost model lives. A core is either
*active* (running exactly one task at some P-state), *idle* (in some
C-state) or *parked* (deepest C-state, no guests). Every idle→active
transition is a **wakeup**: it costs exit latency (the waker waits) and
is reported to listeners, who charge the wakeup energy ω — the quantity
the paper's objective (Eq. 4) minimises.

Tasks occupy the core through :meth:`Core.execute`, a generator used as
``yield from core.execute(owner, cpu_seconds)``. Requests are granted
FIFO; the requesting process blocks until its slice completes.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Optional, Tuple

from repro.sim.errors import SimulationError
from repro.sim.events import Event
from repro.cpu.cstates import CState, CStateTable
from repro.cpu.governors import Governor, PerformanceGovernor
from repro.cpu.listeners import CoreListener
from repro.cpu.pstates import PState, PStateTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment

ACTIVE = "active"
IDLE = "idle"
PARKED = "parked"


class Core:
    """One core of the simulated machine.

    Parameters
    ----------
    env:
        The simulation environment.
    core_id:
        Index within the machine.
    cstates, pstates:
        Idle- and performance-state tables.
    governor:
        DVFS governor; defaults to :class:`PerformanceGovernor`, which
        matches the paper's simplified two-state power model (§IV-A).
    context_switch_s:
        CPU-seconds of scheduler overhead charged to each granted
        execution slice.
    """

    def __init__(
        self,
        env: "Environment",
        core_id: int,
        cstates: CStateTable,
        pstates: PStateTable,
        governor: Optional[Governor] = None,
        context_switch_s: float = 2e-6,
    ) -> None:
        self.env = env
        self.core_id = core_id
        self.cstates = cstates
        self.pstates = pstates
        self.governor = governor or PerformanceGovernor(pstates)
        self.context_switch_s = context_switch_s
        # Per-item fast-path flags (the governor is fixed for the core's
        # lifetime — nothing in the tree reassigns it after construction).
        # A static governor's selection can never change after its first
        # call, and a base-class on_busy is a no-op: both checks let the
        # consumer batch loop skip two method calls per consumed item.
        self._gov_static = type(self.governor).static_select
        self._gov_passive_busy = type(self.governor).on_busy is Governor.on_busy
        self._pstate_settled = False

        self.state = IDLE
        self.cstate: Optional[CState] = cstates.select(None)
        self.pstate: PState = pstates.nominal

        self._queue: Deque[Tuple[Event, Any, float]] = deque()
        self._busy = False
        self._pending_wake_latency = 0.0
        self._next_wake_hint: Optional[float] = None
        # Menu-governor-style history: recent actual idle-period lengths,
        # used to predict idle duration when no explicit hint exists.
        self._idle_history: Deque[float] = deque(maxlen=8)
        self._idle_since: Optional[float] = None
        self._listeners: list[CoreListener] = []
        # Interest-based dispatch: per-hook lists holding only listeners
        # that *override* the hook. A listener subscribing for
        # transitions (e.g. the energy ledger) then costs nothing on the
        # much hotter execute/yield paths — the loops there iterate
        # empty lists instead of calling inherited no-ops.
        self._on_state_change: list[CoreListener] = []
        self._on_wakeup: list[CoreListener] = []
        self._on_execute: list[CoreListener] = []
        self._on_yield: list[CoreListener] = []
        self._on_task_wakeup: list[CoreListener] = []

        #: Total idle→active transitions (the paper's wakeup count).
        self.total_wakeups = 0
        #: Wall-clock seconds spent active (accrued at slice ends).
        self.total_busy_s = 0.0

    # -- listeners ----------------------------------------------------------
    def add_listener(self, listener: CoreListener) -> None:
        """Subscribe to this core's activity events."""
        self._listeners.append(listener)
        self._rebuild_hook_lists()

    def remove_listener(self, listener: CoreListener) -> None:
        self._listeners.remove(listener)
        self._rebuild_hook_lists()

    def _rebuild_hook_lists(self) -> None:
        for hook in (
            "on_state_change",
            "on_wakeup",
            "on_execute",
            "on_yield",
            "on_task_wakeup",
        ):
            base = getattr(CoreListener, hook)
            setattr(
                self,
                f"_{hook}",
                [
                    lst
                    for lst in self._listeners
                    if getattr(type(lst), hook, base) is not base
                ],
            )

    def _notify_state(self, old: str, new: str) -> None:
        for listener in self._on_state_change:
            listener.on_state_change(
                self, self.env.now, old, new, self.cstate, self.pstate
            )

    # -- idle / parking -------------------------------------------------------
    @property
    def is_idle(self) -> bool:
        return self.state in (IDLE, PARKED)

    @property
    def queue_length(self) -> int:
        """Execution requests waiting for the core (excluding the runner)."""
        return len(self._queue)

    def set_next_wake_hint(self, when: Optional[float]) -> None:
        """Tell the idle logic when the next wakeup is expected.

        Periodic implementations (and PBPL's core manager, which knows
        the next reserved slot exactly) use this so the core can choose
        a suitably deep C-state — the tickless-kernel behaviour the
        paper's board relies on.
        """
        self._next_wake_hint = when
        if self.state == IDLE:
            # Re-select depth with the better information.
            old = self.cstate
            self.cstate = self._pick_cstate()
            if self.cstate is not old:
                self._notify_state(IDLE, IDLE)

    def _pick_cstate(self) -> CState:
        if self._next_wake_hint is not None and self._next_wake_hint > self.env.now:
            return self.cstates.select(self._next_wake_hint - self.env.now)
        # No timer hint: predict from recent idle periods, like the Linux
        # menu governor — a core woken on a steady cadence learns to pick
        # the matching depth. Conservative factor guards mispredictions.
        if len(self._idle_history) >= 4:
            expected = sorted(self._idle_history)[len(self._idle_history) // 2]
            return self.cstates.select(expected * 0.8)
        return self.cstates.select(None)

    def park(self) -> None:
        """Put an unoccupied idle core into its deepest state."""
        if self._busy or self._queue:
            raise SimulationError("cannot park a core with work queued")
        old = self.state
        self.state = PARKED
        self.cstate = self.cstates.deepest
        self._notify_state(old, PARKED)

    def unpark(self) -> None:
        """Return a parked core to ordinary idle."""
        if self.state != PARKED:
            raise SimulationError("unpark() on a core that is not parked")
        self.state = IDLE
        self.cstate = self._pick_cstate()
        self._notify_state(PARKED, IDLE)

    # -- execution: hold API --------------------------------------------------
    def acquire(self, owner: Any, after_block: bool = False):
        """Obtain exclusive occupancy of the core; returns a :class:`CoreHold`.

        Use as ``hold = yield from core.acquire(owner)`` and release with
        ``hold.release()``. While held, the core stays active — this is
        how busy-waiting implementations keep a single wakeup alive
        across arbitrarily long polling periods.

        A free core with nobody queued is taken on the spot, as
        :meth:`execute` does: no grant event, no ``yield``.
        """
        grant = self._request(owner, after_block)
        if grant is not None:
            yield grant
        latency = self._pending_wake_latency
        self._pending_wake_latency = 0.0
        return CoreHold(self, owner, latency, self.context_switch_s)

    def _request(self, owner: Any, after_block: bool) -> Optional[Event]:
        """Ask for the core: None when it was taken on the spot, else
        the queued grant to wait on."""
        if after_block:
            for listener in self._on_task_wakeup:
                listener.on_task_wakeup(self, self.env.now, owner)
        if not self._busy and not self._queue:
            # A runnable task on a free core is not a scheduling point.
            self._take(owner)
            return None
        # Requests only ever queue behind a busy core: every release
        # dispatches the head of the queue at once.
        grant = self.env.event()
        self._queue.append((grant, owner, self.env.now))
        return grant

    # -- execution: one-shot convenience ------------------------------------------
    def execute(self, owner: Any, cpu_seconds: float, after_block: bool = False):
        """Occupy the core for ``cpu_seconds`` of nominal-frequency work.

        Use as ``yield from core.execute(...)`` inside a process. Wall
        time spent is stretched by the current P-state's speed and by
        the core's exit latency if the request wakes it up.

        ``after_block=True`` marks this request as the task becoming
        runnable after sleeping — the scheduler-wakeup event PowerTop
        counts. Spinning tasks (BW/Yield) pass False inside their loop
        so only their first dispatch counts.

        Returns the wall-clock duration of the slice.

        One generator frame doing exactly what ``acquire`` →
        ``hold.busy(cpu_seconds)`` → ``hold.release()`` does, in the
        same order (same events, same listener calls), without the
        :class:`CoreHold` or the two nested generators: Mutex and Sem
        come through here once per consumed item.

        When the core is free and nobody is queued, the request is
        granted inline — no grant event, no ``yield``; the only event
        made is the slice's timeout (none for a zero-length slice).
        """
        if not cpu_seconds >= 0:
            raise SimulationError(f"cpu time {cpu_seconds!r} is not >= 0")
        grant = self._request(owner, after_block)
        if grant is not None:
            yield grant
        latency = self._pending_wake_latency
        self._pending_wake_latency = 0.0
        if not self._pstate_settled:
            self._reselect_pstate()
        duration = self._slice_s(cpu_seconds, latency, self.context_switch_s)
        if duration > 0 and not self.env.try_advance_at(self.env.now + duration):
            yield self.env.timeout(duration)
        self._account_busy(owner, duration)
        self._busy = False
        self._dispatch()
        return duration

    def sched_yield(self, owner: Any, count: int = 1) -> None:
        """Record ``count`` voluntary yields by ``owner`` (DVFS bias)."""
        self.governor.on_yield(self.env.now, count)
        for listener in self._on_yield:
            listener.on_yield(self, self.env.now, owner)

    def cancel(self, grant: Event) -> bool:
        """Withdraw a not-yet-granted execution request."""
        for entry in self._queue:
            if entry[0] is grant:
                self._queue.remove(entry)
                return True
        return False

    # -- accounting helpers (used by execute and CoreHold) -----------------------
    def _slice_s(self, cpu_seconds: float, latency_s: float, ctx_s: float) -> float:
        """Wall-clock length of a slice of ``cpu_seconds`` at the current
        P-state, plus a pending wake latency and context switch."""
        speed = self.pstates.speedup(self.pstate)
        # Most hold slices carry no pending wake/dispatch cost.
        if latency_s or ctx_s:
            return latency_s + ctx_s / speed + cpu_seconds / speed
        return cpu_seconds / speed

    def _reselect_pstate(self) -> None:
        if self._pstate_settled:
            return
        new_pstate = self.governor.select(self.env.now)
        if new_pstate is not self.pstate:
            self.pstate = new_pstate
            # ACTIVE→ACTIVE signals "P-state changed" to power listeners.
            self._notify_state(ACTIVE, ACTIVE)
        if self._gov_static:
            # A static governor always returns the same state: further
            # selects are provably no-ops, so stop making them.
            self._pstate_settled = True

    def _account_busy(self, owner: Any, duration: float) -> None:
        if duration <= 0:
            return
        now = self.env.now
        self.total_busy_s += duration
        if not self._gov_passive_busy:
            self.governor.on_busy(now, duration)
        for listener in self._on_execute:
            listener.on_execute(self, now, owner, duration)

    # -- dispatch machinery ----------------------------------------------------
    def _dispatch(self) -> None:
        if self._busy:
            return
        if not self._queue:
            self._go_idle()
            return
        grant, owner, _enq = self._queue.popleft()
        self._take(owner)
        grant.succeed()

    def _take(self, owner: Any) -> None:
        """Occupy the free core for ``owner``, waking it if it sleeps."""
        self._busy = True
        if self.state in (IDLE, PARKED):
            self._wake(owner)

    def _wake(self, owner: Any) -> None:
        old = self.state
        from_cstate = self.cstate
        assert from_cstate is not None
        if self._idle_since is not None:
            self._idle_history.append(self.env.now - self._idle_since)
            self._idle_since = None
        self.state = ACTIVE
        self.cstate = None
        self.total_wakeups += 1
        self._pending_wake_latency = from_cstate.exit_latency_s
        self._notify_state(old, ACTIVE)
        for listener in self._on_wakeup:
            listener.on_wakeup(self, self.env.now, owner, from_cstate)

    def _go_idle(self) -> None:
        if self.state != ACTIVE:
            return
        self.state = IDLE
        self._idle_since = self.env.now
        self.cstate = self._pick_cstate()
        self._notify_state(ACTIVE, IDLE)

    def __repr__(self) -> str:
        return (
            f"<Core {self.core_id} {self.state} "
            f"wakeups={self.total_wakeups} queued={len(self._queue)}>"
        )


class CoreHold:
    """Exclusive occupancy of a core between acquire and release.

    While a hold is live the core never goes idle — which is exactly
    what distinguishes busy-waiting (one wakeup, forever busy) from the
    blocking implementations (one wakeup per unblock). Produced by
    :meth:`Core.acquire`; not constructed directly.
    """

    __slots__ = ("core", "owner", "_latency_s", "_ctx_s", "_released")

    def __init__(self, core: Core, owner: Any, latency_s: float, ctx_s: float) -> None:
        self.core = core
        self.owner = owner
        self._latency_s = latency_s  # wall-clock wake latency, once
        self._ctx_s = ctx_s  # CPU-time dispatch overhead, once
        self._released = False

    def _check_live(self) -> None:
        if self._released:
            raise SimulationError("operation on a released CoreHold")

    def busy(self, cpu_seconds: float):
        """Burn ``cpu_seconds`` of nominal-frequency work on the core.

        Generator — ``duration = yield from hold.busy(t)``; returns the
        wall-clock duration (stretched by the current P-state, plus any
        pending wake latency / context-switch overhead).
        """
        if self._released:
            raise SimulationError("operation on a released CoreHold")
        if not cpu_seconds >= 0:
            raise SimulationError(f"cpu time {cpu_seconds!r} is not >= 0")
        core = self.core
        core._reselect_pstate()
        duration = core._slice_s(cpu_seconds, self._latency_s, self._ctx_s)
        self._latency_s = 0.0
        self._ctx_s = 0.0
        if duration > 0 and not core.env.try_advance_at(core.env.now + duration):
            yield core.env.timeout(duration)
        core._account_busy(self.owner, duration)
        return duration

    def busy_until(self, event, reeval_s: float = 0.05, yield_rate_hz: float = 0.0):
        """Busy-wait (spin) on the core until ``event`` triggers.

        The spin is accounted in ``reeval_s`` segments, re-consulting
        the DVFS governor at each boundary — long spins therefore drive
        utilisation up (and, with ``yield_rate_hz`` > 0, report that
        many ``sched_yield`` calls per second, which is what lets the
        governor clock a Yield-style spinner down). Returns the total
        wall-clock time spent spinning.
        """
        self._check_live()
        if reeval_s <= 0:
            raise SimulationError("reeval interval must be positive")
        core = self.core
        env = core.env
        total = 0.0
        # Consume pending startup costs as spin time first.
        if self._latency_s > 0 or self._ctx_s > 0:
            total += yield from self.busy(0.0)
        while not event.triggered:
            core._reselect_pstate()
            seg_start = env.now
            yield env.any_of([event, env.timeout(reeval_s)])
            seg = env.now - seg_start
            if yield_rate_hz > 0 and seg > 0:
                core.sched_yield(self.owner, count=max(1, int(seg * yield_rate_hz)))
            core._account_busy(self.owner, seg)
            total += seg
        return total

    def release(self) -> None:
        """Give the core up; the next queued request (if any) dispatches."""
        self._check_live()
        self._released = True
        self.core._busy = False
        self.core._dispatch()

    def __repr__(self) -> str:
        state = "released" if self._released else "held"
        return f"<CoreHold core={self.core.core_id} owner={self.owner!r} {state}>"
