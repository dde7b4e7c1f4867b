"""The simulation environment: clock, event queue, run loop.

The event queue is a plain ``heapq`` of ``(when, priority, eid, event)``
entries, so dispatch order is the total order on ``(when, priority,
eid)``: timestamp first, then URGENT before NORMAL, then scheduling
order. Most schedules land within microseconds of the event being
dispatched, so a bucketed (calendar) queue keyed on Δ-slot widths
degenerates into a sorted-list insert and measures slower than this
heap on the Figure 9 workload (DESIGN.md §13).

The run loop is deliberately flat: every experiment in this repository
is bottlenecked on :meth:`Environment.run`, so the hot path binds its
locals once and pops straight off the heap without per-event method
calls. :meth:`step` remains for callers that need single-event
control; both share :meth:`_pop_entry`, which is also the supported
surface for the sanitizer's and profiler's instrumented run loops.

While :meth:`run` loops, a process may advance the clock in place with
:meth:`try_advance` instead of a heap round trip through a
:class:`Timeout`, when nothing else could run before the slice ends.
Only :meth:`run` arms that fast path; :meth:`step` and the
instrumented loops never do, so they see every slice as a Timeout.
A wait whose eid was taken earlier, as the :class:`ArrivalStream`
takes each arrival's, uses the reserved-eid forms
:meth:`try_advance_at` and :meth:`timeout_at` under the same rule.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Iterable, Optional, Union

from repro.sim.arrivals import ArrivalStream
from repro.sim.errors import SimulationError
from repro.sim.events import (
    NORMAL,
    AllOf,
    AnyOf,
    Event,
    Process,
    ProcessGenerator,
    Timeout,
)


#: The eid :meth:`Environment.try_advance_at` compares with when none
#: was reserved: one not yet taken sorts after every queued entry's.
_FRESH_EID = float("inf")


class _StopSimulation(Exception):
    """Internal control-flow exception ending :meth:`Environment.run`."""

    def __init__(self, event: Event) -> None:
        super().__init__(event)
        self.event = event


class Environment:
    """Owns simulated time and executes events in timestamp order.

    Ties at the same timestamp are broken first by priority (URGENT
    before NORMAL) and then by scheduling order, which makes every run
    fully deterministic.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (seconds by convention throughout
        this repository).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulated time. A plain attribute on purpose: it is
        #: read on essentially every simulated action, and a property
        #: costs a function call per read. Only the run loop writes it.
        self.now = float(initial_time)
        #: Min-heap of pending ``(when, priority, eid, event)`` entries.
        self._queue: list = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: Lifetime count of events processed (run loop + step).
        #: ``bench/`` reports it as ``sim.events``, and
        #: ``repro metrics overhead`` checks that a live registry leaves
        #: it unchanged.
        self.events_processed = 0
        #: ``run``'s stop time while its loop is live, else ``-inf``
        #: (which turns :meth:`try_advance` off).
        self._stop_at = float("-inf")
        #: Callbacks of the event ``run`` is dispatching.
        self._dispatching: list = [None]
        #: Every process started on this environment and not finished,
        #: for :meth:`close`.
        self._processes: dict = {}
        self._arrivals: Optional[ArrivalStream] = None

    # -- clock & introspection ------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def arrivals(self) -> ArrivalStream:
        """The run's one :class:`ArrivalStream`, made on first use."""
        stream = self._arrivals
        if stream is None:
            stream = self._arrivals = ArrivalStream(self)
        return stream

    def peek(self) -> float:
        """Timestamp of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def __len__(self) -> int:
        return len(self._queue)

    # -- scheduling -------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Queue a triggered event for processing ``delay`` from now."""
        # ``not delay >= 0`` also rejects NaN, which would corrupt the
        # heap order and silently end the run.
        if not delay >= 0:
            raise SimulationError(
                f"cannot schedule {delay!r} from now: delay must be >= 0"
            )
        heappush(self._queue, (self.now + delay, priority, next(self._eid), event))

    def _pop_entry(self) -> Optional[tuple]:
        """Consume and return the next ``(when, priority, eid, event)``.

        Returns None when no events remain. This is the single-event
        twin of the inlined pop in :meth:`run` and the supported hook
        for instrumented loops (sanitizer, profiler).
        """
        return heappop(self._queue) if self._queue else None

    # -- factories --------------------------------------------------------
    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``; returns its Process event."""
        return Process(self, generator, name=name)

    def process_now(
        self, generator: ProcessGenerator, name: Optional[str] = None
    ) -> Process:
        """Start a process and run its first step at once, in the caller's
        step: no Initialize event, no eid. The new process is
        :attr:`active_process` for that step, and the caller's is again
        afterwards."""
        caller = self._active_process
        process = Process(self, generator, name=name, initialize=False)
        started = Event(self)
        started._ok = True
        started._value = None
        process._resume(started)
        self._active_process = caller
        return process

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers ``delay`` time units from now.

        This is the kernel's single hottest allocation site (every
        ``busy`` slice, sleep and slot alarm goes through it), so the
        Timeout is built inline — same invariants as
        :class:`~repro.sim.events.Timeout`, no layered ``__init__``.
        """
        if not delay >= 0:
            raise SimulationError(f"timeout delay {delay!r} is not >= 0")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._exc = None
        event._ok = True
        event._defused = False
        event.delay = delay
        heappush(self._queue, (self.now + delay, NORMAL, next(self._eid), event))
        return event

    def timeout_at(self, when: float, eid: int) -> Timeout:
        """The reserved-eid form of :meth:`timeout`: a Timeout queued at
        ``when`` under ``eid``, both taken earlier where a ``timeout``
        call would have taken them, so it sorts where that call's
        would have."""
        delay = when - self.now
        if not delay >= 0:
            raise SimulationError(
                f"timeout at {when!r} is NaN or in the past (now={self.now})"
            )
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = None
        event._exc = None
        event._ok = True
        event._defused = False
        event.delay = delay
        heappush(self._queue, (when, NORMAL, eid, event))
        return event

    def try_advance(self, delay: float) -> bool:
        """``if not env.try_advance(d): yield env.timeout(d)``: the clock
        moves by ``d`` in place under :meth:`try_advance_at`'s rule."""
        return self.try_advance_at(self.now + delay)

    def try_advance_at(self, when: float, eid: float = _FRESH_EID) -> bool:
        """The one in-place rule: advance the clock to ``when`` if that is
        exactly what a Timeout at ``when`` with a fresh (default) or
        reserved ``eid`` would do.

        Use as ``if not env.try_advance_at(w, e): yield
        env.timeout_at(w, e)``. True only while :meth:`run` loops, with
        ``when`` before its stop time, ``(when, NORMAL, eid)`` sorting
        before every queued entry (NORMAL is the largest priority, so an
        equal time passes only a NORMAL entry with a larger eid, which a
        fresh eid never does), and the caller resumed by the last
        callback of the event being dispatched. The Timeout's processed
        count, and a fresh eid, are still taken, so later eids and
        :attr:`events_processed` stay what the heap would have made.
        """
        if not when >= self.now:
            raise SimulationError(
                f"advance to {when!r} is NaN or in the past (now={self.now})"
            )
        if when < self._stop_at:
            queue = self._queue
            if queue:
                head = queue[0]
                if not (
                    when < head[0]
                    or (when == head[0] and head[1] == NORMAL and eid < head[2])
                ):
                    return False
            process = self._active_process
            if process is not None and self._dispatching[-1] is process._resume_cb:
                self.now = when
                self.events_processed += 1
                if eid is _FRESH_EID:
                    next(self._eid)
                return True
        return False

    def event(self) -> Event:
        """A fresh untriggered event (trigger it with succeed/fail)."""
        return Event(self)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: first of ``events`` to succeed."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: all of ``events`` succeeded."""
        return AllOf(self, events)

    # -- execution ----------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        entry = self._pop_entry()
        if entry is None:
            raise SimulationError("step() on an empty schedule")
        when, _prio, _eid, event = entry
        self.now = when
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failure nobody handled: surface it instead of dropping it.
            exc = event._exc
            assert exc is not None
            raise exc

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run all events scheduled strictly before it, then
          set :attr:`now` to it;
        * an :class:`Event` — run until that event is processed and
          return its value (re-raising its exception on failure).
        """
        # The hot loop: an inlined :meth:`step` with the queue and pop
        # bound to locals. Identical dispatch semantics, no per-event
        # method-call overhead.
        queue = self._queue
        pop = heappop
        processed = 0
        watched: Optional[Event] = None
        stop_at = float("inf")
        try:
            stop_at, watched = self._arm_until(until)
            self._stop_at = stop_at
            while queue and queue[0][0] < stop_at:
                when, _prio, _eid, event = pop(queue)
                self.now = when
                processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                self._dispatching = callbacks
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    exc = event._exc
                    assert exc is not None
                    raise exc
        except _StopSimulation as stop:
            if not stop.event._ok:
                assert stop.event._exc is not None
                raise stop.event._exc from None
            return stop.event._value
        finally:
            self._stop_at = float("-inf")
            self.events_processed += processed
        if watched is not None:
            raise SimulationError(
                "run(until=event) exhausted the schedule before the event "
                "triggered — likely a deadlock"
            )
        if stop_at != float("inf"):
            self.now = stop_at
        return None

    def _arm_until(self, until: Union[None, float, Event]) -> tuple:
        """Normalise ``run``'s ``until`` into ``(stop_at, watched)``.

        When ``until`` is an event that already completed, raises
        :class:`_StopSimulation` so the caller's handler returns its
        value (or re-raises its failure) through the same path a live
        stop callback would take. Must be called inside the ``try`` that
        handles :class:`_StopSimulation`.
        """
        stop_at = float("inf")
        watched: Optional[Event] = None
        if isinstance(until, Event):
            watched = until
            if watched.callbacks is None:  # already processed
                raise _StopSimulation(watched)
            watched.callbacks.append(self._stop_callback)
        elif until is not None:
            stop_at = float(until)
            if not stop_at >= self.now:
                raise SimulationError(
                    f"run(until={stop_at}) is NaN or in the past (now={self.now})"
                )
        return stop_at, watched

    @staticmethod
    def _stop_callback(event: Event) -> None:
        event._defused = True
        raise _StopSimulation(event)

    def close(self) -> None:
        """End the simulation for good and let go of everything in it.

        A finished run is a web of reference cycles: pending events hold
        their waiters' resume callbacks, each process holds its own
        bound ``_resume``, and a suspended generator's frame holds the
        objects that hold its process. Left alone, the whole run waits
        for the cyclic collector. Closing every process generator and
        dropping the queue breaks those cycles, so the run is freed by
        reference counting once its last outside reference goes.
        Nothing is left to run afterwards.
        """
        processes, self._processes = self._processes, {}
        for process in processes:
            process._generator.close()
            process._target = None
            process._resume_cb = None
        self._queue.clear()
        self._dispatching = [None]
        self._arrivals = None

    def __repr__(self) -> str:
        return f"<Environment now={self.now} queued={len(self)}>"
