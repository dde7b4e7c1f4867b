"""Deterministic DES self-profiler: who burns the dispatch budget?

The compiled-kernel direction needs to know *which* handlers dominate
event dispatch before anything is worth compiling. This profiler drives
the simulation itself — a faithful mirror of
:meth:`repro.sim.environment.Environment.run`'s inlined hot loop
(identical pop order, ``until`` semantics, failure propagation and
``events_processed`` accounting) — and wraps every callback invocation
in a :func:`repro.harness.clock.perf_counter` pair.

Two kinds of output coexist deliberately:

* **dispatch counts** per (event type, handler) are pure virtual-time
  facts — byte-identical across runs of the same seed; and
* **self-time** is measured wall clock through the ``harness/clock``
  shim (the one sanctioned host-time source, see DET001), so absolute
  times vary between hosts while the *ranking* is stable enough to
  steer optimisation.

Handlers are keyed by their owner: bound methods report
``Type:name`` when the owner carries a ``name``/``owner`` attribute
(e.g. ``Process:consumer-0``), ``Type.method`` otherwise, and free
functions report their qualname.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.harness.clock import perf_counter
from repro.sim.environment import _StopSimulation
from repro.sim.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment


def _handler_label(callback) -> str:
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        name = getattr(owner, "name", None) or getattr(owner, "owner", None)
        if isinstance(name, str) and name:
            return f"{type(owner).__name__}:{name}"
        return f"{type(owner).__name__}.{getattr(callback, '__name__', '?')}"
    return getattr(callback, "__qualname__", repr(callback))


class HotSpot:
    """Aggregated dispatch cost for one (event type, handler) pair."""

    __slots__ = ("event_type", "handler", "dispatches", "self_s")

    def __init__(self, event_type: str, handler: str, dispatches: int, self_s: float):
        self.event_type = event_type
        self.handler = handler
        self.dispatches = dispatches
        self.self_s = self_s


class ProfileReport:
    """Sorted hot-spot rows plus a terminal table renderer."""

    def __init__(self, rows: List[HotSpot], events_processed: int, wall_s: float):
        self.rows = rows
        self.events_processed = events_processed
        self.wall_s = wall_s

    def top(self, n: int) -> List[HotSpot]:
        return self.rows[:n]

    def render(self, top: int = 10) -> str:
        total_s = sum(r.self_s for r in self.rows) or 1.0
        total_n = sum(r.dispatches for r in self.rows)
        lines = [
            f"kernel self-profile: {self.events_processed} events, "
            f"{total_n} dispatches, {self.wall_s * 1e3:.2f} ms wall",
            "",
            f"{'event':<14} {'handler':<38} {'dispatches':>10} "
            f"{'self ms':>9} {'%':>6}",
            "-" * 81,
        ]
        for row in self.top(top):
            lines.append(
                f"{row.event_type:<14} {row.handler:<38} {row.dispatches:>10} "
                f"{row.self_s * 1e3:>9.3f} {100.0 * row.self_s / total_s:>5.1f}%"
            )
        remaining = self.rows[top:]
        if remaining:
            rest_s = sum(r.self_s for r in remaining)
            rest_n = sum(r.dispatches for r in remaining)
            lines.append(
                f"{'...':<14} {f'({len(remaining)} more handlers)':<38} "
                f"{rest_n:>10} {rest_s * 1e3:>9.3f} "
                f"{100.0 * rest_s / total_s:>5.1f}%"
            )
        return "\n".join(lines)


class KernelProfiler:
    """Drives an :class:`Environment` while timing every dispatch."""

    def __init__(self) -> None:
        # (event type name, handler label) -> [dispatches, self seconds]
        self._acc: Dict[Tuple[str, str], List] = {}
        self._wall_s = 0.0
        self._events = 0

    def run(self, env: "Environment", until=None):
        """Mirror of ``Environment.run`` with per-callback timing.

        Drives the event queue through its single-event surface
        (``peek`` / ``_pop_entry``) — dispatch order and counts stay
        byte-identical to :meth:`Environment.run`, only the per-callback
        timing wrappers differ. It never arms
        :meth:`Environment.try_advance_at`, so every service slice and
        arrival is a Timeout dispatch here.
        """
        pop_entry = env._pop_entry
        peek = env.peek
        acc = self._acc
        processed = 0
        watched = None
        stop_at = float("inf")
        t_start = perf_counter()
        try:
            stop_at, watched = env._arm_until(until)
            while peek() < stop_at:
                entry = pop_entry()
                assert entry is not None  # peek() was finite
                when = entry[0]
                event = entry[3]
                env.now = when
                processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                etype = type(event).__name__
                for callback in callbacks:
                    key = (etype, _handler_label(callback))
                    t0 = perf_counter()
                    callback(event)
                    dt = perf_counter() - t0
                    cell = acc.get(key)
                    if cell is None:
                        acc[key] = [1, dt]
                    else:
                        cell[0] += 1
                        cell[1] += dt
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
            env.events_processed += processed
            self._events += processed
            self._wall_s += perf_counter() - t_start
        if watched is not None:
            raise SimulationError(
                "run(until=event) exhausted the schedule before the event "
                "triggered — likely a deadlock"
            )
        if stop_at != float("inf"):
            env.now = stop_at
        return None

    def dispatch_counts(self) -> Dict[Tuple[str, str], int]:
        """Deterministic dispatch counts (no timing)."""
        return {key: cell[0] for key, cell in self._acc.items()}

    def report(self) -> ProfileReport:
        rows = [
            HotSpot(etype, handler, cell[0], cell[1])
            for (etype, handler), cell in self._acc.items()
        ]
        # Wall-clock ranking with a deterministic key tiebreak so equal
        # (or near-zero) timings don't reorder between renders.
        rows.sort(key=lambda r: (-r.self_s, -r.dispatches, r.event_type, r.handler))
        return ProfileReport(rows, self._events, self._wall_s)
