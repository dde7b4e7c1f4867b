"""The structured event tracer: bounded collector, virtual-time stamps.

The tracer is the repro's flight recorder. Components emit three kinds
of events onto named *tracks* (one track per logical timeline — a core,
a core manager, a consumer, the fault injector):

* **spans** — an interval with a begin and an end (a fired slot, a
  batch drain, a C-state residency, a fault window). Recorded as one
  complete event when the span closes, carrying its duration;
* **instants** — a point event (a reservation, a lost signal, a
  watchdog recovery, an overflow action);
* **counters** — a sampled value (buffer capacity, predicted rate,
  core power) drawn as a step function by trace viewers.

Design constraints, in order:

1. **Zero-cost when disabled.** Hot instrumentation sites (per batch,
   per slot) guard with ``if self.tracer.enabled:``, a class attribute
   that is ``False`` on the shared :data:`NULL_TRACER` singleton — a
   disabled run pays two attribute loads per site and no call. Rare
   sites may test truthiness instead: ``NULL_TRACER`` is falsy, which
   is also what ``tracer or NULL_TRACER`` relies on. No argument dicts
   are built, no strings formatted.
2. **Deterministic.** Timestamps are the simulation clock (virtual
   seconds), sequence numbers break ties in emission order, and no
   wall-clock or id()-derived values ever enter an event — the same
   seed and config yield a byte-identical export.
3. **Bounded.** Events live in a ring buffer of ``capacity`` events;
   when full, the oldest events are discarded and counted in
   :attr:`Tracer.dropped_events` (never silently). Sinks registered
   with :meth:`Tracer.add_sink` (e.g. the streaming JSONL writer) see
   every event *at append time*, before eviction can touch it — so a
   spill-to-disk exporter keeps full fidelity on runs that overflow
   the ring.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment

#: Event phases, mirroring the Chrome trace-event vocabulary.
SPAN = "X"  # complete event (start + duration)
INSTANT = "i"
COUNTER = "C"


class EventKind:
    """What every event of one emission site on one track shares.

    ``keys`` are the event's arg names in emission order; the event
    itself keeps only the matching values. A :class:`Tracer` interns
    its kinds (one object per distinct ``phase, category, track, name,
    keys``), so the exporters render each kind's pieces once per
    export, keyed by the kind object.
    """

    __slots__ = ("phase", "category", "track", "name", "keys")

    def __init__(self, phase, category, track, name, keys: tuple) -> None:
        self.phase = phase
        self.category = category
        self.track = track
        self.name = name
        self.keys = keys

    def __repr__(self) -> str:
        return f"<EventKind {self.phase} {self.track}/{self.name} {self.keys}>"


class TraceEvent:
    """One recorded event (immutable once stored).

    ``ts_s``/``dur_s`` are virtual-time seconds; ``dur_s`` is ``None``
    for instants and counters. An event stores its :class:`EventKind`
    and a ``values`` tuple in the order of ``kind.keys``; ``phase``,
    ``category``, ``track`` and ``name`` read through to the kind.
    ``args`` is a fresh dict of the JSON-safe values on every read — a
    read-only view: changing it changes nothing stored. Counters store
    their value under ``"value"``. The other fields are scalars (str,
    number or ``None``): the exporters clamp ``args`` to JSON-safe
    values, but raise ``TypeError`` on a container in any other field.
    """

    __slots__ = ("ts_s", "dur_s", "seq", "kind", "values")

    def __init__(
        self,
        ts_s: float,
        dur_s: Optional[float],
        phase: str,
        category: str,
        track: str,
        name: str,
        seq: int,
        args: Dict[str, Any],
    ) -> None:
        self.ts_s = ts_s
        self.dur_s = dur_s
        self.seq = seq
        self.kind = EventKind(phase, category, track, name, tuple(args))
        self.values = tuple(args.values())

    @property
    def phase(self) -> str:
        return self.kind.phase

    @property
    def category(self) -> str:
        return self.kind.category

    @property
    def track(self) -> str:
        return self.kind.track

    @property
    def name(self) -> str:
        return self.kind.name

    @property
    def args(self) -> Dict[str, Any]:
        """The event's args as a new dict (a read-only view)."""
        return dict(zip(self.kind.keys, self.values))

    @property
    def end_s(self) -> float:
        """Span end time (== ``ts_s`` for point events)."""
        return self.ts_s + (self.dur_s or 0.0)

    def sort_key(self):
        return (self.ts_s, self.seq)

    def __repr__(self) -> str:
        dur = "" if self.dur_s is None else f" dur={self.dur_s:g}"
        return (
            f"<TraceEvent {self.phase} {self.track}/{self.name} "
            f"t={self.ts_s:g}{dur}>"
        )


_new_event = object.__new__


def _stored(ts_s, dur_s, seq, kind, values) -> TraceEvent:
    """A :class:`TraceEvent` from an interned kind (the tracer's path)."""
    event = _new_event(TraceEvent)
    event.ts_s = ts_s
    event.dur_s = dur_s
    event.seq = seq
    event.kind = kind
    event.values = values
    return event


class Span:
    """An open span handle returned by :meth:`Tracer.begin`.

    Close it with :meth:`Tracer.end`; any span still open when the
    tracer is finalised is closed at the finalisation time (so a trace
    cut mid-slot still shows the slot).
    """

    __slots__ = ("track", "name", "category", "start_s", "args", "seq", "closed")

    def __init__(
        self,
        track: str,
        name: str,
        category: str,
        start_s: float,
        args: Dict[str, Any],
        seq: int,
    ) -> None:
        self.track = track
        self.name = name
        self.category = category
        self.start_s = start_s
        self.args = args
        self.seq = seq
        self.closed = False

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<Span {self.track}/{self.name} from {self.start_s:g} {state}>"


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``enabled`` is ``False`` (and the instance falsy), so sites can skip
    argument construction entirely::

        if self.tracer.enabled:
            self.tracer.instant("core0.mgr", "watchdog.recovery", slot=k)
    """

    enabled = False
    dropped_events = 0

    _NULL_SPAN = Span("", "", "", 0.0, {}, -1)

    def __bool__(self) -> bool:
        return False

    def instant(self, track, name, category="event", **args) -> None:
        pass

    def counter(self, track, name, value, category="counter") -> None:
        pass

    def begin(self, track, name, category="span", **args) -> Span:
        return self._NULL_SPAN

    def end(self, span, **args) -> None:
        pass

    def complete(self, track, name, start_s, end_s, category="span", **args) -> None:
        pass

    def add_sink(self, sink) -> None:
        pass

    def finalize(self) -> None:
        pass

    @property
    def events(self) -> List[TraceEvent]:
        return []

    def __repr__(self) -> str:
        return "<NullTracer>"


#: The shared disabled tracer. Components default their ``tracer``
#: attribute to this, so instrumentation is always safe to call.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects :class:`TraceEvent` records in a bounded ring buffer.

    Parameters
    ----------
    env:
        Simulation environment (the virtual clock).
    capacity:
        Maximum retained events; the oldest are dropped beyond it
        (counted in :attr:`dropped_events`).
    """

    enabled = True

    def __init__(self, env: "Environment", capacity: int = 1_000_000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        # The intern table: one EventKind per distinct (phase, category,
        # track, name, arg keys). Values never enter a key, so its size
        # is bounded by the emission sites times the tracks they emit
        # on, not by the run's length, and it dies with the tracer.
        self._kinds: Dict[tuple, EventKind] = {}
        self._seq = 0
        self.dropped_events = 0
        self._open_spans: List[Span] = []
        self._sinks: List[Callable[[TraceEvent], None]] = []

    def __bool__(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self._events)

    # -- emission -------------------------------------------------------------
    def add_sink(self, sink: Callable[[TraceEvent], None]) -> None:
        """Register a callable that receives every event at append time.

        Sinks fire *before* ring-buffer eviction, so a streaming
        exporter attached here captures a strict superset of what the
        in-memory ring retains (spans still arrive when they close —
        the ring's completeness semantics, not its capacity).
        """
        self._sinks.append(sink)

    def _append(self, event: TraceEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped_events += 1
        self._events.append(event)
        for sink in self._sinks:
            sink(event)

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _intern(self, key: tuple) -> EventKind:
        """The kind for ``key`` = ``(phase, category, track, name, *keys)``."""
        kind = self._kinds[key] = EventKind(*key[:4], key[4:])
        return kind

    def instant(self, track: str, name: str, category: str = "event", **args) -> None:
        """Record a point event."""
        key = (INSTANT, category, track, name, *args)
        kind = self._kinds.get(key) or self._intern(key)
        self._append(
            _stored(self.env.now, None, self._next_seq(), kind, tuple(args.values()))
        )

    def counter(
        self, track: str, name: str, value: float, category: str = "counter"
    ) -> None:
        """Record a counter sample (drawn as a step function)."""
        key = (COUNTER, category, track, name, "value")
        kind = self._kinds.get(key) or self._intern(key)
        self._append(_stored(self.env.now, None, self._next_seq(), kind, (value,)))

    def begin(self, track: str, name: str, category: str = "span", **args) -> Span:
        """Open a span; pair with :meth:`end`."""
        span = Span(track, name, category, self.env.now, args, self._next_seq())
        self._open_spans.append(span)
        return span

    def end(self, span: Span, **args) -> None:
        """Close ``span`` at the current time, merging extra ``args``."""
        if span.closed:
            return
        span.closed = True
        try:
            self._open_spans.remove(span)
        except ValueError:
            pass
        merged = span.args
        if args:
            merged.update(args)
        key = (SPAN, span.category, span.track, span.name, *merged)
        kind = self._kinds.get(key) or self._intern(key)
        self._append(
            _stored(
                span.start_s, max(0.0, self.env.now - span.start_s), span.seq,
                kind, tuple(merged.values()),
            )
        )

    def complete(
        self,
        track: str,
        name: str,
        start_s: float,
        end_s: float,
        category: str = "span",
        **args,
    ) -> None:
        """Record an already-finished span in one call."""
        if end_s < start_s:
            raise ValueError(f"span ends before it starts: [{start_s}, {end_s}]")
        key = (SPAN, category, track, name, *args)
        kind = self._kinds.get(key) or self._intern(key)
        self._append(
            _stored(
                start_s, end_s - start_s, self._next_seq(), kind,
                tuple(args.values()),
            )
        )

    # -- reading ----------------------------------------------------------------
    def finalize(self) -> None:
        """Close any still-open spans at the current time (idempotent).

        Truncated spans carry an explicit ``truncated=True`` arg so
        exports and queries can tell a real interval from one cut by
        the end of the run. Finalisation is *not* one-shot: a span
        opened after an earlier finalize (e.g. a mid-run
        :class:`~repro.trace.query.TraceQuery`) is still closed by the
        next call — a once-only gate here silently dropped such spans
        from every duration query.
        """
        for span in list(self._open_spans):
            self.end(span, truncated=True)

    @property
    def events(self) -> List[TraceEvent]:
        """Retained events, sorted by (timestamp, emission order).

        Spans sort by their *start* time, so a trace reads as a
        timeline even though spans are recorded when they close.
        """
        return sorted(self._events, key=TraceEvent.sort_key)

    def tracks(self) -> List[str]:
        """Distinct track names, sorted."""
        return sorted({e.kind.track for e in self._events})

    def __repr__(self) -> str:
        return (
            f"<Tracer {len(self._events)}/{self.capacity} events "
            f"dropped={self.dropped_events}>"
        )
