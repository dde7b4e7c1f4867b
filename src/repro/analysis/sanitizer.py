"""Simultaneity sanitizer: a race detector for the DES kernel.

The kernel breaks timestamp ties by (priority, scheduling order), which
makes every run *reproducible* — but reproducible is not the same as
*meaningful*. If two events land on the same virtual timestamp without
any causal ordering between them and both mutate the same buffer, slot
track or pool, then the simulation's outcome hangs on heap insertion
sequence: an incidental byproduct of code layout that the next refactor
silently flips. That is the DES analogue of a data race, and this module
detects it dynamically, the way TSan does for threads:

* :class:`SanitizingEnvironment` subclasses the kernel
  :class:`~repro.sim.environment.Environment` and records, for every
  scheduled event, its *call site* (who scheduled it), its **origin**
  (which dispatch scheduled it; 0 for pre-run setup code) and whether it
  was **derived** — scheduled *during* the dispatch of another event at
  the same timestamp, which makes it causally ordered after its parent
  and therefore not racy. Two events sharing an origin are ordered by
  explicit program order inside one causal context (statements in a
  ``start()`` method, or one process scheduling two timers) — that is
  intended sequencing, not a heap accident, so only events from
  *different* origins can race.
* ``install_probes`` wraps the mutating methods of the shared-state
  classes (buffers, slot tracks, the global pool) so each dispatch
  records which state it touched. Probes are idempotent, process-wide,
  and dormant (a single ``is None`` test) unless a sanitizing run is
  active.
* At the end of each timestamp/priority group, any two **non-derived**
  events scheduled from **different origins** that touched the same
  state object are reported as a :class:`SimultaneityRace` naming both
  scheduling call sites.

Wired into ``repro chaos --sanitize``; the golden scenarios must come
out clean.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.sim.environment import Environment, _StopSimulation
from repro.sim.errors import SimulationError
from repro.sim.events import NORMAL, Event

# ---------------------------------------------------------------------------
# call-site capture
# ---------------------------------------------------------------------------

_KERNEL_FILES: Set[str] = set()


def _kernel_files() -> Set[str]:
    """Source files whose frames are kernel plumbing, not call sites."""
    if not _KERNEL_FILES:
        from repro.sim import environment, events

        _KERNEL_FILES.update(
            {environment.__file__, events.__file__, __file__}
        )
    return _KERNEL_FILES


def _short_path(filename: str) -> str:
    parts = filename.replace("\\", "/").split("/")
    for anchor in ("repro", "tests"):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            return "/".join(parts[idx:])
    return "/".join(parts[-2:])


def _call_site() -> str:
    """``file:line in function`` of the nearest non-kernel frame."""
    skip = _kernel_files()
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename in skip:
        frame = frame.f_back
    if frame is None:
        return "<unknown>"
    code = frame.f_code
    return f"{_short_path(code.co_filename)}:{frame.f_lineno} in {code.co_name}"


# ---------------------------------------------------------------------------
# records & report
# ---------------------------------------------------------------------------


class _EventRecord:
    """What the sanitizer knows about one scheduled event."""

    __slots__ = ("site", "derived", "origin", "label", "touches")

    def __init__(self, site: str, derived: bool, origin: int) -> None:
        self.site = site
        self.derived = derived
        self.origin = origin
        self.label = "<event>"
        # state label -> set of mutating op names performed during dispatch
        self.touches: Dict[str, Set[str]] = {}


@dataclass(frozen=True)
class SimultaneityRace:
    """Two causally unordered events at one timestamp mutating one state."""

    time_s: float
    priority: int
    state: str
    site_a: str
    site_b: str
    label_a: str
    label_b: str
    ops_a: Tuple[str, ...]
    ops_b: Tuple[str, ...]

    def render(self) -> str:
        return (
            f"simultaneity race at t={self.time_s:.9f} on {self.state}:\n"
            f"  [1] {self.label_a} ({'/'.join(self.ops_a)})\n"
            f"      scheduled at {self.site_a}\n"
            f"  [2] {self.label_b} ({'/'.join(self.ops_b)})\n"
            f"      scheduled at {self.site_b}\n"
            f"  their relative order is decided only by heap insertion "
            f"sequence"
        )


@dataclass
class SanitizerReport:
    """Outcome of one sanitized run."""

    races: List[SimultaneityRace] = field(default_factory=list)
    events_seen: int = 0
    contended_groups: int = 0  # timestamp groups with >= 2 events

    @property
    def ok(self) -> bool:
        return not self.races

    def render(self) -> str:
        head = (
            f"sanitizer: {self.events_seen} events, "
            f"{self.contended_groups} same-timestamp groups, "
            f"{len(self.races)} race(s)"
        )
        if self.ok:
            return head
        return "\n\n".join([head] + [r.render() for r in self.races])


# ---------------------------------------------------------------------------
# the sanitizer proper
# ---------------------------------------------------------------------------


class SimultaneitySanitizer:
    """Tracks scheduling causality and state touches during a run."""

    def __init__(self) -> None:
        self._records: Dict[int, _EventRecord] = {}
        self._group_time: Optional[float] = None
        self._groups: Dict[int, List[_EventRecord]] = {}
        self._current: Optional[_EventRecord] = None
        #: Causal context of the dispatch in flight: 0 = setup code
        #: (before run() or between runs), n > 0 = the n-th dispatch.
        #: Events scheduled from the same context are program-ordered.
        self._origin = 0
        self._dispatch_seq = 0
        self._labels: Dict[int, str] = {}
        self._label_counts: Dict[str, int] = {}
        self._seen_pairs: Set[Tuple[str, str, str]] = set()
        self.report = SanitizerReport()

    # -- scheduling side ----------------------------------------------------

    def on_schedule(self, event: Event, when: float, priority: int) -> None:
        derived = self._current is not None and when == self._group_time
        self._records[id(event)] = _EventRecord(
            _call_site(), derived, self._origin
        )

    # -- dispatch side ------------------------------------------------------

    def begin_dispatch(self, event: Event, when: float, priority: int) -> None:
        if when != self._group_time:
            self._flush()
            self._group_time = when
        record = self._records.pop(id(event), None)
        if record is None:
            # Scheduled before the sanitizer attached (or by a path that
            # bypassed schedule()); treat as derived = never racy.
            record = _EventRecord("<pre-sanitizer>", True, 0)
        record.label = event.describe()
        self._groups.setdefault(priority, []).append(record)
        self._current = record
        self._dispatch_seq += 1
        self._origin = self._dispatch_seq
        self.report.events_seen += 1

    def end_dispatch(self) -> None:
        self._current = None
        self._origin = 0

    def touch(self, obj: Any, op: str) -> None:
        """A probed mutating method ran on ``obj`` during some dispatch."""
        record = self._current
        if record is None:
            return  # touched outside dispatch (setup code): not racy
        record.touches.setdefault(self._state_label(obj), set()).add(op)

    def _state_label(self, obj: Any) -> str:
        key = id(obj)
        label = self._labels.get(key)
        if label is None:
            base = type(obj).__name__
            owner = getattr(obj, "owner", None) or getattr(obj, "name", None)
            if isinstance(owner, str) and owner:
                label = f"{base}({owner})"
            else:
                n = self._label_counts.get(base, 0)
                self._label_counts[base] = n + 1
                label = f"{base}#{n}"
            self._labels[key] = label
        return label

    # -- group analysis -----------------------------------------------------

    def _flush(self) -> None:
        for priority in sorted(self._groups):
            group = self._groups[priority]
            if len(group) >= 2:
                self.report.contended_groups += 1
            candidates = [r for r in group if not r.derived and r.touches]
            for i, a in enumerate(candidates):
                for b in candidates[i + 1 :]:
                    if a.origin == b.origin:
                        # Scheduled from the same causal context (same
                        # dispatch, or both from setup code): ordered by
                        # explicit program order, not a heap accident.
                        continue
                    shared = sorted(a.touches.keys() & b.touches.keys())
                    for state in shared:
                        pair = (state, a.site, b.site)
                        if pair in self._seen_pairs:
                            continue
                        self._seen_pairs.add(pair)
                        assert self._group_time is not None
                        self.report.races.append(
                            SimultaneityRace(
                                time_s=self._group_time,
                                priority=priority,
                                state=state,
                                site_a=a.site,
                                site_b=b.site,
                                label_a=a.label,
                                label_b=b.label,
                                ops_a=tuple(sorted(a.touches[state])),
                                ops_b=tuple(sorted(b.touches[state])),
                            )
                        )
        self._groups = {}

    def finish(self) -> SanitizerReport:
        self._flush()
        self._records.clear()
        return self.report


# ---------------------------------------------------------------------------
# the sanitizing environment
# ---------------------------------------------------------------------------


class SanitizingEnvironment(Environment):
    """Drop-in :class:`Environment` that feeds a sanitizer.

    Scheduling order, dispatch order and simulated behaviour are
    byte-identical to the base environment — the subclass only *records*
    (call sites at schedule time, touch sets at dispatch time) and
    activates the probe hook while its run loop is live.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        sanitizer: Optional[SimultaneitySanitizer] = None,
    ) -> None:
        super().__init__(initial_time)
        self.sanitizer = sanitizer or SimultaneitySanitizer()

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        super().schedule(event, delay, priority)
        self.sanitizer.on_schedule(event, self.now + delay, priority)

    def timeout(self, delay: float, value: Any = None):
        event = super().timeout(delay, value)
        self.sanitizer.on_schedule(event, self.now + delay, NORMAL)
        return event

    def step(self) -> None:
        entry = self._pop_entry()
        if entry is None:
            raise SimulationError("step() on an empty schedule")
        sanitizer = self.sanitizer
        when, prio, _eid, event = entry
        self.now = when
        self.events_processed += 1
        sanitizer.begin_dispatch(event, when, prio)
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        token = _activate(sanitizer)
        try:
            for callback in callbacks:
                callback(event)
        finally:
            _deactivate(token)
            sanitizer.end_dispatch()
        if not event._ok and not event._defused:
            exc = event._exc
            assert exc is not None
            raise exc

    def run(self, until=None) -> Any:
        """The base run loop with sanitizer hooks around each dispatch.

        Uses the event queue's single-event surface (``peek`` /
        ``_pop_entry``) instead of mirroring the inlined pop: the
        sanitizer needs the ``(when, priority)`` of every entry, and
        equal-timestamp events arrive consecutively in (priority, eid)
        order either way.
        """
        sanitizer = self.sanitizer
        pop_entry = self._pop_entry
        peek = self.peek
        processed = 0
        watched: Optional[Event] = None
        stop_at = float("inf")
        token = _activate(sanitizer)
        try:
            stop_at, watched = self._arm_until(until)
            while peek() < stop_at:
                entry = pop_entry()
                assert entry is not None  # peek() was finite
                when, prio, _eid, event = entry
                self.now = when
                processed += 1
                sanitizer.begin_dispatch(event, when, prio)
                callbacks = event.callbacks
                event.callbacks = None
                try:
                    for callback in callbacks:
                        callback(event)
                finally:
                    sanitizer.end_dispatch()
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
            _deactivate(token)
            self.events_processed += processed
        if watched is not None:
            raise SimulationError(
                "run(until=event) exhausted the schedule before the event "
                "triggered — likely a deadlock"
            )
        if stop_at != float("inf"):
            self.now = stop_at
        return None


# ---------------------------------------------------------------------------
# state-touch probes
# ---------------------------------------------------------------------------

#: The sanitizer currently observing touches, if any. Module-global so
#: probed methods stay cheap (one load + is-None test) when inactive.
_ACTIVE: Optional[SimultaneitySanitizer] = None
_PROBES_INSTALLED = False


def _activate(sanitizer: SimultaneitySanitizer) -> Optional[SimultaneitySanitizer]:
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = sanitizer
    return previous


def _deactivate(previous: Optional[SimultaneitySanitizer]) -> None:
    global _ACTIVE
    _ACTIVE = previous


def _wrap(cls: type, name: str) -> None:
    original = cls.__dict__.get(name)
    if original is None or getattr(original, "_repro_probe", False):
        return

    @functools.wraps(original)
    def probe(self, *args, **kwargs):
        if _ACTIVE is not None:
            _ACTIVE.touch(self, name)
        return original(self, *args, **kwargs)

    probe._repro_probe = True  # type: ignore[attr-defined]
    setattr(cls, name, probe)


#: (module path, class name, mutating methods) probed by install_probes.
PROBE_TARGETS = (
    ("repro.buffers.overflow", "OverflowPolicyMixin", ("push", "try_push")),
    ("repro.buffers.bounded", "BoundedBuffer", ("pop", "drain")),
    ("repro.buffers.ring", "RingBuffer", ("pop", "drain")),
    (
        "repro.buffers.segmented",
        "SegmentedBuffer",
        ("pop", "drain", "set_capacity", "grow", "shrink"),
    ),
    (
        "repro.buffers.pool",
        "GlobalBufferPool",
        ("upsize", "downsize", "withhold", "restore"),
    ),
    ("repro.core.slots", "SlotTrack", ("reserve", "cancel", "pop_slot")),
)


def install_probes() -> None:
    """Wrap the shared-state mutators with touch probes (idempotent)."""
    global _PROBES_INSTALLED
    if _PROBES_INSTALLED:
        return
    import importlib

    for module_path, class_name, methods in PROBE_TARGETS:
        cls = getattr(importlib.import_module(module_path), class_name)
        for method in methods:
            _wrap(cls, method)
    _PROBES_INSTALLED = True


# ---------------------------------------------------------------------------
# chaos wiring
# ---------------------------------------------------------------------------


def sanitize_scenario(
    scenario,
    params,
    n_consumers: int = 3,
    impl: str = "PBPL",
) -> SanitizerReport:
    """Run one chaos scenario under the sanitizer and report races."""
    from repro.faults.chaos import run_scenario

    install_probes()
    env = SanitizingEnvironment()
    run_scenario(scenario, params, n_consumers, env=env)
    return env.sanitizer.finish()
