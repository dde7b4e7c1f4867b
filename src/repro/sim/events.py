"""Event and process types for the DES kernel.

Everything a simulated process can ``yield`` is an :class:`Event`.
Events move through three stages:

1. *pending* — created, value unknown;
2. *triggered* — a value (or failure) has been decided and the event is
   sitting in the environment's queue waiting for its timestamp;
3. *processed* — the environment popped it and ran its callbacks.

:class:`Process` is itself an event — it triggers when its underlying
generator finishes — which is what makes ``yield env.process(child(env))``
(fork/join) work without any extra machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from repro.sim.errors import Interrupt, SimulationError, StopProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment

#: Sentinel for "no value decided yet".
PENDING = object()

#: Queue priority for ordinary events.
NORMAL = 1
#: Queue priority for events that must run before same-time NORMAL ones
#: (process bootstrap and interrupts).
URGENT = 0

ProcessGenerator = Generator["Event", Any, Any]


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event carries either a success value or a failure exception once
    triggered. Processes subscribe by appending a callable to
    :attr:`callbacks`; the environment invokes every callback exactly
    once, passing the event itself, at the event's timestamp.
    """

    __slots__ = ("env", "callbacks", "_value", "_exc", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked when the event is processed; ``None`` after
        #: processing (which is how "processed" is represented).
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._exc: Optional[BaseException] = None
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or failure has been decided."""
        return self._value is not PENDING or self._exc is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value or failure exception of the event."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._exc if self._exc is not None else self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with a success ``value``.

        Returns the event so ``return event.succeed()`` chains nicely.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=NORMAL)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is thrown into every process waiting on the event.
        If nothing waits (or nothing defuses it), it surfaces from
        :meth:`Environment.run` — failures are never silently dropped.
        """
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._exc = exc
        self.env.schedule(self, priority=NORMAL)
        return self

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    def describe(self) -> str:
        """Short diagnostic label: event kind plus named waiters.

        Used by the simultaneity sanitizer to report *who* an event
        would resume, without poking at callback internals there.
        """
        waiters = []
        for cb in self.callbacks or ():
            owner = getattr(cb, "__self__", None)
            name = getattr(owner, "name", None)
            if name:
                waiters.append(str(name))
        label = type(self).__name__
        if waiters:
            label += " -> " + ", ".join(waiters)
        return label


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise SimulationError(f"timeout delay {delay!r} is not >= 0")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay, priority=NORMAL)


class Initialize(Event):
    """Internal: bootstraps a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume_cb)
        env.schedule(self, priority=URGENT)


class Interruption(Event):
    """Internal: delivers an :class:`Interrupt` into a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        if process._value is not PENDING:
            raise SimulationError(f"{process!r} has already terminated")
        if process is process.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        self.process = process
        self._ok = False
        self._exc = Interrupt(cause)
        self._defused = True  # delivery below is the handling
        self.callbacks.append(self._deliver)
        self.env.schedule(self, priority=URGENT)

    def _deliver(self, event: Event) -> None:
        process = self.process
        if process._value is not PENDING:
            return  # terminated between scheduling and delivery
        # Detach the process from whatever it is waiting on, then resume
        # it with the failed (Interrupt-carrying) event.
        if process._target is not None and process._target.callbacks is not None:
            try:
                process._target.callbacks.remove(process._resume_cb)
            except ValueError:
                pass
        process._target = None
        process._resume(self)


class Process(Event):
    """A running simulated process; triggers when its generator ends.

    Created via :meth:`Environment.process`. The generator may ``yield``
    any :class:`Event`; it resumes with the event's value (or the
    event's exception is thrown into it).
    """

    __slots__ = ("_generator", "_target", "name", "_resume_cb")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
        initialize: bool = True,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"process() needs a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        #: ``_resume`` bound once: every yield subscribes this one
        #: object, and an interrupt removes it from the old target.
        self._resume_cb = self._resume
        env._processes[self] = None
        if initialize:
            Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING and self._exc is None

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next step."""
        Interruption(self, cause)

    # -- generator driving ----------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    # The process handles (or dies from) the failure.
                    event._defused = True
                    assert event._exc is not None
                    target = self._generator.throw(event._exc)
            except StopIteration as stop:
                self._finish(True, stop.value, None)
                break
            except StopProcess as stop:
                self._finish(True, stop.value, None)
                break
            except BaseException as exc:  # noqa: BLE001 - process died
                self._finish(False, None, exc)
                break

            # Duck-typed fast path: every Event has ``callbacks`` and
            # ``env`` (slots), so the common case costs two attribute
            # reads instead of an isinstance check per yield.
            try:
                callbacks = target.callbacks
                foreign = target.env is not env
            except AttributeError:
                foreign = True
            if foreign:
                if isinstance(target, Event):
                    msg = (
                        f"process {self.name!r} yielded an event from a "
                        "different environment"
                    )
                else:
                    msg = f"process {self.name!r} yielded {target!r}, not an Event"
                # Synthesize an already-processed failed event so the next
                # loop iteration throws into the generator; the process may
                # catch it and continue, or die with it.
                poison = Event(env)
                poison._ok = False
                poison._exc = SimulationError(msg)
                poison.callbacks = None
                event = poison
                continue

            if callbacks is None:
                # Already processed: resume immediately with its outcome.
                event = target
                continue
            callbacks.append(self._resume_cb)
            self._target = target
            break
        env._active_process = None

    def _finish(self, ok: bool, value: Any, exc: Optional[BaseException]) -> None:
        # A finished process needs no closing, and drops the bound
        # ``_resume`` that held it in a cycle: it goes when its last
        # outside reference does, however long the run goes on.
        del self.env._processes[self]
        self._resume_cb = None
        self._target = None
        if ok:
            self._ok = True
            self._value = value
        else:
            self._ok = False
            self._exc = exc
            self._value = None
        self.env.schedule(self, priority=NORMAL)

    def __repr__(self) -> str:
        status = "alive" if self.is_alive else "done"
        return f"<Process {self.name!r} {status}>"


class Condition(Event):
    """Composite event over several child events.

    Succeeds (with a ``dict`` mapping each *triggered* child to its
    value) once ``evaluate(total, done)`` returns True. Fails as soon as
    any child fails.
    """

    __slots__ = ("_total", "_evaluate", "_fired")

    def __init__(
        self,
        env: "Environment",
        events: Iterable[Event],
        evaluate: Callable[[int, int], bool],
    ) -> None:
        super().__init__(env)
        events = list(events)
        # Only the count is kept: a pending child holds this condition
        # in its callbacks, so holding the children back would make a
        # reference cycle of every condition with a child left pending.
        self._total = len(events)
        self._evaluate = evaluate
        #: Children that have actually been processed, in firing order.
        #: (A pending Timeout already *carries* its value, so "triggered"
        #: alone cannot distinguish fired from merely scheduled.)
        self._fired: list[Event] = []
        for event in events:
            if event.env is not env:
                raise SimulationError("condition mixes environments")
        if not events and evaluate(0, 0):
            self.succeed({})
            return
        for event in events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            assert event._exc is not None
            self.fail(event._exc)
            return
        self._fired.append(event)
        if self._evaluate(self._total, len(self._fired)):
            self.succeed({ev: ev._value for ev in self._fired})


class AnyOf(Condition):
    """Triggers when *any* child event succeeds (or any fails)."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, events, lambda total, done: done > 0 or total == 0)


class AllOf(Condition):
    """Triggers when *all* child events have succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, events, lambda total, done: done == total)
