"""Blocking synchronisation primitives for simulated processes.

These mirror the POSIX primitives the paper's implementations are built
on — semaphores (``sem_wait``/``sem_post``), mutexes and condition
variables (``pthread_cond_wait``/``signal``) — with DES semantics:
"blocking" means yielding an event that triggers when the primitive
grants access. All primitives are FIFO-fair, which makes test outcomes
deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generator, Optional

from repro.sim.errors import SimulationError
from repro.sim.events import Event, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment


class Semaphore:
    """A counting semaphore.

    ``yield sem.acquire()`` blocks until a unit is available;
    ``sem.release()`` returns one (never blocks). An optional
    ``capacity`` bounds the count, turning release-above-capacity into
    an error — handy for catching double-release bugs in tests.
    """

    def __init__(
        self,
        env: "Environment",
        value: int = 0,
        capacity: Optional[int] = None,
    ) -> None:
        if value < 0:
            raise SimulationError(f"semaphore value must be >= 0, got {value}")
        if capacity is not None and value > capacity:
            raise SimulationError("initial value exceeds capacity")
        self.env = env
        self._value = value
        self._capacity = capacity
        self._waiters: deque[Event] = deque()

    @property
    def value(self) -> int:
        """Units currently available."""
        return self._value

    @property
    def waiting(self) -> int:
        """Number of processes blocked in :meth:`acquire`."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that triggers once a unit is obtained."""
        event = self.env.event()
        if self._value > 0 and not self._waiters:
            self._value -= 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True on success."""
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return True
        return False

    def release(self, n: int = 1) -> None:
        """Return ``n`` units, waking blocked acquirers FIFO.

        Units that wake no waiter add to the count; if that would exceed
        the capacity, nothing is released and the call raises.
        """
        if n < 1:
            raise SimulationError(f"release count must be >= 1, got {n}")
        waiters = self._waiters
        if (
            self._capacity is not None
            and self._value + max(0, n - len(waiters)) > self._capacity
        ):
            raise SimulationError(
                f"semaphore released above capacity {self._capacity}"
            )
        for _ in range(n):
            if waiters:
                waiters.popleft().succeed()
            else:
                self._value += 1

    def cancel(self, event: Event) -> bool:
        """Withdraw a pending acquire (e.g. after interrupting its owner).

        Returns True if the event was still queued and got removed.
        """
        try:
            self._waiters.remove(event)
            return True
        except ValueError:
            return False

    def __repr__(self) -> str:
        return f"<Semaphore value={self._value} waiting={len(self._waiters)}>"


class Mutex:
    """A mutual-exclusion lock with ownership checking.

    The process that completes ``yield mutex.acquire()`` owns the lock;
    only the owner may :meth:`release`. Ownership is recorded at call
    time of :meth:`acquire` (acquire is always called from within the
    owning process's execution).

    An uncontended lock is not a scheduling point: use
    ``if not mutex.try_acquire(): yield mutex.acquire()``. On success
    :meth:`try_acquire` records the caller as owner right away and no
    event is made; otherwise :meth:`acquire` queues the caller FIFO.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._owner: Optional[Process] = None
        self._waiters: deque[tuple[Event, Optional[Process]]] = deque()

    @property
    def locked(self) -> bool:
        """True while some process holds the lock."""
        return self._owner is not None

    @property
    def owner(self) -> Optional[Process]:
        """The holding process (None when unlocked)."""
        return self._owner

    def acquire(self) -> Event:
        """Return an event that triggers once the lock is held."""
        caller = self.env._active_process
        event = self.env.event()
        if self.try_acquire():
            event.succeed()
        elif self._owner is caller and caller is not None:
            raise SimulationError("mutex is not recursive: re-acquire by owner")
        else:
            self._waiters.append((event, caller))
        return event

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True when the caller now owns the lock.

        Same rule as :meth:`acquire`: the lock must be free *and* nobody
        queued for it (FIFO fairness). False otherwise, including when
        the caller already holds it.
        """
        if self._owner is None and not self._waiters:
            self._owner = self.env._active_process
            return True
        return False

    def release(self) -> None:
        """Unlock; hands the lock to the oldest waiter if any."""
        caller = self.env._active_process
        if self._owner is None:
            raise SimulationError("release of an unlocked mutex")
        if caller is not None and self._owner is not caller:
            raise SimulationError(
                f"mutex owned by {self._owner!r} released by {caller!r}"
            )
        if self._waiters:
            event, waiter = self._waiters.popleft()
            self._owner = waiter
            event.succeed()
        else:
            self._owner = None

    def __repr__(self) -> str:
        state = f"locked by {self._owner!r}" if self._owner else "unlocked"
        return f"<Mutex {state} waiting={len(self._waiters)}>"


class ConditionVariable:
    """A POSIX-style condition variable bound to a :class:`Mutex`.

    Use from a process that holds the mutex::

        yield mutex.acquire()
        while not predicate():
            yield from cv.wait()
        ...                       # predicate holds, mutex held
        mutex.release()

    :meth:`wait` atomically releases the mutex, sleeps until notified,
    and re-acquires the mutex before returning — inline through
    :meth:`Mutex.try_acquire` when it is free with nobody queued, else
    FIFO behind the earlier waiters — exactly the
    ``pthread_cond_wait`` contract the paper's Mutex implementation
    relies on. Spurious wakeups do not occur, but the standard
    while-loop idiom is still required because another process may run
    between the notify and the re-acquire.
    """

    def __init__(self, env: "Environment", mutex: Mutex) -> None:
        self.env = env
        self.mutex = mutex
        self._waiters: deque[Event] = deque()

    @property
    def waiting(self) -> int:
        """Number of processes blocked in :meth:`wait`."""
        return len(self._waiters)

    def wait(self) -> Generator[Event, None, None]:
        """Sub-generator implementing wait; use as ``yield from cv.wait()``."""
        caller = self.env._active_process
        if self.mutex.owner is not caller or caller is None:
            raise SimulationError("wait() requires holding the mutex")
        signal = self.env.event()
        self._waiters.append(signal)
        self.mutex.release()
        yield signal
        if not self.mutex.try_acquire():
            yield self.mutex.acquire()

    def notify(self, n: int = 1) -> int:
        """Wake up to ``n`` waiters; returns how many were woken."""
        woken = 0
        while self._waiters and woken < n:
            self._waiters.popleft().succeed()
            woken += 1
        return woken

    def notify_all(self) -> int:
        """Wake every waiter; returns how many were woken."""
        return self.notify(len(self._waiters))

    def __repr__(self) -> str:
        return f"<ConditionVariable waiting={len(self._waiters)}>"
