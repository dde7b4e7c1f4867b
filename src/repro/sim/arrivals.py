"""One arrival stream per run: every producer's trace from one process.

Producers are external event sources (paper §IV-A): delivering an item
costs no consumer-core time, but a full buffer back-pressures its
producer as the POSIX implementation would. So a run's producers are
one :class:`ArrivalStream` process. It keeps each producer's next
arrival in a heap of ``(when, eid, t, source)``, taking ``eid`` with
``next(env._eid)`` and ``when = now + (t - now)`` at the moment a
process of the producer's own would have called ``env.timeout(t -
now)``; ties at one timestamp keep that order. It moves the clock to
each arrival in place when nothing queued sorts first, and otherwise
waits on one Timeout carrying the same eid.

A delivery that blocks stalls only its producer: the blocked path runs
on a helper process started inside the stream's step, which replays
that producer as its own process would until a wait sorts after the
arrival the stream waits for (or the stream holds none), then hands
the producer back and ends. Each producer's first step runs on such a
helper too, started like any process, where its own process would have
run it.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment


class ArrivalStream:
    """Replays every producer of a run into its delivery routine."""

    #: Arrival timestamps are materialised from each numpy trace in
    #: chunks of this many floats — bounded memory however long the
    #: trace, without paying a per-item numpy-scalar conversion.
    CHUNK = 4096

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: ``(when, eid, t, source)``: the next arrival of each producer
        #: the stream holds. The top entry is the one the stream waits
        #: for, and stays on top while it waits: a helper's wait takes a
        #: fresh eid, so it sorts after the top exactly when its time is
        #: not earlier, and only then is it handed back.
        self._heap: list = []
        #: The event the stream waits on while it holds no producer.
        self._idle = None
        env.process_now(self._run(), name="arrivals")

    def add(
        self,
        times: Any,
        deliver: Callable[[float], Optional[Generator]],
        stats: Any,
        name: str,
    ) -> None:
        """Replay ``times`` (a numpy array of arrival timestamps) into
        ``deliver`` (an implementation's ``try_deliver``), counting each
        placed item into ``stats.produced``; ``name`` names the
        producer's helper processes."""
        chunk = self.CHUNK
        arrivals = chain.from_iterable(
            times[start : start + chunk].tolist()
            for start in range(0, len(times), chunk)
        )
        # A producer: its delivery, its stats, its arrivals still to
        # come, and the name of its helpers.
        source = (deliver, stats, arrivals, name)
        self.env.process(self._replay(source), name=name)

    def _run(self):
        env = self.env
        heap = self._heap
        eids = env._eid
        queue = env._queue
        try_advance_at = env.try_advance_at
        timeout_at = env.timeout_at
        while True:
            if not heap:
                self._idle = env.event()
                yield self._idle
            when, eid, t, source = heap[0]
            # An entry queued at an earlier time runs first whatever the
            # rule says, so the rule is asked only when none is: most
            # Mutex/Sem deliveries queue their consumer's wake at now.
            if (queue and queue[0][0] < when) or not try_advance_at(when, eid):
                yield timeout_at(when, eid)
            deliver, stats, times, name = source
            while True:
                blocked = deliver(t)
                if blocked is not None:
                    heappop(heap)
                    env.process_now(self._replay(source, blocked), name)
                    break
                stats.produced += 1
                t = next(times, None)
                if t is None:
                    heappop(heap)
                    break
                now = env.now
                if now < t:
                    heapreplace(heap, (now + (t - now), next(eids), t, source))
                    break

    def _replay(self, source: tuple, blocked: Optional[Generator] = None):
        """A producer's own process, from its first step or from a
        blocked delivery, until it can rejoin the stream."""
        env = self.env
        deliver, stats, times, _name = source
        if blocked is not None:
            yield from blocked
            stats.produced += 1
        for t in times:
            now = env.now
            if now < t:
                when = now + (t - now)
                heap = self._heap
                if not heap or when >= heap[0][0]:
                    heappush(heap, (when, next(env._eid), t, source))
                    idle = self._idle
                    if idle is not None:
                        self._idle = None
                        idle.succeed()
                    return
                yield env.timeout(t - now)
            blocked = deliver(t)
            if blocked is not None:
                yield from blocked
            stats.produced += 1
