"""EDF batching: a prediction-free online baseline the paper omits.

PBPL earns its wakeup savings with rate prediction, slot reservations
and latching. A natural question the paper never asks: how much of that
machinery is needed? This implementation answers it with the simplest
deadline-driven coordinator:

* every buffered item has a hard deadline ``arrival + L`` — known the
  moment it arrives, no prediction required;
* one coordinator per core sleeps until the **earliest deadline** among
  all buffered items of all its consumers (FIFO order means arrivals
  never move that deadline earlier, so the timer is set once per drain
  cycle — no per-item reprogramming);
* on the deadline wake — or on any buffer overflow — it drains *every*
  consumer on the core in one CPU wakeup (maximal latching, for free).

This is the clairvoyant oracle's greedy rule made online (the deadline
part of the forcing time is known online; the overflow part is handled
reactively). The benchmark ``test_extension_edf_baseline`` compares it
with PBPL and the oracle's lower bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.buffers import BoundedBuffer
from repro.cpu.machine import Machine
from repro.impls.base import PairStats, PCConfig
from repro.impls.single import WAKE_CHECK_S

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment

from repro.workloads.trace import Trace


class _EDFPair:
    """One producer-consumer pair's buffer under an EDF coordinator."""

    def __init__(self, env, config: PCConfig, trace: Trace, owner: str) -> None:
        self.env = env
        self.config = config
        self.trace = trace
        self.owner = owner
        self.buffer = BoundedBuffer(config.buffer_size)
        self.stats = PairStats()
        self.in_flight = 0
        self._space_event = None
        #: Arrival time of the oldest buffered item (None when empty).
        self.oldest_arrival: Optional[float] = None
        self.coordinator: "EDFCoordinator" = None  # set by the system

    def try_deliver(self, t: float):
        """Place one item; on a full buffer, return the blocked path
        for the producer to ``yield from``."""
        if self.buffer.is_full:
            return self._deliver_blocked(t)
        self.buffer.push(t)
        if self.oldest_arrival is None:
            self.oldest_arrival = t
            self.coordinator.notify_first_item()
        if self.buffer.is_full:
            self.coordinator.notify_overflow()
        return None

    def _deliver_blocked(self, t: float):
        self.stats.overflows += 1
        self.coordinator.notify_overflow()
        while self.buffer.is_full:
            self._space_event = self.env.event()
            yield self._space_event
        self.try_deliver(t)

    def notify_space(self) -> None:
        if self._space_event is not None and not self._space_event.triggered:
            self._space_event.succeed()
        self._space_event = None

    def deadline(self) -> float:
        if self.oldest_arrival is None:
            return float("inf")
        return self.oldest_arrival + self.config.max_response_latency_s


class EDFCoordinator:
    """Drains all pairs of one core at the earliest buffered deadline."""

    def __init__(self, env, core, pairs: Sequence[_EDFPair], owner: str) -> None:
        self.env = env
        self.core = core
        self.pairs = list(pairs)
        self.owner = owner
        self.scheduled_wakeups = 0
        self.overflow_wakeups = 0
        self._kick = None
        for pair in self.pairs:
            pair.coordinator = self

    def _notify(self) -> None:
        if self._kick is not None and not self._kick.triggered:
            self._kick.succeed()
        self._kick = None

    # Producers call these (both re-arm the coordinator's wait):
    def notify_first_item(self) -> None:
        self._notify()

    def notify_overflow(self) -> None:
        self._notify()

    def _earliest_deadline(self) -> float:
        return min(pair.deadline() for pair in self.pairs)

    def _any_overflowed(self) -> bool:
        return any(pair.buffer.is_full for pair in self.pairs)

    def process(self):
        env = self.env
        while True:
            deadline = self._earliest_deadline()
            overflow = self._any_overflowed()
            if not overflow:
                if deadline == float("inf"):
                    # Nothing buffered anywhere: fully idle until an item.
                    self.core.set_next_wake_hint(None)
                    kick = env.event()
                    self._kick = kick
                    yield kick
                    continue
                if env.now < deadline:
                    self.core.set_next_wake_hint(deadline)
                    kick = env.event()
                    self._kick = kick
                    timer = env.timeout(deadline - env.now)
                    yield env.any_of([timer, kick])
                    if not timer.processed:
                        continue  # overflow or a new first item: re-evaluate
                    self._kick = None
                    self.scheduled_wakeups += 1
                else:
                    self.scheduled_wakeups += 1
            else:
                self.overflow_wakeups += 1

            # One CPU wakeup drains every consumer on this core.
            hold = yield from self.core.acquire(self.owner, after_block=True)
            yield from hold.busy(WAKE_CHECK_S)
            for pair in self.pairs:
                batch = pair.buffer.drain()
                pair.in_flight = len(batch)
                pair.oldest_arrival = None
                pair.notify_space()
                for t in batch:
                    yield from hold.busy(pair.config.service_time_s)
                    pair.stats.consumed += 1
                    pair.stats.record_latency(
                        env.now - t,
                        pair.config.max_response_latency_s,
                    )
                    pair.in_flight -= 1
            hold.release()


class EDFBatchSystem:
    """The EDF-batching system over M pairs (MultiPairSystem-compatible)."""

    name = "EDF"

    def __init__(
        self,
        env: "Environment",
        machine: Machine,
        traces: Sequence[Trace],
        config: Optional[PCConfig] = None,
        consumer_cores: Optional[Sequence[int]] = None,
    ) -> None:
        if not traces:
            raise ValueError("need at least one trace")
        self.env = env
        self.machine = machine
        self.config = config or PCConfig()
        cores = list(consumer_cores) if consumer_cores else [0]
        self.pairs: List[_EDFPair] = [
            _EDFPair(env, self.config, trace, owner=f"consumer-{i}")
            for i, trace in enumerate(traces)
        ]
        self.coordinators: List[EDFCoordinator] = []
        for idx, core_id in enumerate(dict.fromkeys(cores)):
            members = [
                pair
                for i, pair in enumerate(self.pairs)
                if cores[i % len(cores)] == core_id
            ]
            self.coordinators.append(
                EDFCoordinator(
                    env, machine.core(core_id), members, owner=f"edf-{core_id}"
                )
            )

    def start(self) -> "EDFBatchSystem":
        for pair in self.pairs:
            self.env.arrivals.add(
                pair.trace.times, pair.try_deliver, pair.stats,
                f"{pair.owner}-producer",
            )
        for coordinator in self.coordinators:
            self.env.process(
                coordinator.process(), name=f"{coordinator.owner}-coordinator"
            )
        return self

    def aggregate_stats(self) -> PairStats:
        total = PairStats()
        for pair in self.pairs:
            s = pair.stats
            total.produced += s.produced
            total.consumed += s.consumed
            total.overflows += s.overflows
            total.deadline_misses += s.deadline_misses
            total.latencies.extend(s.latencies)
            total._lat_sum += s._lat_sum
            total._lat_n += s._lat_n
            total._lat_max = max(total._lat_max, s._lat_max)
        total.scheduled_wakeups = sum(c.scheduled_wakeups for c in self.coordinators)
        total.overflow_wakeups = sum(c.overflow_wakeups for c in self.coordinators)
        total.invocations = total.scheduled_wakeups + total.overflow_wakeups
        return total

    def average_buffer_capacity(self) -> float:
        return sum(p.buffer.capacity for p in self.pairs) / len(self.pairs)

    def __repr__(self) -> str:
        return f"<EDFBatchSystem x{len(self.pairs)}>"
