"""Shared scaffolding for all producer-consumer implementations.

Every implementation in :mod:`repro.impls.single` pairs one trace-driven
producer with one consumer process pinned to a core, sharing a buffer
and a synchronisation discipline. This module holds the pieces they all
share: the configuration block, per-pair statistics (including the
latency tracker behind the paper's "maximum response latency"
requirement) and :func:`serve_batch`, the batch loop of the batch
implementations and PBPL. The producers of a run are its one
:class:`~repro.sim.arrivals.ArrivalStream` (``env.arrivals``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.sim.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.core import Core


@dataclass
class PCConfig:
    """Knobs shared by every implementation.

    Buffer sizes follow the paper (25/50/100). Time parameters are a
    coherent *time dilation* (×~100) of the paper's: the paper batches
    every 100 µs against a replayed log whose rate keeps the 25-slot
    buffer filling on roughly that timescale; the reproduction defaults
    to workloads around 2–5 k items/s, so the batching period scales to
    ``buffer_size / rate`` ≈ 10 ms to sit in the same operating regime
    (periodic wakeups ≈ buffer-full wakeups). All the paper's
    comparisons are between implementations under one fixed parameter
    set, so a uniform dilation preserves every ordering and ratio.
    """

    #: Per-consumer buffer capacity (paper sweeps 25/50/100).
    buffer_size: int = 25
    #: CPU-seconds to process one data item at nominal frequency.
    service_time_s: float = 10e-6
    #: CPU-seconds of synchronisation overhead per lock/semaphore cycle.
    sync_overhead_s: float = 2e-6
    #: Period of the periodic batch implementations (paper: 100 µs;
    #: dilated to match the default workload rate — see class docs).
    batch_period_s: float = 10e-3
    #: Deadline for any buffered item (paper §IV-A); drives PBPL's slot
    #: size and is checked by the latency statistics.
    max_response_latency_s: float = 10e-3
    #: Governor re-evaluation granularity for spinning consumers.
    spin_reeval_s: float = 0.01
    #: sched_yield frequency of the Yield implementation's spin loop.
    yield_rate_hz: float = 50_000.0

    def __post_init__(self) -> None:
        if self.buffer_size < 1:
            raise ValueError("buffer size must be >= 1")
        if self.service_time_s < 0 or self.sync_overhead_s < 0:
            raise ValueError("service/sync costs must be non-negative")
        if self.batch_period_s <= 0:
            raise ValueError("batch period must be positive")
        if self.max_response_latency_s <= 0:
            raise ValueError("max response latency must be positive")


@dataclass
class PairStats:
    """Counters for one producer-consumer pair."""

    produced: int = 0
    consumed: int = 0
    #: Consumer wake episodes (blocking impls: one per unblock; batch
    #: impls: one per batch; spinners: one ever).
    invocations: int = 0
    #: Times the producer found the buffer full.
    overflows: int = 0
    #: Items discarded by a lossy overflow policy (drop/shed); 0 under
    #: the default blocking back-pressure.
    items_shed: int = 0
    #: Batch-impl wakeups that happened on schedule (timer/slot).
    scheduled_wakeups: int = 0
    #: Batch-impl wakeups forced by a full buffer before the schedule.
    overflow_wakeups: int = 0
    #: Of ``overflows``, those met by an upstream pipeline stage's
    #: forward rather than by the pair's own producer.
    forward_overflows: int = 0
    #: PBPL reservations that latched onto an already-reserved slot
    #: (``w = 0``), and those that opened a fresh slot.
    slots_latched: int = 0
    slots_missed: int = 0
    #: PBPL dynamic resizes that grew, and that shrank, the buffer.
    resizes_up: int = 0
    resizes_down: int = 0
    #: Raw per-item response latencies, as C doubles: 8 bytes an item
    #: instead of a float object and a list slot.
    latencies: array = field(default_factory=lambda: array("d"))
    _lat_sum: float = 0.0
    _lat_max: float = 0.0
    _lat_n: int = 0
    #: Items that exceeded the configured max response latency.
    deadline_misses: int = 0
    #: Simulation time of the most recent deadline miss (recovery-time
    #: accounting); -inf until the first miss.
    last_miss_s: float = float("-inf")

    def record_latency(
        self,
        latency_s: float,
        deadline_s: float,
        now_s: float = None,
    ) -> None:
        self._lat_sum += latency_s
        self._lat_n += 1
        if latency_s > self._lat_max:
            self._lat_max = latency_s
        if latency_s > deadline_s:
            self.deadline_misses += 1
            if now_s is not None and now_s > self.last_miss_s:
                self.last_miss_s = now_s
        self.latencies.append(latency_s)

    @property
    def mean_latency_s(self) -> float:
        return self._lat_sum / self._lat_n if self._lat_n else 0.0

    @property
    def max_latency_s(self) -> float:
        return self._lat_max

    def latency_percentile(self, q: float) -> float:
        """Exact percentile ``q`` (0–100) of the raw latencies; 0 with none."""
        if not self.latencies:
            return 0.0
        return float(np.percentile(self.latencies, q))


def serve_batch(pair, core: "Core", batch) -> Generator:
    """Serve a drained ``batch`` on ``core``, which ``pair`` holds.

    The batch loop of BP, PBP/SPBP and PBPL, one generator frame for the
    whole batch: ``yield from serve_batch(pair, core, batch)``. Per item
    it is ``hold.busy(cost)`` inlined (same operations, same order),
    then the item's consumption and response latency go into
    ``pair.stats`` and ``pair.in_flight`` drops by one. The caller must
    have opened the hold with a ``busy(WAKE_CHECK_S)`` slice, which
    consumes its pending wake and context-switch cost, so a slice is
    plain ``cost / speedup``.

    The cost is ``config.service_time_s * pair.service_scale``, read per
    item because fault injectors change ``service_scale`` mid-run, unless
    ``pair`` defines an ``_item_cost_s(t)`` hook (pipeline stages do).
    """
    env = core.env
    timeout = env.timeout
    try_advance_at = env.try_advance_at
    speedup = core.pstates.speedup
    account_busy = core._account_busy
    owner = pair.owner
    stats = pair.stats
    record_latency = stats.record_latency
    config = pair.config
    deadline_s = config.max_response_latency_s
    service_time_s = config.service_time_s
    item_cost_s = getattr(pair, "_item_cost_s", None)
    for t in batch:
        cost = (
            service_time_s * pair.service_scale
            if item_cost_s is None
            else item_cost_s(t)
        )
        if not cost >= 0:
            raise SimulationError(f"cpu time {cost!r} is not >= 0")
        if not core._pstate_settled:
            core._reselect_pstate()
        duration = cost / speedup(core.pstate)
        if duration > 0 and not try_advance_at(env.now + duration):
            yield timeout(duration)
        account_busy(owner, duration)
        stats.consumed += 1
        record_latency(env.now - t, deadline_s, now_s=env.now)
        pair.in_flight -= 1
