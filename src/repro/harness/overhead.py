"""The ``metrics_overhead`` gate: what a live metrics registry costs.

The PBPL smoke (the golden-trace configuration) runs once with the
disabled default registry and once with an active
:class:`~repro.telemetry.registry.MetricsRegistry` plus a
:class:`~repro.telemetry.collectors.PowerCollector` view of the energy
ledger — the full instrumented hot path, no windows (window flushes
would add events and change the workload). Both runs process the same
events, so their wall-time ratio is the cost of live instrumentation.
``repro metrics overhead`` fails when it exceeds
:data:`METRICS_OVERHEAD_TOLERANCE`.
"""

from __future__ import annotations

import gc
import statistics
from typing import List, Optional, Tuple

from repro.core.system import PBPLSystem
from repro.harness.clock import perf_counter
from repro.harness.params import StandardParams
from repro.harness.runner import CONSUMER_CORE, Rig, base_trace
from repro.impls.multi import phase_shifted_traces
from repro.telemetry.collectors import PowerCollector
from repro.telemetry.registry import MetricsRegistry

#: Allowed slowdown of the PBPL smoke with an *active* metrics registry
#: vs the disabled default — the "disabled telemetry is free, enabled
#: telemetry is cheap" contract. Re-based from 5 % to 15 % with the
#: batched-kernel speedups (DESIGN.md §13), two effects stacked: (1) the
#: absolute instrumentation cost is unchanged (~0.3 µs per event of
#: pre-bound counter calls), but the kernel around it got ~1.8× faster,
#: so the same tax is mechanically a larger *fraction*; (2) the paired
#: median estimator still moves ±3–4 points run-to-run under sustained
#: load on a shared 1-cpu runner. 15 % = typical + noise margin: it
#: never flakes on a healthy tree, and still fails if a change doubles
#: the per-event tax. A ratio gate that never moves would punish
#: kernel speedups.
METRICS_OVERHEAD_TOLERANCE = 0.15

#: Simulated seconds per smoke run.
SMOKE_DURATION_S = 0.3

#: Null/active pairs per measurement: a single pair's overhead swings by
#: ±5 points on a shared box, so the median needs a real sample to hold
#: the verdict stable run to run.
PAIRS = 15


def _pbpl_smoke(
    metrics: Optional[MetricsRegistry], duration_s: float
) -> Tuple[float, int]:
    """One golden-configuration PBPL run (seed 2014, three pairs);
    returns ``(wall_s, events)``.

    With ``metrics`` the registry is threaded through the system and a
    power collector views the energy ledger; with ``None`` the system
    runs on the disabled default registry.
    """
    params = StandardParams(duration_s=duration_s, seed=2014)
    rig = Rig.build(params, 0)
    if metrics is not None:
        rig.ledger.add_sink(PowerCollector(metrics))
    traces = phase_shifted_traces(base_trace(params, 0), 3)
    PBPLSystem(
        rig.env,
        rig.machine,
        traces,
        params.pbpl_config(),
        consumer_cores=[CONSUMER_CORE],
        metrics=metrics,
    ).start()
    start = perf_counter()
    rig.env.run(until=params.duration_s)
    wall = perf_counter() - start
    return wall, rig.env.events_processed


def measure_metrics_overhead(
    duration_s: float = SMOKE_DURATION_S, pairs: int = PAIRS
) -> dict:
    """Paired null-vs-active measurement for the ``metrics_overhead`` gate.

    The null and active smokes run *interleaved* rather than as two
    independent blocks: on a noisy shared container the machine's speed
    drifts between blocks by more than the tolerance, so only a paired
    design can resolve the ratio. The statistic is the *median of
    per-pair overheads* — each pair runs back-to-back so its walls share
    the machine's momentary speed and the ratio cancels drift, and the
    median discards the odd pair where a scheduler hiccup landed on one
    side only. The pair order alternates (null-first, active-first, ...)
    so drift *within* a pair cancels across the sample, and each pair
    runs with the cyclic GC paused (collected between pairs) so a
    generational sweep cannot land inside one short wall.
    """
    overheads: List[float] = []
    null_events = active_events = 0
    for i in range(pairs):
        gc.collect()
        gc.disable()
        try:
            if i % 2 == 0:
                null_wall, null_events = _pbpl_smoke(None, duration_s)
                active_wall, active_events = _pbpl_smoke(MetricsRegistry(), duration_s)
            else:
                active_wall, active_events = _pbpl_smoke(MetricsRegistry(), duration_s)
                null_wall, null_events = _pbpl_smoke(None, duration_s)
        finally:
            gc.enable()
        overheads.append(1.0 - null_wall / active_wall)
    return {
        "pairs": pairs,
        "null_events": null_events,
        "active_events": active_events,
        "overhead_frac": statistics.median(overheads),
        "tolerance": METRICS_OVERHEAD_TOLERANCE,
    }
