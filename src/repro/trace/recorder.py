"""Record an event trace from any implementation / scenario.

One entry point, :func:`record_run`, builds a fully instrumented rig
(the same :class:`~repro.harness.runner.Rig` the figures use), attaches
a :class:`~repro.trace.tracer.Tracer` plus the power view of the rig's
energy ledger, runs the
chosen implementation under the chosen scenario, and returns the trace
together with the exact ledger totals — so callers (the ``repro trace``
CLI, the determinism tests, the smoke gate) can export and reconcile
without re-deriving any wiring.

Scenarios:

* ``"clean"`` — the standard paper workload, no faults;
* ``"webserver"`` — the §I motivating case: a day-compressed HTTP log
  with flash crowds, split across the consumers;
* any chaos scenario name (``"stall"``, ``"lost-signals"``, ...) — the
  corresponding :class:`~repro.faults.chaos.ChaosScenario` fault plan
  on the standard workload, with the degradation features armed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.system import PBPLSystem
from repro.faults.chaos import DEFAULT_SCENARIOS
from repro.faults.injectors import RuntimeInjector, perturb_traces
from repro.faults.spec import FaultPlan
from repro.harness.params import StandardParams
from repro.harness.runner import CONSUMER_CORE, Rig
from repro.impls.base import PairStats
from repro.impls.multi import MultiPairSystem, phase_shifted_traces
from repro.pipeline import (
    STOCK_TOPOLOGIES,
    BaselinePipelineSystem,
    PipelineSystem,
)
from repro.telemetry.collectors import PowerCollector
from repro.telemetry.window import TumblingWindows, WindowFrame
from repro.trace.power import TracePowerListener
from repro.trace.stream import StreamingTraceWriter
from repro.trace.tracer import Tracer
from repro.workloads.edge import edge_telemetry_trace
from repro.workloads.generators import worldcup_like_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.profiler import KernelProfiler
    from repro.telemetry.registry import MetricsRegistry

#: Track hosting fault-window spans.
FAULT_TRACK = "faults"

_CHAOS_BY_NAME = {s.name: s for s in DEFAULT_SCENARIOS}

#: Every scenario name ``record_run`` accepts.
SCENARIOS = ("webserver",) + tuple(_CHAOS_BY_NAME)


@dataclass
class RecordedRun:
    """A finished, finalized trace run plus its ground-truth totals."""

    tracer: Tracer
    impl: str
    scenario: str
    seed: int
    duration_s: float
    n_consumers: int
    #: Exact machine joules from the energy ledger (the reconciliation
    #: reference for the trace's per-span energies).
    ledger_total_j: float
    stats: PairStats
    #: Wakeups of the consumer core over the run.
    consumer_core_wakeups: int
    #: The metrics registry threaded through the run (None when the
    #: caller left telemetry off — the zero-cost default).
    metrics: Optional["MetricsRegistry"] = None
    #: Tumbling-window frames (empty unless ``window_s`` was given).
    frames: List[WindowFrame] = field(default_factory=list)


def _fault_plan(scenario: str, duration_s: float, n_consumers: int) -> FaultPlan:
    if scenario in ("clean", "webserver"):
        return FaultPlan()
    try:
        chaos = _CHAOS_BY_NAME[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    return chaos.build(duration_s, n_consumers)


def record_run(
    impl: str = "PBPL",
    scenario: str = "webserver",
    *,
    duration_s: float = 2.0,
    n_consumers: int = 4,
    seed: int = 2014,
    buffer_size: Optional[int] = None,
    capacity: int = 1_000_000,
    config_overrides: Optional[Dict] = None,
    stream: Optional["StreamingTraceWriter"] = None,
    metrics: Optional["MetricsRegistry"] = None,
    window_s: Optional[float] = None,
    profiler: Optional["KernelProfiler"] = None,
) -> RecordedRun:
    """Run ``impl`` under ``scenario`` with the tracer attached.

    ``stream`` (a :class:`~repro.trace.stream.StreamingTraceWriter`) is
    attached as a tracer sink *before* any event fires, so the JSONL
    file receives every event even when the run overflows the ring
    buffer. The caller closes the writer (the footer wants the ledger
    total, which only exists after the run).

    ``metrics`` threads a :class:`~repro.telemetry.registry.
    MetricsRegistry` through the whole rig (instrumented kernel objects
    plus a :class:`~repro.telemetry.collectors.PowerCollector` view of
    the energy ledger); ``window_s`` additionally arms tumbling-window
    aggregation, and ``profiler`` (a :class:`~repro.telemetry.profiler.
    KernelProfiler`) drives the run through the self-profiling event
    loop instead of ``env.run``.
    """
    params = StandardParams(duration_s=duration_s, seed=seed)
    plan = _fault_plan(scenario, duration_s, n_consumers)
    chaos = _CHAOS_BY_NAME.get(scenario)
    cores = list(chaos.consumer_cores) if chaos else [CONSUMER_CORE]
    rig = Rig.build(
        params, replicate=0, n_cores=chaos.n_cores if chaos else 2
    )
    tracer = Tracer(rig.env, capacity=capacity)
    if stream is not None:
        stream.attach(tracer)
    # The trace's power spans and the registry's energy counters are
    # both views of the rig's ledger: it closes each segment once and
    # hands it to them, so they price nothing themselves.
    power_listener = rig.ledger.add_sink(TracePowerListener(tracer))
    collector = None
    windows = None
    if metrics is not None:
        collector = rig.ledger.add_sink(PowerCollector(metrics))
        if window_s is not None:
            windows = TumblingWindows(rig.env, metrics, window_s).start()

    # Pipeline scenarios trace a stage DAG instead of independent pairs
    # (same workload/system wiring as repro.faults.chaos.run_scenario).
    topology = (
        STOCK_TOPOLOGIES[chaos.topology] if chaos and chaos.topology else None
    )
    if scenario == "webserver":
        base = worldcup_like_trace(
            params.mean_rate_per_s,
            duration_s,
            rig.streams.stream("http-log"),
            n_flash_crowds=2,
            flash_magnitude=5.0,
            diurnal_depth=0.5,
        )
    elif topology is not None:
        base = edge_telemetry_trace(
            params.mean_rate_per_s, duration_s, rig.streams.stream("edge")
        )
    else:
        base = params.trace(rig.streams)
    if topology is not None:
        n_consumers = len(topology.consumer_stages())
        traces = phase_shifted_traces(base, len(topology.sources()))
    else:
        traces = phase_shifted_traces(base, n_consumers)
    traces = perturb_traces(traces, plan, rig.streams.stream("chaos"))

    buf = params.buffer_size if buffer_size is None else buffer_size
    if impl == "PBPL":
        overrides = dict(overflow_policy="shed-to-deadline", harden_predictor=True)
        overrides.update((chaos.config_overrides or {}) if chaos else {})
        overrides.update(config_overrides or {})
        if topology is not None:
            system = PipelineSystem(
                rig.env,
                rig.machine,
                topology,
                traces,
                params.pbpl_config(buf, **overrides),
                consumer_cores=cores,
                tracer=tracer,
                metrics=metrics,
            ).start()
        else:
            system = PBPLSystem(
                rig.env,
                rig.machine,
                traces,
                params.pbpl_config(buf, **overrides),
                consumer_cores=cores,
                tracer=tracer,
                metrics=metrics,
            ).start()
    elif topology is not None:
        system = BaselinePipelineSystem(
            rig.env,
            rig.machine,
            impl,
            topology,
            traces,
            params.pc_config(buf),
            consumer_cores=cores,
        ).start()
    else:
        system = MultiPairSystem(
            rig.env,
            rig.machine,
            impl,
            traces,
            params.pc_config(buf),
            consumer_cores=cores,
        ).start()

    # Trace faults were applied by rewriting the workload before the
    # run; their windows are still real events on the fault timeline.
    for fault in plan.trace_faults:
        tracer.complete(
            FAULT_TRACK,
            type(fault).__name__,
            fault.start_s,
            min(fault.start_s + fault.duration_s, duration_s),
            "fault",
            detail=fault.describe(),
        )
    if plan.runtime_faults:
        RuntimeInjector(rig.env, system, plan, tracer=tracer).start()

    if profiler is not None:
        profiler.run(rig.env, until=duration_s)
    else:
        rig.env.run(until=duration_s)
    # The trace's last spans must land before finalize() closes it; the
    # registry's tail comes after the final window frame, which (like
    # every frame) holds only segments closed by real transitions.
    rig.ledger.remove_sink(power_listener)
    tracer.finalize()
    rig.ledger.settle()
    if windows is not None:
        windows.finalize(rig.env.now)
    if collector is not None:
        rig.ledger.remove_sink(collector)

    run = RecordedRun(
        tracer=tracer,
        impl=impl,
        scenario=scenario,
        seed=seed,
        duration_s=duration_s,
        n_consumers=n_consumers,
        ledger_total_j=rig.ledger.total_energy_j(),
        stats=system.aggregate_stats(),
        consumer_core_wakeups=rig.machine.core(CONSUMER_CORE).total_wakeups,
        metrics=metrics,
        frames=list(windows.frames) if windows is not None else [],
    )
    rig.env.close()
    return run
