"""The chaos harness: a deterministic fault-scenario matrix over PBPL.

Each :class:`ChaosScenario` names a :class:`~repro.faults.spec.
FaultPlan` builder; :func:`run_chaos` runs every scenario on a fresh
instrumented rig with the degradation features armed (shed-to-deadline
overflow policy, hardened predictor, watchdog at its default grace) and
scores it into a :class:`~repro.metrics.resilience.ResilienceMetrics`.
The result renders as a markdown resilience report.

Everything is a pure function of ``(seed, duration, consumers)``: trace
synthesis and burst extras come from named RNG streams, fault windows
are duration fractions, and power is read from the exact energy ledger
(not the noisy scope) — so the same seed yields a byte-identical
report, which is what makes the report diffable in CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.injectors import RuntimeInjector, perturb_traces
from repro.faults.spec import (
    BurstStorm,
    ClockDrift,
    ConsumerSlowdown,
    CoreFailure,
    FaultPlan,
    LostSignals,
    PoolContention,
    ProducerStall,
    TriggeredFault,
    WindowTrigger,
)
from repro.harness.params import StandardParams
from repro.harness.parallel import ParallelExecutor
from repro.harness.runner import CONSUMER_CORE, Rig, base_trace
from repro.impls.multi import MultiPairSystem, phase_shifted_traces
from repro.metrics.resilience import ConsumerResilience, ResilienceMetrics
from repro.core.system import PBPLSystem
from repro.pipeline import BaselinePipelineSystem, PipelineSystem, STOCK_TOPOLOGIES
from repro.telemetry.collectors import PowerCollector
from repro.telemetry.export import to_openmetrics
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.edge import edge_telemetry_trace

#: Baseline implementations the comparative chaos run scores against
#: PBPL (the blocking and batching families from the paper's study set;
#: the spinners never sleep, so fault scenarios tell us nothing new).
BASELINE_IMPLS: Tuple[str, ...] = ("Mutex", "Sem", "BP", "SPBP")


@dataclass(frozen=True)
class ChaosScenario:
    """A named fault composition, windows expressed as run fractions."""

    name: str
    summary: str
    #: ``build(duration_s, n_consumers) -> FaultPlan``.
    build: Callable[[float, int], FaultPlan]
    #: Scenario-mandated PBPL config overrides (e.g. the core-kill
    #: scenario pins ``overflow_policy="block"`` so zero loss is part of
    #: what it proves). Caller overrides still win.
    config_overrides: Optional[Dict[str, object]] = None
    #: Core ids hosting consumers, round-robin (the core-kill scenario
    #: spreads consumers over two manager cores so one can die).
    consumer_cores: Tuple[int, ...] = (CONSUMER_CORE,)
    #: Machine size the scenario needs (the default rig is 2 cores:
    #: consumers + background).
    n_cores: int = 2
    #: Run the faults against a pipeline topology (a
    #: :data:`~repro.pipeline.topology.STOCK_TOPOLOGIES` name) instead
    #: of ``n_consumers`` independent pairs. The workload becomes the
    #: edge-telemetry feed and the latency bound scales with the
    #: topology's depth (each stage guarantees ``L + Δ``).
    topology: Optional[str] = None


def _clean(T: float, M: int) -> FaultPlan:
    return FaultPlan()


def _stall(T: float, M: int) -> FaultPlan:
    return FaultPlan([ProducerStall(start_s=0.25 * T, duration_s=0.15 * T)])


def _lost_signals(T: float, M: int) -> FaultPlan:
    return FaultPlan([LostSignals(start_s=0.20 * T, duration_s=0.30 * T, prob=0.5)])


def _burst(T: float, M: int) -> FaultPlan:
    return FaultPlan([BurstStorm(start_s=0.40 * T, duration_s=0.15 * T, factor=3.0)])


def _drift(T: float, M: int) -> FaultPlan:
    return FaultPlan([ClockDrift(start_s=0.20 * T, duration_s=0.40 * T, rate=0.05)])


def _slowdown(T: float, M: int) -> FaultPlan:
    return FaultPlan(
        [ConsumerSlowdown(start_s=0.30 * T, duration_s=0.20 * T, factor=3.0)]
    )


def _contention(T: float, M: int) -> FaultPlan:
    # Withhold every free slot: buffers keep their floor but cannot grow.
    return FaultPlan(
        [PoolContention(start_s=0.30 * T, duration_s=0.30 * T, slots=10**6)]
    )


def _core_kill(T: float, M: int) -> FaultPlan:
    """Fail-stop core 2's manager mid-run; its consumers migrate to
    core 0. The outage is scored to the end of the run (the kill is
    permanent)."""
    return FaultPlan([CoreFailure(start_s=0.35 * T, duration_s=0.65 * T, core=2)])


def _cascade(T: float, M: int) -> FaultPlan:
    """Declarative cascade: a burst storm whose window end triggers a
    consumer slowdown (the 'recovery work makes everything slower'
    pattern) — timing is a pure function of the plan."""
    return FaultPlan(
        [
            BurstStorm(start_s=0.25 * T, duration_s=0.15 * T, factor=3.0),
            TriggeredFault(
                ConsumerSlowdown(start_s=0.0, duration_s=0.25 * T, factor=3.0),
                WindowTrigger(source=0, edge="end"),
            ),
        ]
    )


def _combined(T: float, M: int) -> FaultPlan:
    """The acceptance gauntlet: stall, then lost signals, then a storm."""
    return FaultPlan(
        [
            ProducerStall(start_s=0.15 * T, duration_s=0.10 * T),
            LostSignals(start_s=0.35 * T, duration_s=0.20 * T, prob=0.6),
            BurstStorm(start_s=0.65 * T, duration_s=0.10 * T, factor=2.5),
        ]
    )


#: The full matrix, clean run first (the control row).
DEFAULT_SCENARIOS: Tuple[ChaosScenario, ...] = (
    ChaosScenario("clean", "no faults (control)", _clean),
    ChaosScenario("stall", "all producers silent, backlog deferred", _stall),
    ChaosScenario("lost-signals", "50% of slot timers swallowed", _lost_signals),
    ChaosScenario("burst", "3× arrival storm on every producer", _burst),
    ChaosScenario("clock-drift", "+5% timer clock drift", _drift),
    ChaosScenario("slowdown", "3× consumer service time", _slowdown),
    ChaosScenario("contention", "all free pool slots withheld", _contention),
    ChaosScenario("combined", "stall → lost signals → burst storm", _combined),
    ChaosScenario(
        "core-kill",
        "core 2's manager fail-stops; consumers migrate to core 0",
        _core_kill,
        config_overrides={"overflow_policy": "block"},
        consumer_cores=(0, 2),
        n_cores=3,
    ),
    ChaosScenario(
        "cascade",
        "3× burst storm; 3× slowdown triggered at its window end",
        _cascade,
    ),
    ChaosScenario(
        "pipeline-clean",
        "3-stage telemetry pipeline, no faults (control)",
        _clean,
        topology="telemetry",
    ),
    ChaosScenario(
        "pipeline-burst",
        "3× MQTT storm into the telemetry pipeline",
        _burst,
        topology="telemetry",
    ),
    ChaosScenario(
        "pipeline-diamond",
        "aggregate fan-in/fan-out under 3× stage slowdown",
        _slowdown,
        topology="aggregate",
    ),
)

#: The CI gate: control plus the three acceptance faults, composed.
SMOKE_SCENARIOS: Tuple[ChaosScenario, ...] = tuple(
    s for s in DEFAULT_SCENARIOS if s.name in ("clean", "lost-signals", "combined")
)


# -- power under faults ---------------------------------------------------------


def _merged_windows(plan: FaultPlan, duration_s: float) -> List[Tuple[float, float]]:
    """Fault windows clipped to the run, overlaps coalesced (so joules
    inside two overlapping windows are charged once)."""
    merged: List[Tuple[float, float]] = []
    for start, end in plan.windows():
        start, end = max(0.0, start), min(end, duration_s)
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class PowerProbe:
    """Samples cumulative ledger energy at fault-window edges.

    Differencing exact-energy samples gives mean power inside the fault
    windows with zero measurement noise — the report must be
    deterministic, so the noisy scope is the wrong instrument here.
    """

    def __init__(self, rig: Rig, plan: FaultPlan, duration_s: float) -> None:
        self.rig = rig
        self.duration_s = duration_s
        self.windows = _merged_windows(plan, duration_s)
        self._samples: Dict[float, float] = {}

    def start(self) -> "PowerProbe":
        for t in sorted({t for w in self.windows for t in w}):
            if t < self.duration_s:  # run(until) never reaches t == end
                self.rig.env.process(self._sample_at(t), name=f"power-probe-{t:g}")
        return self

    def _sample_at(self, t: float):
        if self.rig.env.now < t:
            yield self.rig.env.timeout(t - self.rig.env.now)
        self._samples[t] = self.rig.ledger.energy_snapshot()

    def power_under_faults_w(self) -> Optional[float]:
        """Mean watts inside the fault windows (None without faults).
        Call after the run; edges at the run's end read final energy."""
        if not self.windows:
            return None
        final = self.rig.ledger.energy_snapshot()
        joules = sum(
            self._samples.get(end, final) - self._samples.get(start, final)
            for start, end in self.windows
        )
        seconds = sum(end - start for start, end in self.windows)
        return joules / seconds


# -- one scenario, one rig ------------------------------------------------------


def run_scenario(
    scenario: ChaosScenario,
    params: StandardParams,
    n_consumers: int,
    replicate: int = 0,
    config_overrides: Optional[dict] = None,
    impl: str = "PBPL",
    env=None,
    metrics: Optional[MetricsRegistry] = None,
) -> ResilienceMetrics:
    """Run one fault scenario on a fresh rig and score it.

    ``impl`` selects the system under test: ``"PBPL"`` (with the
    degradation features armed) or any baseline registry name — the
    same fault plan then drives a :class:`MultiPairSystem`, which is
    what makes the report's degradation columns comparable.
    ``env`` injects a pre-built environment (the sanitizer uses this).
    ``metrics`` threads a registry through the system under test (PBPL
    only — baselines carry no instruments) plus a power collector over
    every core; None keeps every site on the zero-cost null path.
    """
    plan = scenario.build(params.duration_s, n_consumers)
    rig = Rig.build(params, replicate, env=env, n_cores=scenario.n_cores)
    topology = (
        STOCK_TOPOLOGIES[scenario.topology] if scenario.topology else None
    )
    if topology is not None:
        # Pipeline scenarios run the edge-telemetry feed, one trace per
        # source stage (phase-shifted like independent pairs would be).
        feed = edge_telemetry_trace(
            params.mean_rate_per_s, params.duration_s, rig.streams.stream("edge")
        )
        traces = phase_shifted_traces(feed, len(topology.sources()))
        depth = topology.depth
    else:
        traces = phase_shifted_traces(base_trace(params, replicate), n_consumers)
        depth = 1
    traces = perturb_traces(traces, plan, rig.streams.stream("chaos"))
    cores = list(scenario.consumer_cores)
    collector = None
    if metrics is not None:
        collector = rig.ledger.add_sink(PowerCollector(metrics))

    if impl == "PBPL":
        overrides = dict(
            overflow_policy="shed-to-deadline",
            harden_predictor=True,
        )
        overrides.update(scenario.config_overrides or {})
        overrides.update(config_overrides or {})
        config = params.pbpl_config(**overrides)
        if topology is not None:
            system = PipelineSystem(
                rig.env, rig.machine, topology, traces, config,
                consumer_cores=cores, metrics=metrics,
            ).start()
        else:
            system = PBPLSystem(
                rig.env, rig.machine, traces, config, consumer_cores=cores,
                metrics=metrics,
            ).start()
        slot_s = config.effective_slot_size()
    else:
        config = params.pc_config()
        if topology is not None:
            system = BaselinePipelineSystem(
                rig.env,
                rig.machine,
                impl,
                topology,
                traces,
                config,
                consumer_cores=cores,
            ).start()
        else:
            system = MultiPairSystem(
                rig.env,
                rig.machine,
                impl,
                traces,
                config,
                consumer_cores=cores,
            ).start()
        # Baselines have no slot grid; their wake granularity (hence
        # the Δ term of the bound they are held to) is the batch period.
        slot_s = config.batch_period_s
    RuntimeInjector(rig.env, system, plan).start()
    probe = PowerProbe(rig, plan, params.duration_s).start()
    rig.env.run(until=params.duration_s)

    stats = system.aggregate_stats()
    rig.ledger.settle()
    if collector is not None:
        rig.ledger.remove_sink(collector)
    if plan and stats.last_miss_s > float("-inf"):
        last_end = min(plan.last_fault_end_s, params.duration_s)
        recovery_s = max(0.0, stats.last_miss_s - last_end)
    else:
        recovery_s = 0.0
    pool = getattr(system, "pool", None)
    migrations = list(getattr(system, "migrations", []))
    moved = {
        m.owner: (rep, m) for rep in migrations for m in rep.consumers
    }
    per_consumer = []
    for c in system.pairs:
        row = ConsumerResilience(
            owner=c.owner,
            produced=c.stats.produced,
            consumed=c.stats.consumed,
            items_shed=c.stats.items_shed,
            buffered=len(c.buffer) + c.in_flight,
            deadline_misses=c.stats.deadline_misses,
            max_latency_s=c.stats.max_latency_s,
        )
        if c.owner in moved:
            rep, m = moved[c.owner]
            row.migrated = True
            row.migration_energy_j = m.energy_j
            if m.recovered_s is not None:
                row.migration_recovery_s = m.recovered_s - rep.at_s
        per_consumer.append(row)
    recoveries = [rep.recovery_s for rep in migrations]
    result = ResilienceMetrics(
        scenario=scenario.name,
        impl=impl,
        duration_s=params.duration_s,
        # A depth-k pipeline is held to k·(L + Δ): every stage
        # guarantees L + Δ from the item's hand-off, and hand-off ages
        # compound along the longest path.
        max_response_latency_s=(
            config.max_response_latency_s * depth + slot_s * (depth - 1)
        ),
        slot_size_s=slot_s,
        topology=scenario.topology,
        backpressure_stalls=getattr(system, "backpressure_stalls", 0),
        produced=stats.produced,
        consumed=stats.consumed,
        items_shed=stats.items_shed,
        buffered=system.buffered_items(),
        deadline_misses=stats.deadline_misses,
        max_latency_s=stats.max_latency_s,
        lost_signals=getattr(system, "lost_signals", 0),
        watchdog_recoveries=getattr(system, "watchdog_recoveries", 0),
        overflow_wakeups=stats.overflow_wakeups,
        scheduled_wakeups=stats.scheduled_wakeups,
        recovery_time_s=recovery_s,
        power_w=rig.ledger.average_power_w(params.duration_s),
        power_under_faults_w=probe.power_under_faults_w(),
        pool_contention_events=pool.contention_events if pool else 0,
        predictor_clamps=getattr(system, "predictor_clamps", 0),
        predictor_reconvergences=getattr(system, "predictor_reconvergences", 0),
        cores_failed=len(migrations),
        consumers_migrated=sum(len(rep.consumers) for rep in migrations),
        migration_relatches=sum(rep.relatch_count for rep in migrations),
        migration_latched=sum(rep.latched_count for rep in migrations),
        migration_energy_j=sum(rep.energy_j for rep in migrations),
        migration_recovery_s=(
            max(recoveries)
            if recoveries and all(r is not None for r in recoveries)
            else None
        ),
        migration_unrecovered=sum(rep.unrecovered for rep in migrations),
        per_consumer=per_consumer,
        notes=plan.describe(),
    )
    rig.env.close()
    return result


# -- the report -----------------------------------------------------------------


@dataclass
class ChaosReport:
    """Every scenario's resilience metrics, renderable as markdown."""

    seed: int
    duration_s: float
    n_consumers: int
    results: List[ResilienceMetrics] = field(default_factory=list)
    #: Baseline rows (impl != "PBPL") for the comparative degradation
    #: table. Kept out of ``results`` so ``passed`` keeps gating PBPL
    #: only — a baseline VIOLATING under faults is the expected finding,
    #: not a regression.
    baselines: List[ResilienceMetrics] = field(default_factory=list)
    #: Per-scenario OpenMetrics text (PBPL cells, populated only when
    #: ``run_chaos(collect_metrics=True)``). Deliberately excluded from
    #: :meth:`to_json` — the scored report stays byte-identical whether
    #: or not telemetry artifacts were collected alongside it.
    metrics_artifacts: Dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """No PBPL scenario leaked items or served anything past
        ``L + Δ`` without shedding (baseline rows are informational)."""
        return all(r.verdict in ("OK", "SHED") for r in self.results)

    def render(self) -> str:
        lines = [
            "# Resilience report",
            "",
            f"- seed {self.seed}, {self.duration_s:g} s, "
            f"{self.n_consumers} consumers",
            "- policy: shed-to-deadline overflow, hardened predictor, "
            "watchdog grace Δ",
            "",
            "| scenario | verdict | produced | consumed | shed | buffered "
            "| misses | max lat (ms) | bound (ms) | lost | recovered "
            "| recovery (ms) | power (mW) | power@fault (mW) |",
            "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|",
        ]
        for r in self.results:
            fault_mw = (
                "—"
                if r.power_under_faults_w is None
                else f"{r.power_under_faults_w * 1000:.1f}"
            )
            lines.append(
                f"| {r.scenario} | {r.verdict} | {r.produced} | {r.consumed} "
                f"| {r.items_shed} | {r.buffered} | {r.deadline_misses} "
                f"| {r.max_latency_s * 1000:.2f} | {r.latency_bound_s * 1000:.2f} "
                f"| {r.lost_signals} | {r.watchdog_recoveries} "
                f"| {r.recovery_time_s * 1000:.2f} | {r.power_w * 1000:.1f} "
                f"| {fault_mw} |"
            )
        if any(r.per_consumer for r in self.results):
            lines += [
                "",
                "## Worst consumer per scenario",
                "",
                "| scenario | worst | misses | max lat (ms) | shed "
                "| conserved | clamps | reconverged |",
                "|---|---|---|---|---|---|---|---|",
            ]
            for r in self.results:
                worst = r.worst_consumer
                if worst is None:
                    continue
                lines.append(
                    f"| {r.scenario} | {worst.owner} | {worst.deadline_misses} "
                    f"| {worst.max_latency_s * 1000:.2f} | {worst.items_shed} "
                    f"| {'yes' if worst.conservation_ok else 'NO'} "
                    f"| {r.predictor_clamps} | {r.predictor_reconvergences} |"
                )
        if any(r.cores_failed for r in self.results):
            lines += [
                "",
                "## Core failure & migration",
                "",
                "| scenario | cores failed | migrated | relatched | latched "
                "| energy (µJ) | recovery (ms) | unrecovered |",
                "|---|---|---|---|---|---|---|---|",
            ]
            for r in self.results:
                if not r.cores_failed:
                    continue
                recovery = (
                    "—"
                    if r.migration_recovery_s is None
                    else f"{r.migration_recovery_s * 1000:.2f}"
                )
                lines.append(
                    f"| {r.scenario} | {r.cores_failed} "
                    f"| {r.consumers_migrated} | {r.migration_relatches} "
                    f"| {r.migration_latched} "
                    f"| {r.migration_energy_j * 1e6:.1f} | {recovery} "
                    f"| {r.migration_unrecovered} |"
                )
            lines += [
                "",
                "| scenario | consumer | energy (µJ) | recovery (ms) |",
                "|---|---|---|---|",
            ]
            for r in self.results:
                for c in r.per_consumer:
                    if not c.migrated:
                        continue
                    recovery = (
                        "—"
                        if c.migration_recovery_s is None
                        else f"{c.migration_recovery_s * 1000:.2f}"
                    )
                    lines.append(
                        f"| {r.scenario} | {c.owner} "
                        f"| {c.migration_energy_j * 1e6:.1f} | {recovery} |"
                    )
        if any(r.topology for r in self.results):
            lines += [
                "",
                "## Pipeline topologies",
                "",
                "| scenario | topology | verdict | backpressure stalls "
                "| bound (ms) |",
                "|---|---|---|---|---|",
            ]
            for r in self.results:
                if not r.topology:
                    continue
                lines.append(
                    f"| {r.scenario} | {r.topology} | {r.verdict} "
                    f"| {r.backpressure_stalls} "
                    f"| {r.latency_bound_s * 1000:.2f} |"
                )
        if self.baselines:
            lines += [
                "",
                "## Baseline degradation (same fault plans)",
                "",
                "| scenario | impl | verdict | misses | max lat (ms) "
                "| bound (ms) | shed | power (mW) |",
                "|---|---|---|---|---|---|---|---|",
            ]
            by_scenario: Dict[str, List[ResilienceMetrics]] = {}
            for r in self.results + self.baselines:
                by_scenario.setdefault(r.scenario, []).append(r)
            for scenario, rows in by_scenario.items():
                for r in rows:
                    lines.append(
                        f"| {scenario} | {r.impl} | {r.verdict} "
                        f"| {r.deadline_misses} "
                        f"| {r.max_latency_s * 1000:.2f} "
                        f"| {r.latency_bound_s * 1000:.2f} "
                        f"| {r.items_shed} | {r.power_w * 1000:.1f} |"
                    )
        lines += ["", "## Injected faults", ""]
        for r in self.results:
            lines.append(f"- **{r.scenario}**")
            if r.notes:
                lines.extend(f"  - {note}" for note in r.notes)
            else:
                lines.append("  - none (control run)")
        lines += [
            "",
            "Conservation (`produced = consumed + shed + buffered`) and the "
            f"latency bound `L + Δ` hold in every row: "
            f"**{'yes' if self.passed else 'NO'}**.",
        ]
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "duration_s": self.duration_s,
                "n_consumers": self.n_consumers,
                "passed": self.passed,
                "scenarios": [r.to_dict() for r in self.results],
                "baselines": [r.to_dict() for r in self.baselines],
            },
            indent=2,
            sort_keys=True,
        )


def _scenario_task(task):
    """Pool-side wrapper for one (scenario, impl) cell — module-level so
    the :class:`ParallelExecutor` can pickle it by reference.

    Returns ``(ResilienceMetrics, openmetrics_text_or_None)``; the
    exposition text (not the registry) crosses the process boundary, so
    parallel artifact collection stays byte-identical to serial.
    """
    scenario, params, n_consumers, config_overrides, impl, collect = task
    metrics = (
        MetricsRegistry(
            const_labels={"impl": impl, "scenario": scenario.name}
        )
        if collect
        else None
    )
    result = run_scenario(
        scenario,
        params,
        n_consumers,
        config_overrides=config_overrides,
        impl=impl,
        metrics=metrics,
    )
    prom = to_openmetrics(metrics.snapshot()) if metrics is not None else None
    return result, prom


def run_chaos(
    scenarios: Optional[Sequence[ChaosScenario]] = None,
    *,
    seed: int = 2014,
    duration_s: float = 3.0,
    n_consumers: int = 4,
    config_overrides: Optional[dict] = None,
    baseline_impls: Sequence[str] = (),
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
    collect_metrics: bool = False,
) -> ChaosReport:
    """Run the scenario matrix and assemble the resilience report.

    ``baseline_impls`` additionally scores each scenario against those
    registry implementations (e.g. :data:`BASELINE_IMPLS`) for the
    comparative degradation table; baseline verdicts never affect
    ``passed``.

    ``jobs`` fans the scenario × implementation cells out across worker
    processes (``None`` → ``$REPRO_JOBS`` → serial). Every cell is a
    pure function of ``(seed, duration, consumers)`` on a fresh rig, so
    the assembled report — results in dispatch order, progress printed
    at dispatch — is byte-identical to a serial run.

    ``collect_metrics`` additionally snapshots each PBPL cell's
    telemetry registry as OpenMetrics text into
    :attr:`ChaosReport.metrics_artifacts` (the per-scenario ``.prom``
    artifact the CI metrics job uploads). The scored report itself is
    unchanged by collection.
    """
    scenarios = tuple(scenarios) if scenarios is not None else DEFAULT_SCENARIOS
    params = StandardParams(duration_s=duration_s, seed=seed)
    report = ChaosReport(seed=seed, duration_s=duration_s, n_consumers=n_consumers)
    tasks, labels, is_baseline = [], [], []
    for scenario in scenarios:
        tasks.append(
            (
                scenario,
                params,
                n_consumers,
                config_overrides,
                "PBPL",
                collect_metrics,
            )
        )
        labels.append(f"chaos: {scenario.name} — {scenario.summary}")
        is_baseline.append(False)
        for impl in baseline_impls:
            tasks.append((scenario, params, n_consumers, None, impl, False))
            labels.append(f"chaos: {scenario.name} × {impl}")
            is_baseline.append(True)
    metrics = ParallelExecutor(jobs).map(
        _scenario_task, tasks, labels=labels, progress=progress
    )
    for baseline, (result, prom) in zip(is_baseline, metrics):
        (report.baselines if baseline else report.results).append(result)
        if prom is not None:
            report.metrics_artifacts[result.scenario] = prom
    return report
