"""Experiment runner: build a rig, run an implementation, measure.

This module is the reproduction's equivalent of the paper's lab bench:
it assembles the machine, instruments (energy ledger + PowerTop + the
scope), background kernel load, and the workload; runs one experiment;
and reports a :class:`~repro.metrics.run.RunMetrics`.

Power is reported the paper's way (§III-B): *extra* watts relative to a
baseline run in which the consumer core is parked and only the kernel
background is alive. Baselines are measured (not computed) and cached
per parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.system import PBPLSystem
from repro.cpu.machine import Machine
from repro.harness.background import BackgroundKernelLoad
from repro.harness.params import StandardParams
from repro.impls.base import PairStats
from repro.impls.multi import MultiPairSystem, phase_shifted_traces
from repro.impls.single import SINGLE_IMPLEMENTATIONS
from repro.metrics.run import RunMetrics
from repro.power.instruments import Oscilloscope, PowerTop
from repro.power.ledger import EnergyLedger
from repro.power.model import PowerModel
from repro.sim.environment import Environment
from repro.sim.rng import RandomStreams

#: The implementations evaluated in the multi-pair experiments (§VI-A).
MULTI_IMPLEMENTATIONS = ("Mutex", "Sem", "BP", "PBPL")

#: The §III single-pair study set, in the paper's figure order.
STUDY_IMPLEMENTATIONS = ("BW", "Yield", "Mutex", "Sem", "BP", "PBP", "SPBP")

#: Consumer core / background core on the two-core (Arndale-like) machine.
CONSUMER_CORE = 0
BACKGROUND_CORE = 1


@dataclass
class Rig:
    """A fully instrumented machine ready to host an experiment."""

    env: Environment
    machine: Machine
    model: PowerModel
    ledger: EnergyLedger
    powertop: PowerTop
    scope: Oscilloscope
    streams: RandomStreams

    @classmethod
    def build(
        cls,
        params: StandardParams,
        replicate: int,
        env: Optional[Environment] = None,
        n_cores: int = 2,
    ) -> "Rig":
        """Assemble a rig. ``env`` injects a pre-built environment (e.g.
        a SanitizingEnvironment); ``n_cores`` grows the machine past the
        default consumer+background pair (the core-failure scenarios
        need a second consumer core that can die)."""
        if n_cores < 2:
            raise ValueError("rig needs at least consumer + background cores")
        streams = RandomStreams(seed=params.seed, replicate=replicate)
        if env is None:
            env = Environment()
        machine = Machine(env, n_cores=n_cores, streams=streams)
        model = PowerModel()
        ledger = EnergyLedger(env, model)
        powertop = PowerTop(env)
        machine.add_listener(ledger)
        machine.add_listener(powertop)
        for core in machine.cores:
            ledger.watch(core)
        scope = Oscilloscope(env, ledger, model, streams.stream("scope"))
        rig = cls(env, machine, model, ledger, powertop, scope, streams)
        if params.background:
            BackgroundKernelLoad(
                env,
                machine.core(BACKGROUND_CORE),
                machine.timers,
                streams.stream("background"),
            ).start()
        return rig

    def measure_power_w(self, duration_s: float) -> Tuple[float, float]:
        """(noisy scope watts, exact ledger watts) over the whole run."""
        self.ledger.settle()
        true_w = self.ledger.average_power_w(duration_s)
        return self.scope.observe_window(true_w, duration_s).measured_w, true_w


# -- per-process memo caches ----------------------------------------------------
#
# Both caches are module-level on purpose: pool workers (see
# repro.harness.parallel) keep them warm across every task they run, so
# the workload trace is synthesized and the idle baseline measured once
# per *worker process*, not once per run. Entries are pure functions of
# their keys, so cross-task reuse cannot change any result.

_BASELINE_CACHE: Dict[Tuple, Tuple[float, float]] = {}

_TRACE_MEMO: Dict[Tuple, "Trace"] = {}


def base_trace(params: StandardParams, replicate: int):
    """The synthesized base workload for ``(params, replicate)``, memoized.

    Byte-identical to ``params.trace(rig.streams)``: the ``"trace"``
    stream is derived from ``(seed, replicate, name)`` alone, so a fresh
    :class:`RandomStreams` reproduces it exactly, and no other rig
    component draws from that stream. Callers never mutate the returned
    trace — phase shifting and fault perturbation both derive new
    :class:`~repro.workloads.trace.Trace` objects.
    """
    key = (
        params.seed,
        replicate,
        params.duration_s,
        params.mean_rate_per_s,
        params.flash_magnitude,
        params.flash_decay_fraction,
        params.micro_burst_cv,
    )
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        streams = RandomStreams(seed=params.seed, replicate=replicate)
        _TRACE_MEMO[key] = trace = params.trace(streams)
    return trace


def baseline_power_w(params: StandardParams, replicate: int) -> Tuple[float, float]:
    """Measured power of the machine with no experiment running.

    The consumer core is parked (a fully idle tickless core sits in its
    deepest state); the background kernel load runs if configured —
    matching the paper's "no background processes … except kernel
    tasks" baseline.
    """
    key = (params.seed, replicate, params.duration_s, params.background)
    if key not in _BASELINE_CACHE:
        rig = Rig.build(params, replicate)
        rig.machine.core(CONSUMER_CORE).park()
        rig.env.run(until=params.duration_s)
        _BASELINE_CACHE[key] = rig.measure_power_w(params.duration_s)
        rig.env.close()
    return _BASELINE_CACHE[key]


# -- metric extraction ---------------------------------------------------------


def _consumer_rows(powertop: PowerTop) -> Tuple[float, float]:
    """(wakeups/s, usage ms/s) summed over consumer-owned rows."""
    report = powertop.report()
    wakeups = sum(
        row.wakeups_per_s
        for owner, row in report.rows.items()
        if str(owner).startswith("consumer")
    )
    usage = sum(
        row.usage_ms_per_s
        for owner, row in report.rows.items()
        if str(owner).startswith("consumer")
    )
    return wakeups, usage


def _fill_metrics(
    name: str,
    params: StandardParams,
    replicate: int,
    rig: Rig,
    stats: PairStats,
    n_consumers: int,
    buffer_size: int,
    average_buffer: float,
    lost_signals: int = 0,
    watchdog_recoveries: int = 0,
) -> RunMetrics:
    duration = params.duration_s
    measured_w, true_w = rig.measure_power_w(duration)
    base_measured, base_true = baseline_power_w(params, replicate)
    wakeups, usage = _consumer_rows(rig.powertop)
    consumer_core_wakeups = rig.machine.core(CONSUMER_CORE).total_wakeups
    return RunMetrics(
        implementation=name,
        n_consumers=n_consumers,
        buffer_size=buffer_size,
        replicate=replicate,
        duration_s=duration,
        power_w=measured_w - base_measured,
        power_true_w=true_w - base_true,
        wakeups_per_s=wakeups,
        core_wakeups_per_s=consumer_core_wakeups / duration,
        usage_ms_per_s=usage,
        produced=stats.produced,
        consumed=stats.consumed,
        scheduled_wakeups=stats.scheduled_wakeups,
        overflow_wakeups=stats.overflow_wakeups,
        producer_overflows=stats.overflows,
        items_dropped=stats.items_shed,
        lost_signals=lost_signals,
        watchdog_recoveries=watchdog_recoveries,
        average_buffer_size=average_buffer,
        deadline_misses=stats.deadline_misses,
        mean_latency_s=stats.mean_latency_s,
        max_latency_s=stats.max_latency_s,
        p99_latency_s=stats.latency_percentile(99),
    )


# -- experiment entry points ------------------------------------------------------


def run_single_pair(
    name: str, params: StandardParams, replicate: int = 0
) -> RunMetrics:
    """One §III study run: one producer-consumer pair of ``name``."""
    if name not in SINGLE_IMPLEMENTATIONS:
        raise ValueError(f"unknown implementation {name!r}")
    rig = Rig.build(params, replicate)
    trace = base_trace(params, replicate)
    impl = SINGLE_IMPLEMENTATIONS[name](
        rig.env,
        rig.machine.core(CONSUMER_CORE),
        rig.machine.timers,
        trace,
        params.pc_config(),
        owner="consumer",
    ).start()
    rig.env.run(until=params.duration_s)
    metrics = _fill_metrics(
        name,
        params,
        replicate,
        rig,
        impl.stats,
        n_consumers=1,
        buffer_size=params.buffer_size,
        average_buffer=float(impl.buffer.capacity),
    )
    rig.env.close()
    return metrics


def run_multi(
    name: str,
    n_consumers: int,
    params: StandardParams,
    replicate: int = 0,
    buffer_size: Optional[int] = None,
    pbpl_overrides: Optional[dict] = None,
) -> RunMetrics:
    """One §VI evaluation run: ``n_consumers`` phase-shifted pairs."""
    if name != "PBPL" and name not in SINGLE_IMPLEMENTATIONS:
        raise ValueError(f"unknown implementation {name!r}")
    buf = params.buffer_size if buffer_size is None else buffer_size
    rig = Rig.build(params, replicate)
    traces = phase_shifted_traces(base_trace(params, replicate), n_consumers)
    if name == "PBPL":
        system = PBPLSystem(
            rig.env,
            rig.machine,
            traces,
            params.pbpl_config(buf, **(pbpl_overrides or {})),
            consumer_cores=[CONSUMER_CORE],
        ).start()
    else:
        system = MultiPairSystem(
            rig.env,
            rig.machine,
            name,
            traces,
            params.pc_config(buf),
            consumer_cores=[CONSUMER_CORE],
        ).start()
    rig.env.run(until=params.duration_s)
    average_buffer = system.average_buffer_capacity()
    metrics = _fill_metrics(
        name,
        params,
        replicate,
        rig,
        system.aggregate_stats(),
        n_consumers=n_consumers,
        buffer_size=buf,
        average_buffer=average_buffer,
        lost_signals=getattr(system, "lost_signals", 0),
        watchdog_recoveries=getattr(system, "watchdog_recoveries", 0),
    )
    rig.env.close()
    return metrics
