"""The energy views audited against an independent integrator.

The ledger is the only production code that prices residency segments;
the trace spans, registry counters and attribution are folds over what
it hands out. The audit that keeps them honest lives here: a reference
integrator, written from scratch against :class:`PowerModel`, runs next
to the ledger on short randomised rigs. The ledger, the trace and the
registry must agree with it per core to 1e-9 J, and the attribution's
idle and wakeup shares machine-wide.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PBPLConfig, PBPLSystem
from repro.cpu import Machine
from repro.cpu.listeners import CoreListener
from repro.impls import MultiPairSystem, PCConfig
from repro.power import EnergyAttributor, EnergyLedger, PowerModel
from repro.sim import Environment, RandomStreams
from repro.telemetry import MetricsRegistry, PowerCollector
from repro.trace import TracePowerListener, TraceQuery, Tracer, core_track
from repro.trace.energy import energy_by_track
from repro.trace.power import RESIDENCY
from repro.workloads import poisson_trace

TOL_J = 1e-9
DURATION = 0.4
CONSUMER, BUSY, PARKED = 0, 1, 2


class ReferenceIntegrator(CoreListener):
    """Per-core joules from its own segments, priced with the model, plus
    the machine's idle and wakeup shares."""

    def __init__(self, env, model, cores):
        self.model = model
        self.joules = {core.core_id: 0.0 for core in cores}
        self.idle_j = self.wakeup_j = 0.0
        self._open = {core.core_id: self._segment(core, env.now) for core in cores}

    def _segment(self, core, now):
        return now, self.model.core_power_w(core), core.state == "active"

    def _close(self, core_id, now):
        since, power, active = self._open[core_id]
        self.joules[core_id] += power * (now - since)
        if not active:
            self.idle_j += power * (now - since)
        return power, active

    def on_state_change(self, core, now, old_state, new_state, cstate, pstate):
        self._close(core.core_id, now)
        self._open[core.core_id] = self._segment(core, now)

    def on_wakeup(self, core, now, owner, from_cstate):
        self.joules[core.core_id] += self.model.wakeup_energy_j
        self.wakeup_j += self.model.wakeup_energy_j

    def close(self, now):
        for core_id in self._open:
            self._open[core_id] = (now,) + self._close(core_id, now)


def build(seed):
    env = Environment()
    machine = Machine(env, n_cores=3, streams=RandomStreams(seed=seed))
    model = PowerModel()
    reference = ReferenceIntegrator(env, model, machine.cores)
    ledger = EnergyLedger(env, model)
    machine.add_listener(reference)
    machine.add_listener(ledger)
    for core in machine.cores:
        ledger.watch(core)
    return env, machine, model, reference, ledger


def attach_views(env, machine, ledger):
    """Trace, registry and attribution views; returns (tracer, registry,
    attributor, close) where ``close()`` ends the run's views."""
    tracer = Tracer(env)
    registry = MetricsRegistry()
    trace_view = ledger.add_sink(TracePowerListener(tracer))
    collector = ledger.add_sink(PowerCollector(registry))
    attributor = ledger.add_sink(EnergyAttributor(ledger))
    machine.add_listener(attributor)

    def close():
        ledger.remove_sink(trace_view)
        tracer.finalize()
        ledger.remove_sink(collector)

    return tracer, registry, attributor, close


def start_system(env, machine, impl, seed, n_pairs):
    streams = RandomStreams(seed=seed)
    traces = [
        poisson_trace(rate, DURATION, streams.stream(f"pair-{i}"))
        for i, rate in enumerate(np.linspace(300.0, 1500.0, n_pairs))
    ]
    if impl == "PBPL":
        PBPLSystem(
            env, machine, traces, PBPLConfig(slot_size_s=4e-3),
            consumer_cores=[CONSUMER],
        ).start()
    else:
        MultiPairSystem(
            env, machine, impl, traces, PCConfig(), consumer_cores=[CONSUMER]
        ).start()


def busy_work(env, core, period_s):
    while True:
        yield env.timeout(period_s)
        yield from core.execute("kworker", period_s / 7, after_block=True)


def park_at(env, core, t):
    yield env.timeout(t)
    core.park()


def snapshot_at(env, ledger, times):
    for t in times:
        yield env.timeout(max(0.0, t - env.now))
        ledger.energy_snapshot()


@given(
    impl=st.sampled_from(["Mutex", "Sem", "BP", "PBPL"]),
    seed=st.integers(0, 2**16),
    n_pairs=st.integers(1, 3),
    park_s=st.floats(0.0, DURATION * 0.9),
    snapshots=st.lists(st.floats(0.0, DURATION * 0.999), max_size=6).map(sorted),
)
@settings(max_examples=40, deadline=None)
def test_every_view_matches_the_reference_per_core(
    impl, seed, n_pairs, park_s, snapshots
):
    env, machine, model, reference, ledger = build(seed)
    tracer, registry, attributor, close = attach_views(env, machine, ledger)
    start_system(env, machine, impl, seed, n_pairs)
    env.process(busy_work(env, machine.core(BUSY), 7e-3))
    env.process(park_at(env, machine.core(PARKED), park_s))
    env.process(snapshot_at(env, ledger, snapshots))
    env.run(until=DURATION)

    reference.close(env.now)
    ledger.settle()
    attribution = attributor.report()
    close()
    by_track = energy_by_track(TraceQuery(tracer))
    snapshot = registry.snapshot()
    for core in machine.cores:
        expected = reference.joules[core.core_id]
        assert ledger.core_breakdown(core.core_id).total_j == pytest.approx(
            expected, abs=TOL_J
        )
        assert by_track[core_track(core.core_id)] == pytest.approx(expected, abs=TOL_J)
        assert snapshot.total(
            "energy_joules_total", core=str(core.core_id)
        ) == pytest.approx(expected, abs=TOL_J)
    # Attribution: idle and ω are exact; owners' slices cover the active
    # time except what no slice accounts for, so they never exceed it.
    assert attribution.idle_j == pytest.approx(reference.idle_j, abs=TOL_J)
    owners = attribution.owners.values()
    assert sum(o.wakeup_j for o in owners) == pytest.approx(
        reference.wakeup_j, abs=TOL_J
    )
    assert attribution.total_j <= sum(reference.joules.values()) + TOL_J
    # Idle floor: no core ever draws less than its deepest C-state.
    floor = sum(core.cstates.deepest.power_w * DURATION for core in machine.cores)
    assert ledger.total_energy_j() >= floor


def test_mid_run_snapshot_touches_no_view():
    """A settle splits the ledger's own sums, never the views' segments:
    the trace gains no residency span and no registry counter moves."""
    env, machine, model, reference, ledger = build(seed=3)
    tracer, registry, attributor, close = attach_views(env, machine, ledger)
    start_system(env, machine, "Sem", seed=3, n_pairs=2)
    env.run(until=0.1)
    events = list(tracer.events)
    before = registry.snapshot()

    ledger.energy_snapshot()

    assert tracer.events == events
    assert list(registry.snapshot().samples()) == list(before.samples())
    # Core 2 never changes state here, so two settles later it still
    # closes as one whole span.
    env.run(until=0.2)
    ledger.energy_snapshot()
    close()
    spans = TraceQuery(tracer).spans(category=RESIDENCY, track=core_track(PARKED))
    assert [(s.ts_s, s.end_s) for s in spans] == [(0.0, 0.2)]
