"""Tests for per-process energy attribution (the PowerTop power column)."""

import pytest

from repro.cpu import CState, CStateTable, Core, PState, PStateTable
from repro.power import EnergyAttributor, EnergyLedger, PowerModel
from repro.sim import Environment


def make_rig(wakeup_energy_j=1e-3, idle_w=0.1):
    env = Environment()
    cstates = CStateTable(
        [CState("C1", 1, power_w=idle_w, exit_latency_s=0.0, min_residency_s=0.0)]
    )
    pstates = PStateTable([PState("p", 1e9, 1.0)])  # 1.0 W dynamic
    core = Core(env, 0, cstates, pstates, context_switch_s=0.0)
    model = PowerModel(
        capacitance_f=1e-9, static_active_w=0.0, wakeup_energy_j=wakeup_energy_j
    )
    ledger = EnergyLedger(env, model)
    core.add_listener(ledger)
    ledger.watch(core)
    attributor = ledger.add_sink(EnergyAttributor(ledger))
    core.add_listener(attributor)
    return env, core, model, attributor, ledger


def test_active_energy_attributed_to_executor():
    env, core, model, attributor, _ = make_rig(wakeup_energy_j=0.0)

    def task(env, owner, work):
        yield from core.execute(owner, work)

    env.process(task(env, "a", 2.0))
    env.process(task(env, "b", 1.0))
    env.run(until=10.0)
    report = attributor.report()
    assert report.owners["a"].active_j == pytest.approx(2.0)
    assert report.owners["b"].active_j == pytest.approx(1.0)
    assert report.owners["a"].busy_s == pytest.approx(2.0)


def test_wakeup_energy_attributed_to_waker():
    env, core, model, attributor, _ = make_rig(wakeup_energy_j=1e-3)

    def waker(env, owner, at):
        yield env.timeout(at)
        yield from core.execute(owner, 0.01)

    env.process(waker(env, "a", 1.0))
    env.process(waker(env, "b", 3.0))
    env.run(until=10.0)
    report = attributor.report()
    assert report.owners["a"].wakeups == 1
    assert report.owners["b"].wakeups == 1
    assert report.owners["a"].wakeup_j == pytest.approx(1e-3)


def test_latched_task_pays_no_wakeup():
    env, core, model, attributor, _ = make_rig(wakeup_energy_j=1e-3)

    def task(env, owner):
        yield from core.execute(owner, 0.5)

    env.process(task(env, "first"))
    env.process(task(env, "latcher"))  # queued while core active
    env.run()
    report = attributor.report()
    assert report.owners["first"].wakeups == 1
    assert "latcher" not in report.owners or report.owners["latcher"].wakeups == 0


def test_attribution_sums_to_ledger_total():
    """The invariant PowerTop only approximates: shares sum exactly."""
    env, core, model, attributor, ledger = make_rig()

    def task(env, owner, period, work):
        while True:
            yield env.timeout(period)
            yield from core.execute(owner, work, after_block=True)

    env.process(task(env, "a", 0.5, 0.05))
    env.process(task(env, "b", 0.8, 0.02))
    env.run(until=20.0)
    ledger.settle()
    report = attributor.report()
    assert report.total_j == pytest.approx(ledger.total_energy_j(), rel=1e-9)


def test_idle_energy_is_unattributed():
    env, core, model, attributor, _ = make_rig(idle_w=0.25)
    env.run(until=4.0)
    report = attributor.report()
    assert report.idle_j == pytest.approx(1.0)
    assert report.attributed_j == 0.0


def test_power_and_share_helpers():
    env, core, model, attributor, _ = make_rig(wakeup_energy_j=0.0)

    def task(env, owner, work):
        yield from core.execute(owner, work)

    env.process(task(env, "a", 3.0))
    env.process(task(env, "b", 1.0))
    env.run(until=10.0)
    report = attributor.report()
    assert report.power_w("a") == pytest.approx(0.3)
    assert report.share("a") == pytest.approx(0.75)
    assert report.share("ghost") == 0.0
    assert report.power_w("ghost") == 0.0


def test_top_ranks_by_total_energy():
    env, core, model, attributor, _ = make_rig(wakeup_energy_j=0.0)

    def task(env, owner, work):
        yield from core.execute(owner, work)

    for owner, work in (("small", 0.1), ("big", 2.0), ("mid", 0.5)):
        env.process(task(env, owner, work))
    env.run(until=10.0)
    top = attributor.report().top(2)
    assert [name for name, _ in top] == ["big", "mid"]


def test_reset_clears_window():
    env, core, model, attributor, _ = make_rig()

    def task(env):
        yield from core.execute("a", 1.0)

    env.process(task(env))
    env.run(until=2.0)
    attributor.reset()
    env.run(until=4.0)
    report = attributor.report()
    assert "a" not in report.owners
    assert report.duration_s == pytest.approx(2.0)


def test_empty_window_rejected():
    env, core, model, attributor, _ = make_rig()
    with pytest.raises(ValueError):
        attributor.report()


def test_attribution_through_pbpl_system():
    """Integration: attribute a heterogeneous PBPL run per consumer."""
    import numpy as np

    from repro.cpu import Machine
    from repro.core import PBPLConfig, PBPLSystem
    from repro.sim import RandomStreams
    from repro.workloads import poisson_trace

    env = Environment()
    streams = RandomStreams(seed=5)
    machine = Machine(env, n_cores=1, streams=streams)
    model = PowerModel()
    ledger = EnergyLedger(env, model)
    machine.add_listener(ledger)
    for core in machine.cores:
        ledger.watch(core)
    attributor = ledger.add_sink(EnergyAttributor(ledger))
    machine.add_listener(attributor)
    traces = [
        poisson_trace(4000.0, 2.0, streams.stream("hot")),
        poisson_trace(100.0, 2.0, streams.stream("cold")),
    ]
    PBPLSystem(env, machine, traces, PBPLConfig(slot_size_s=5e-3)).start()
    env.run(until=2.0)
    report = attributor.report()
    # The hot consumer is the hungrier one, by a wide margin.
    assert report.power_w("consumer-0") > 5 * report.power_w("consumer-1")
    assert report.attributed_j > 0
