"""Unit tests for the Machine container."""

import pytest

from repro.cpu import CoreListener, Machine, OndemandGovernor, PARKED
from repro.sim import Environment, RandomStreams, SimulationError


def test_machine_default_two_cores():
    env = Environment()
    machine = Machine(env)
    assert machine.n_cores == 2
    assert machine.core(0).core_id == 0
    assert machine.core(1).core_id == 1


def test_machine_core_bounds_checked():
    env = Environment()
    machine = Machine(env, n_cores=2)
    with pytest.raises(SimulationError):
        machine.core(2)
    with pytest.raises(SimulationError):
        machine.core(-1)


def test_machine_needs_a_core():
    with pytest.raises(SimulationError):
        Machine(Environment(), n_cores=0)


def test_machine_wide_counters_aggregate():
    env = Environment()
    machine = Machine(env, n_cores=2)

    def task(env, core):
        yield from core.execute("t", 1e-3)

    env.process(task(env, machine.core(0)))
    env.process(task(env, machine.core(1)))
    env.run()
    assert machine.total_wakeups == 2
    assert machine.total_busy_s > 0


def test_add_listener_reaches_all_cores():
    env = Environment()
    machine = Machine(env, n_cores=3)

    class Counter(CoreListener):
        def __init__(self):
            self.wakeups = 0

        def on_wakeup(self, core, now, owner, from_cstate):
            self.wakeups += 1

    counter = Counter()
    machine.add_listener(counter)

    def task(env, core):
        yield from core.execute("t", 1e-3)

    for i in range(3):
        env.process(task(env, machine.core(i)))
    env.run()
    assert counter.wakeups == 3


def test_park_unused_cores():
    env = Environment()
    machine = Machine(env, n_cores=4)
    machine.park_unused([0, 1])
    assert machine.core(0).state != PARKED
    assert machine.core(1).state != PARKED
    assert machine.core(2).state == PARKED
    assert machine.core(3).state == PARKED


def test_custom_governor_factory_applied():
    env = Environment()
    machine = Machine(env, governor_factory=OndemandGovernor)
    assert all(isinstance(c.governor, OndemandGovernor) for c in machine.cores)


def test_machine_timer_jitter_reproducible_with_seed():
    def run_once():
        env = Environment()
        machine = Machine(env, streams=RandomStreams(seed=99))
        return machine.timers.nanosleep_lateness()

    assert run_once() == run_once()
