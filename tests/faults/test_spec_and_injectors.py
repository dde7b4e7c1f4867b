"""Fault specs, plan partitioning, and runtime injector toggles."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.buffers.pool import GlobalBufferPool
from repro.cpu import Machine
from repro.faults import (
    BurstStorm,
    ClockDrift,
    ConsumerSlowdown,
    FaultPlan,
    LostSignals,
    PoolContention,
    ProducerStall,
    RuntimeInjector,
    perturb_traces,
)
from repro.sim import Environment, RandomStreams
from repro.workloads import poisson_trace


# -- plan -----------------------------------------------------------------------


def test_plan_partitions_trace_and_runtime_faults():
    plan = FaultPlan(
        [
            ProducerStall(0.1, 0.2),
            LostSignals(0.3, 0.1, prob=0.5),
            BurstStorm(0.5, 0.1, factor=2.0),
            ClockDrift(0.0, 1.0, rate=0.01),
        ]
    )
    assert [type(f).__name__ for f in plan.trace_faults] == [
        "ProducerStall",
        "BurstStorm",
    ]
    assert [type(f).__name__ for f in plan.runtime_faults] == [
        "LostSignals",
        "ClockDrift",
    ]
    assert len(plan) == 4 and bool(plan)
    assert plan.windows()[0] == (0.0, 1.0)
    assert plan.last_fault_end_s == pytest.approx(1.0)


def test_empty_plan_is_falsy_with_no_windows():
    plan = FaultPlan()
    assert not plan
    assert plan.windows() == []
    assert plan.last_fault_end_s == float("-inf")


def test_plan_rejects_bad_windows():
    with pytest.raises(ValueError, match="positive"):
        FaultPlan([ProducerStall(0.1, 0.0)])
    with pytest.raises(ValueError, match="t=0"):
        FaultPlan([LostSignals(-0.1, 0.2, prob=0.5)])


def test_every_fault_describes_itself():
    plan = FaultPlan(
        [
            ProducerStall(0.1, 0.2, consumer=1, drop=True),
            BurstStorm(0.5, 0.1, factor=2.0),
            LostSignals(0.3, 0.1, prob=0.5),
            ClockDrift(0.0, 1.0, rate=0.01),
            ConsumerSlowdown(0.2, 0.2, factor=3.0, consumer=0),
            PoolContention(0.4, 0.2, slots=10),
        ]
    )
    lines = plan.describe()
    assert len(lines) == len(plan)
    assert all(isinstance(line, str) and line for line in lines)


# -- trace application ----------------------------------------------------------


def test_perturb_traces_targets_one_consumer():
    rng = np.random.default_rng(3)
    traces = [poisson_trace(200.0, 1.0, np.random.default_rng(s)) for s in (1, 2)]
    plan = FaultPlan([ProducerStall(0.2, 0.3, consumer=1)])
    out = perturb_traces(traces, plan, rng)
    np.testing.assert_array_equal(out[0].times, traces[0].times)
    assert not np.array_equal(out[1].times, traces[1].times)


def test_perturb_traces_rejects_out_of_range_target():
    rng = np.random.default_rng(3)
    traces = [poisson_trace(200.0, 1.0, np.random.default_rng(1))]
    plan = FaultPlan([BurstStorm(0.2, 0.3, factor=2.0, consumer=5)])
    with pytest.raises(ValueError, match="consumer 5"):
        perturb_traces(traces, plan, rng)


# -- runtime application --------------------------------------------------------


def make_live_system(env):
    """The minimal shape RuntimeInjector drives: machine.timers,
    consumers with a service_scale, and the global pool."""
    machine = Machine(env, n_cores=1, streams=RandomStreams(seed=0))
    consumers = [SimpleNamespace(service_scale=1.0) for _ in range(2)]
    pool = GlobalBufferPool(base_allocation=10, n_consumers=2)
    # A shrunken buffer returns slots to the pool — those free slots are
    # what a contention fault steals.
    pool.register("consumer-0").set_capacity(4)
    pool.register("consumer-1")
    return SimpleNamespace(machine=machine, consumers=consumers, pool=pool)


def sample_at(env, times, read):
    out = {}

    def probe(env):
        for t in sorted(times):
            if env.now < t:
                yield env.timeout(t - env.now)
            out[t] = read()

    env.process(probe(env))
    return out


def test_injector_toggles_signal_loss_inside_the_window():
    env = Environment()
    system = make_live_system(env)
    plan = FaultPlan([LostSignals(0.2, 0.3, prob=0.7)])
    RuntimeInjector(env, system, plan).start()
    seen = sample_at(
        env, [0.1, 0.35, 0.6], lambda: system.machine.timers.signal_loss_prob
    )
    env.run(until=1.0)
    assert seen[0.1] == 0.0
    assert seen[0.35] == pytest.approx(0.7)
    assert seen[0.6] == 0.0


def test_injector_composes_overlapping_drift_additively():
    env = Environment()
    system = make_live_system(env)
    plan = FaultPlan(
        [ClockDrift(0.1, 0.4, rate=0.02), ClockDrift(0.3, 0.4, rate=0.03)]
    )
    RuntimeInjector(env, system, plan).start()
    seen = sample_at(
        env, [0.2, 0.4, 0.6, 0.8], lambda: system.machine.timers.clock_drift_rate
    )
    env.run(until=1.0)
    assert seen[0.2] == pytest.approx(0.02)
    assert seen[0.4] == pytest.approx(0.05)
    assert seen[0.6] == pytest.approx(0.03)
    assert seen[0.8] == pytest.approx(0.0)


def test_injector_scales_and_restores_consumer_service():
    env = Environment()
    system = make_live_system(env)
    plan = FaultPlan([ConsumerSlowdown(0.2, 0.3, factor=4.0, consumer=1)])
    RuntimeInjector(env, system, plan).start()
    seen = sample_at(
        env,
        [0.35, 0.8],
        lambda: (system.consumers[0].service_scale, system.consumers[1].service_scale),
    )
    env.run(until=1.0)
    assert seen[0.35] == (1.0, pytest.approx(4.0))
    assert seen[0.8] == (1.0, pytest.approx(1.0))


def test_injector_withholds_and_restores_pool_slots():
    env = Environment()
    system = make_live_system(env)
    before = system.pool.total_slots
    plan = FaultPlan([PoolContention(0.2, 0.3, slots=10**6)])
    injector = RuntimeInjector(env, system, plan).start()
    seen = sample_at(env, [0.35, 0.8], lambda: system.pool.total_slots)
    env.run(until=1.0)
    assert seen[0.35] < before  # all free slots gone during the window
    assert seen[0.8] == before  # and back afterwards
    assert system.pool.contention_events == 1
    assert system.pool.slots_withheld == 0
    assert len(injector.events) == 2  # inject + lift
