"""A NaN delay or CPU time is an error, not a silent end of the run.

``NaN < 0`` is False, so a ``delay < 0`` check lets NaN through. A NaN
timestamp in the heap breaks its order: ``queue[0][0] < stop_at`` goes
False and every later event is silently dropped. Each guard is written
``not x >= 0``, which also rejects NaN, and each raises a
:class:`SimulationError` that names the bad value.
"""

import math

import numpy as np
import pytest

from repro.core import PBPLConfig, PBPLSystem
from repro.cpu import Machine
from repro.sim import Environment, RandomStreams, SimulationError
from repro.sim.events import Timeout
from repro.workloads import Trace

NAN = float("nan")


def test_nan_timeout_raises_instead_of_ending_the_run():
    env = Environment()
    fired = []

    def parent(env):
        for delay in (0.5, 1.0):
            env.timeout(delay).callbacks.append(lambda e: fired.append(env.now))
        with pytest.raises(SimulationError, match="nan"):
            env.timeout(NAN)
        env.timeout(2.0).callbacks.append(lambda e: fired.append(env.now))
        yield env.timeout(0.0)

    env.process(parent(env))
    env.run()
    assert fired == [0.5, 1.0, 2.0]


def test_nan_schedule_raises():
    env = Environment()
    event = env.event()
    event._ok = True
    event._value = None
    with pytest.raises(SimulationError, match="nan"):
        env.schedule(event, delay=NAN)
    assert len(env) == 0


def test_nan_timeout_constructor_raises():
    env = Environment()
    with pytest.raises(SimulationError, match="nan"):
        Timeout(env, NAN)
    assert len(env) == 0


def test_nan_try_advance_raises():
    env = Environment()
    with pytest.raises(SimulationError, match="nan"):
        env.try_advance(NAN)
    assert env.now == 0.0


def test_run_until_nan_raises_and_keeps_the_clock():
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(SimulationError, match="nan"):
        env.run(until=NAN)
    assert env.now == 0.0
    env.run()
    assert env.now == 1.0


def _core():
    env = Environment()
    machine = Machine(env, n_cores=1, streams=RandomStreams(seed=0))
    return env, machine.core(0)


def test_nan_execute_raises():
    env, core = _core()
    errors = []

    def task():
        try:
            yield from core.execute("task", NAN)
        except SimulationError as exc:
            errors.append(str(exc))

    env.process(task())
    env.run()
    assert errors and "nan" in errors[0]
    assert core.total_busy_s == 0.0


def test_nan_busy_raises():
    env, core = _core()
    errors = []

    def task():
        hold = yield from core.acquire("task")
        try:
            yield from hold.busy(NAN)
        except SimulationError as exc:
            errors.append(str(exc))
        hold.release()

    env.process(task())
    env.run()
    assert errors and "nan" in errors[0]
    assert core.total_busy_s == 0.0


def test_nan_consumer_cost_raises():
    env = Environment()
    machine = Machine(env, n_cores=1, streams=RandomStreams(seed=0))
    trace = Trace(np.arange(0.001, 0.1, 0.001), 0.1, "regular")
    system = PBPLSystem(
        env, machine, [trace], PBPLConfig(buffer_size=25, slot_size_s=5e-3)
    ).start()
    consumer = system.consumers[0]
    consumer.service_scale = NAN
    with pytest.raises(SimulationError, match="nan"):
        env.run(until=0.1)
    assert consumer.stats.consumed == 0
    assert not math.isnan(machine.core(0).total_busy_s)
