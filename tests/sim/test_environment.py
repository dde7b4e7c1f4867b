"""Unit tests for the DES environment: clock, queue, run loop."""

import pytest

from repro.sim import Environment, SimulationError


def test_initial_time_defaults_to_zero():
    assert Environment().now == 0.0


def test_initial_time_configurable():
    assert Environment(initial_time=5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.5)

    env.process(proc(env))
    env.run()
    assert env.now == 3.5


def test_run_until_number_stops_clock_there():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_number_excludes_events_at_boundary():
    env = Environment()
    fired = []

    def proc(env):
        yield env.timeout(10.0)
        fired.append(env.now)

    env.process(proc(env))
    env.run(until=10.0)
    assert fired == []  # events *at* the boundary do not run


def test_run_until_past_raises():
    env = Environment(initial_time=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "done"

    p = env.process(proc(env))
    assert env.run(until=p) == "done"
    assert env.now == 2.0


def test_run_until_event_already_processed_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 42

    p = env.process(proc(env))
    env.run()
    assert env.run(until=p) == 42


def test_run_until_untriggered_event_with_empty_schedule_raises():
    env = Environment()
    pending = env.event()
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=pending)


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    env.timeout(3.0)
    assert env.peek() == 3.0


def test_peek_empty_is_inf():
    assert Environment().peek() == float("inf")


def test_len_counts_queued_events():
    env = Environment()
    env.timeout(1.0)
    env.timeout(2.0)
    assert len(env) == 2


def test_step_on_empty_schedule_raises():
    with pytest.raises(SimulationError):
        Environment().step()


def test_negative_timeout_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_same_time_events_run_in_schedule_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in "abc":
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_unhandled_process_failure_propagates_from_run():
    env = Environment()

    def boom(env):
        yield env.timeout(1.0)
        raise ValueError("kaput")

    env.process(boom(env))
    with pytest.raises(ValueError, match="kaput"):
        env.run()


def test_failure_handled_by_waiter_does_not_propagate():
    env = Environment()
    seen = []

    def boom(env):
        yield env.timeout(1.0)
        raise ValueError("kaput")

    def watcher(env, child):
        try:
            yield child
        except ValueError as exc:
            seen.append(str(exc))

    child = env.process(boom(env))
    env.process(watcher(env, child))
    env.run()
    assert seen == ["kaput"]


def test_clock_is_monotonic_across_many_processes():
    env = Environment()
    stamps = []

    def proc(env, delay):
        yield env.timeout(delay)
        stamps.append(env.now)
        yield env.timeout(delay)
        stamps.append(env.now)

    for delay in (3.0, 1.0, 2.0, 0.5):
        env.process(proc(env, delay))
    env.run()
    assert stamps == sorted(stamps)


def test_close_frees_suspended_processes_without_the_collector():
    import gc
    import weakref

    env = Environment()

    class Waiter:
        def __init__(self):
            self.wake = env.event()
            self.other = env.event()

        def run(self):
            # A pending any_of and a suspended frame holding self: both
            # used to be cycles only the collector could free.
            yield env.any_of([self.wake, self.other])

    waiter = Waiter()
    env.process(waiter.run())

    def sleeper():
        yield env.timeout(10.0)

    env.process(sleeper())
    env.run(until=1.0)
    refs = [weakref.ref(env), weakref.ref(waiter)]
    del waiter
    gc.collect()
    gc.disable()
    try:
        env.close()
        del env
        alive = [ref for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert alive == []
