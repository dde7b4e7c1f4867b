"""Unit tests for events, processes, interrupts and condition events."""

import pytest

from repro.sim import Environment, Event, Interrupt, SimulationError
from repro.sim.errors import StopProcess


# -- bare events ---------------------------------------------------------


def test_event_lifecycle_flags():
    env = Environment()
    ev = env.event()
    assert not ev.triggered and not ev.processed
    ev.succeed(7)
    assert ev.triggered and not ev.processed
    env.step()
    assert ev.processed
    assert ev.value == 7
    assert ev.ok


def test_event_value_before_trigger_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.event().value


def test_double_succeed_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_succeed_after_fail_raises():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("x"))
    with pytest.raises(SimulationError):
        ev.succeed()


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_failed_event_value_is_the_exception():
    env = Environment()
    ev = env.event()
    exc = RuntimeError("x")
    ev.fail(exc)
    assert ev.value is exc
    assert not ev.ok
    with pytest.raises(RuntimeError):
        env.run()


# -- processes -----------------------------------------------------------


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_process_return_value_visible_to_waiter():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        return "payload"

    def parent(env):
        value = yield env.process(child(env))
        return value

    p = env.process(parent(env))
    assert env.run(until=p) == "payload"


def test_stop_process_exception_sets_return_value():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise StopProcess("early")

    p = env.process(child(env))
    assert env.run(until=p) == "early"


def test_process_is_alive_tracks_generator():
    env = Environment()

    def child(env):
        yield env.timeout(5.0)

    p = env.process(child(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_yielding_non_event_kills_process_with_simulation_error():
    env = Environment()

    def bad(env):
        yield 42

    p = env.process(bad(env))
    with pytest.raises(SimulationError, match="not an Event"):
        env.run(until=p)


def test_yielding_foreign_event_fails():
    env1, env2 = Environment(), Environment()

    def bad(env, other):
        yield other.timeout(1.0)

    p = env1.process(bad(env1, env2))
    with pytest.raises(SimulationError, match="different environment"):
        env1.run(until=p)


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    times = []

    def proc(env, ev):
        yield env.timeout(2.0)
        yield ev  # processed at t=0, must not block
        times.append(env.now)

    ev = env.event()
    ev.succeed("old")
    env.process(proc(env, ev))
    env.run()
    assert times == [2.0]


def test_two_processes_can_wait_on_one_event():
    env = Environment()
    got = []

    def waiter(env, ev, tag):
        value = yield ev
        got.append((tag, value, env.now))

    ev = env.event()
    env.process(waiter(env, ev, "a"))
    env.process(waiter(env, ev, "b"))

    def trigger(env, ev):
        yield env.timeout(4.0)
        ev.succeed("v")

    env.process(trigger(env, ev))
    env.run()
    assert got == [("a", "v", 4.0), ("b", "v", 4.0)]


# -- interrupts -----------------------------------------------------------


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def interrupter(env, victim):
        yield env.timeout(3.0)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(3.0, "wake up")]


def test_interrupted_process_can_keep_running():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(1.0)
        log.append(env.now)

    def interrupter(env, victim):
        yield env.timeout(3.0)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [4.0]


def test_interrupt_terminated_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    def late(env, victim):
        yield env.timeout(5.0)
        victim.interrupt()

    victim = env.process(quick(env))
    killer = env.process(late(env, victim))
    with pytest.raises(SimulationError, match="terminated"):
        env.run(until=killer)


def test_process_cannot_interrupt_itself():
    env = Environment()

    def selfish(env):
        yield env.timeout(0.0)
        env.active_process.interrupt()

    p = env.process(selfish(env))
    with pytest.raises(SimulationError, match="interrupt itself"):
        env.run(until=p)


def test_unhandled_interrupt_kills_process():
    env = Environment()

    def sleeper(env):
        yield env.timeout(100.0)

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt("bang")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    with pytest.raises(Interrupt):
        env.run()


# -- condition events -------------------------------------------------------


def test_any_of_triggers_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        result = yield env.any_of([t1, t2])
        return (env.now, list(result.values()))

    p = env.process(proc(env))
    assert env.run(until=p) == (1.0, ["fast"])


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(5.0, value="b")
        result = yield env.all_of([t1, t2])
        return (env.now, sorted(result.values()))

    p = env.process(proc(env))
    assert env.run(until=p) == (5.0, ["a", "b"])


def test_all_of_empty_list_triggers_immediately():
    env = Environment()

    def proc(env):
        result = yield env.all_of([])
        return result

    p = env.process(proc(env))
    assert env.run(until=p) == {}


def test_condition_fails_if_child_fails():
    env = Environment()

    def proc(env):
        ev = env.event()
        ev.fail(RuntimeError("child died"))
        with pytest.raises(RuntimeError, match="child died"):
            yield env.all_of([ev, env.timeout(1.0)])
        return "handled"

    p = env.process(proc(env))
    assert env.run(until=p) == "handled"


def test_any_of_with_already_processed_event():
    env = Environment()

    def proc(env):
        ev = env.event()
        ev.succeed("done")
        yield env.timeout(1.0)  # let ev get processed
        result = yield env.any_of([ev, env.timeout(10.0)])
        return (env.now, list(result.values()))

    p = env.process(proc(env))
    assert env.run(until=p) == (1.0, ["done"])


def test_interrupt_detaches_the_cached_resume():
    """An interrupted waiter leaves nothing behind on its old target:
    firing that target later must not resume the process again."""
    env = Environment()
    target = env.event()
    log = []

    def sleeper(env):
        try:
            yield target
        except Interrupt:
            log.append(("interrupted", env.now))
        value = yield env.timeout(5.0, "late")
        log.append((value, env.now))

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt()
        yield env.timeout(1.0)
        assert target.callbacks == []
        target.succeed("stale")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [("interrupted", 1.0), ("late", 6.0)]
    assert victim.ok
