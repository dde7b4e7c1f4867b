"""``Environment.try_advance`` is an exact shortcut for a lone Timeout.

A process writes ``if not env.try_advance(d): yield env.timeout(d)``.
The shortcut may only fire when the Timeout would have been the very
next event dispatched and the process its only waiter, so every run
must be the same with it as without it. The unit tests pin each refusal
condition; the hypothesis test runs random process mixes under
:class:`Environment` and under :class:`HeapOnly`, a subclass whose
``try_advance_at`` always refuses, and requires identical logs, event
counts and final clocks.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import CState, CStateTable, Core, PState, PStateTable
from repro.sim import Environment, Interrupt, SimulationError
from repro.sim.events import NORMAL, URGENT


class HeapOnly(Environment):
    """Every slice makes its heap round trip through a Timeout."""

    def try_advance_at(self, when, eid=None):
        return False


def slice_(env, delay):
    if not env.try_advance(delay):
        yield env.timeout(delay)


# -- unit tests ----------------------------------------------------------------


def test_advances_in_place_when_nothing_else_is_due():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(1.0)
        seen.append(env.try_advance(0.5))
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [True, 1.5]
    # Initialize + timeout + the advanced slice + the process's end.
    assert env.events_processed == 4


def test_takes_the_eid_the_timeout_would_have_taken():
    fast, heap = Environment(), HeapOnly()
    for env in (fast, heap):

        def proc(env=env):
            yield from slice_(env, 1.0)
            env.timeout(1.0)

        env.process(proc())
        env.run()
    assert next(fast._eid) == next(heap._eid)
    assert fast.events_processed == heap.events_processed


def test_refuses_outside_run():
    env = Environment()
    assert env.try_advance(1.0) is False
    assert env.now == 0.0


def test_refuses_under_step():
    env = Environment()
    seen = []

    def proc():
        seen.append(env.try_advance(1.0))
        yield env.timeout(0.0)

    env.process(proc())
    env.step()
    assert seen == [False]


def test_refuses_an_equal_or_earlier_queued_time():
    env = Environment()
    seen = []

    def other():
        yield env.timeout(1.0)

    def proc():
        seen.append(env.try_advance(1.0))  # ties with other's timeout
        seen.append(env.try_advance(2.0))  # other's timeout comes first
        seen.append(env.try_advance(0.5))
        yield env.timeout(0.0)

    env.process(other())
    env.process(proc())
    env.run()
    assert seen == [False, False, True]


def test_refuses_at_or_past_the_stop_time():
    env = Environment()
    seen = []

    def proc():
        seen.append(env.try_advance(1.0))
        seen.append(env.try_advance(0.999))
        yield env.timeout(0.0)

    env.process(proc())
    env.run(until=1.0)
    assert seen == [False, True]
    assert env.now == 1.0


def test_refuses_when_another_callback_follows():
    env = Environment()
    ev = env.event()
    seen = []

    def waiter():
        yield ev
        seen.append(env.try_advance(1.0))

    def trigger():
        yield env.timeout(1.0)
        ev.callbacks.append(lambda e: seen.append("hook"))
        ev.succeed()
        yield env.timeout(5.0)

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert seen == [False, "hook"]


def test_refuses_outside_a_process():
    env = Environment()
    seen = []
    env.timeout(1.0).callbacks.append(lambda e: seen.append(env.try_advance(1.0)))
    env.run()
    assert seen == [False]


def test_sees_events_the_process_itself_just_scheduled():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(1.0)
        env.event().succeed()
        seen.append(env.try_advance(0.0))
        seen.append(env.try_advance(1.0))

    env.process(proc())
    env.run()
    assert seen == [False, False]


# -- the reserved-eid form ---------------------------------------------------------


def reserved_wait(env, when, eid, seen):
    """A wait whose eid was taken earlier: in place, else a heap wake."""
    advanced = env.try_advance_at(when, eid)
    seen.append(advanced)
    if not advanced:
        yield env.timeout_at(when, eid)


def _queued(env, delay, priority=NORMAL):
    event = env.event()
    event._ok = True
    event._value = None
    env.schedule(event, delay, priority)
    return event


def test_reserved_wait_passes_an_equal_time_entry_with_a_higher_eid():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(0.0)
        eid = next(env._eid)
        env.timeout(1.0)  # the same instant, scheduled after the reservation
        yield from reserved_wait(env, 1.0, eid, seen)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [True, 1.0]


def test_reserved_wait_yields_to_an_equal_time_entry_with_a_lower_eid():
    env = Environment()
    order = []

    def other():
        yield env.timeout(1.0)
        order.append("other")

    def proc():
        yield env.timeout(0.0)
        env.process(other())  # its Timeout is queued at 1.0 first ...
        yield env.timeout(0.0)
        eid = next(env._eid)  # ... so it sorts before this reservation
        seen = []
        yield from reserved_wait(env, 1.0, eid, seen)
        order.append(("proc", seen))

    env.process(proc())
    env.run()
    assert order == ["other", ("proc", [False])]


def test_reserved_wait_yields_to_an_urgent_entry_at_the_same_instant():
    env = Environment()
    order = []

    def proc():
        yield env.timeout(0.0)
        eid = next(env._eid)
        # Queued after the reservation, but URGENT sorts first.
        _queued(env, 1.0, URGENT).callbacks.append(lambda e: order.append("urgent"))
        seen = []
        yield from reserved_wait(env, 1.0, eid, seen)
        order.append(("proc", seen))

    env.process(proc())
    env.run()
    assert order == ["urgent", ("proc", [False])]


def test_reserved_wait_refuses_at_the_stop_time():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(0.0)
        yield from reserved_wait(env, 0.5, next(env._eid), seen)
        yield from reserved_wait(env, 1.0, next(env._eid), seen)
        seen.append(env.now)

    env.process(proc())
    env.run(until=1.0)
    assert seen == [True, False]
    assert env.now == 1.0
    env.run()
    assert seen == [True, False, 1.0]


def test_reserved_wait_refuses_a_time_in_the_past():
    env = Environment(initial_time=2.0)
    with pytest.raises(SimulationError):
        env.try_advance_at(1.0, next(env._eid))
    with pytest.raises(SimulationError):
        env.timeout_at(math.nan, next(env._eid))


def _reserved_program(env, log):
    """Waits on reserved eids, with equal-time competitors around them."""

    def competitor(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    seen = []

    def proc():
        yield env.timeout(0.0)
        eid = next(env._eid)
        env.process(competitor("after", 1.0))
        yield from reserved_wait(env, 1.0, eid, seen)
        log.append((env.now, "proc"))
        yield env.timeout(1.0)  # past the competitors and their ends
        eid = next(env._eid)
        yield from reserved_wait(env, 2.5, eid, seen)
        log.append((env.now, "proc"))

    env.process(competitor("before", 1.0))
    env.process(proc())
    return seen


def test_instrumented_loops_never_arm_the_reserved_wait():
    from repro.analysis.sanitizer import SanitizingEnvironment
    from repro.telemetry.profiler import KernelProfiler

    runs = {}
    for name in ("plain", "sanitized", "profiled"):
        env = SanitizingEnvironment() if name == "sanitized" else Environment()
        log = []
        seen = _reserved_program(env, log)
        if name == "profiled":
            KernelProfiler().run(env)
        else:
            env.run()
        runs[name] = (log, env.events_processed, env.now, next(env._eid), seen)
    assert runs["plain"][4] == [False, True]
    for name in ("sanitized", "profiled"):
        assert runs[name][4] == [False, False]  # both fall back to the heap
        assert runs[name][:4] == runs["plain"][:4]


def test_reserved_waits_take_the_eids_the_timeouts_would_have_taken():
    """The reserved form, in place or on the heap, leaves the same eid
    stream, dispatch order and event count as plain Timeouts."""
    delays = [0.0, 0.5, 0.5, 0.0, 0.25, 1.0, 0.0]

    def run(env, reserved):
        log = []

        def rival():
            for delay in delays:
                yield env.timeout(delay)
                log.append((env.now, "rival"))

        def proc():
            for delay in delays:
                if reserved:
                    when = env.now + delay
                    yield from reserved_wait(env, when, next(env._eid), [])
                else:
                    yield env.timeout(delay)
                log.append((env.now, "proc"))

        env.process(proc())
        env.process(rival())
        env.run()
        return log, env.events_processed, next(env._eid)

    plain = run(Environment(), reserved=False)
    assert run(Environment(), reserved=True) == plain
    assert run(HeapOnly(), reserved=True) == plain


# -- equivalence on random process mixes -----------------------------------------

#: Delays on a coarse grid, so equal-time ties are common; 0.1 + 0.2
#: versus 0.3 keeps float rounding in play.
DELAY = st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0])
CPU = st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5])

OP = st.one_of(
    st.tuples(st.just("slice"), DELAY),
    st.tuples(st.just("busy"), st.lists(CPU, min_size=1, max_size=4)),
    st.tuples(st.just("execute"), CPU),
    # Listed twice: several waiters on one event is the case where only
    # the last one may advance in place.
    st.tuples(st.just("wait"), st.integers(0, 1)),
    st.tuples(st.just("wait"), st.integers(0, 1)),
    st.tuples(st.just("fire"), st.integers(0, 1)),
    st.tuples(st.just("any_of"), st.integers(0, 1), DELAY),
    st.tuples(st.just("interrupt"), st.integers(0, 5)),
    st.tuples(st.just("hook"), st.integers(0, 1)),
)

MIX = st.lists(st.lists(OP, max_size=8), min_size=1, max_size=6)


def run_mix(env, programs, cuts):
    """Run ``programs`` on ``env``; returns everything observable."""
    log = []
    cstates = CStateTable(
        [CState("C1", 1, power_w=0.1, exit_latency_s=0.05, min_residency_s=0.1)]
    )
    pstates = PStateTable([PState("slow", 5e8, 0.9), PState("fast", 1e9, 1.1)])
    core = Core(env, 0, cstates, pstates, context_switch_s=0.05)
    shared = [env.event() for _ in range(2)]
    procs = []

    def program(name, ops):
        for step, op in enumerate(ops):
            kind = op[0]
            try:
                if kind == "slice":
                    yield from slice_(env, op[1])
                elif kind == "busy":
                    hold = yield from core.acquire(name)
                    for cpu in op[1]:
                        yield from hold.busy(cpu)
                    hold.release()
                elif kind == "execute":
                    yield from core.execute(name, op[1], after_block=True)
                elif kind == "wait":
                    yield shared[op[1]]
                elif kind == "fire":
                    if not shared[op[1]].triggered:
                        shared[op[1]].succeed(step)
                elif kind == "any_of":
                    yield env.any_of([shared[op[1]], env.timeout(op[2])])
                elif kind == "interrupt":
                    target = procs[op[1] % len(procs)]
                    if target.is_alive and target is not env.active_process:
                        target.interrupt(name)
                elif kind == "hook":
                    ev = shared[op[1]]
                    if ev.callbacks is not None:
                        ev.callbacks.append(
                            lambda e, n=name, s=step: log.append(
                                (env.now, n, s, "hook")
                            )
                        )
            except Interrupt as exc:
                log.append((env.now, name, step, "interrupted", exc.cause))
                continue
            log.append((env.now, name, step))

    for i, ops in enumerate(programs):
        # A closing slice keeps a process from ending at the instant of
        # its last step, which would queue its own end there and hide
        # most chances for the shortcut.
        procs.append(env.process(program(f"p{i}", ops + [("slice", 1.0)])))
    for until in cuts:
        if until >= env.now:
            env.run(until=until)
            log.append(("cut", env.now))
    env.run()
    return log, env.events_processed, env.now, core.total_busy_s


def slice_ends(programs):
    """The times at which steps end in an unshortened run."""
    log, _events, _now, _busy = run_mix(HeapOnly(), programs, [])
    return sorted({entry[0] for entry in log})


@settings(max_examples=400, deadline=None)
@given(
    programs=MIX,
    picks=st.lists(st.tuples(st.integers(0, 50), st.booleans()), max_size=3),
)
def test_same_run_with_and_without_the_shortcut(programs, picks):
    ends = slice_ends(programs)
    cuts = []
    for index, after in picks:
        if ends:
            t = ends[index % len(ends)]
            # Exactly on a slice end, or the next float after it.
            cuts.append(math.nextafter(t, math.inf) if after else t)
    cuts.sort()
    fast = run_mix(Environment(), programs, cuts)
    assert fast == run_mix(HeapOnly(), programs, cuts)


class Counting(Environment):
    """Counts the slices that advanced in place."""

    hits = 0

    def try_advance_at(self, *args):
        advanced = super().try_advance_at(*args)
        self.hits += advanced
        return advanced


def test_the_shortcut_fires_on_busy_chains():
    env = Counting()
    programs = [[("busy", [0.1, 0.25, 0.5]), ("slice", 0.3)]]
    assert run_mix(env, programs, []) == run_mix(HeapOnly(), programs, [])
    # Nothing else is ever queued, so all five slices (the closing one
    # included) advance in place.
    assert env.hits == 5
