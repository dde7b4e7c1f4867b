"""``Core.execute`` is the hold composition, flattened into one frame.

``execute`` inlines ``acquire`` → ``hold.busy`` → ``hold.release``.
Random request mixes run once through it and once through that
composition, written out here as the reference. Every listener hook
call, returned duration and core counter must match.

A request that finds the core free with nobody queued is granted
inline, with no grant event. A second reference queues a grant event
for every request and yields it, as ``execute`` did before inline
grants: the same mixes must give the same outcome with no more events
processed. Only the on-demand governor's P-state pick may move within
its instant.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import CoreListener, CState, CStateTable, Core, PState, PStateTable
from repro.cpu.governors import OndemandGovernor
from repro.harness.params import StandardParams
from repro.harness.runner import CONSUMER_CORE, Rig, base_trace
from repro.impls.multi import MultiPairSystem, phase_shifted_traces
from repro.sim import Environment, Interrupt, SimulationError


def reference_execute(core, owner, cpu_seconds, after_block=False):
    """The composition ``execute`` replaces."""
    if cpu_seconds < 0:
        raise SimulationError(f"negative cpu time {cpu_seconds!r}")
    hold = yield from core.acquire(owner, after_block=after_block)
    duration = yield from hold.busy(cpu_seconds)
    hold.release()
    return duration


def queued_request(core, owner, after_block):
    """The request step with no inline grant: a grant event is queued
    even on a free core, and dispatched at once if the core is free."""
    grant = core.env.event()
    core._queue.append((grant, owner, core.env.now))
    if after_block:
        for listener in core._on_task_wakeup:
            listener.on_task_wakeup(core, core.env.now, owner)
    if not core._busy:
        core._dispatch()
    return grant


def queued_execute(core, owner, cpu_seconds, after_block=False):
    """``execute`` with every request going through a yielded grant."""
    if cpu_seconds < 0:
        raise SimulationError(f"negative cpu time {cpu_seconds!r}")
    yield queued_request(core, owner, after_block)
    latency = core._pending_wake_latency
    core._pending_wake_latency = 0.0
    core._reselect_pstate()
    duration = core._slice_s(cpu_seconds, latency, core.context_switch_s)
    if duration > 0:
        yield core.env.timeout(duration)
    core._account_busy(owner, duration)
    core._busy = False
    core._dispatch()
    return duration


class HookLog(CoreListener):
    """Every hook call, with the core situation it reported."""

    def __init__(self):
        self.calls = []

    def on_state_change(self, core, now, old, new, cstate, pstate):
        self.calls.append(
            ("state", now, old, new, cstate and cstate.name, pstate.name)
        )

    def on_wakeup(self, core, now, owner, from_cstate):
        self.calls.append(("wakeup", now, owner, from_cstate.name))

    def on_execute(self, core, now, owner, duration):
        self.calls.append(("execute", now, owner, duration))

    def on_yield(self, core, now, owner):
        self.calls.append(("yield", now, owner))

    def on_task_wakeup(self, core, now, owner):
        self.calls.append(("task_wakeup", now, owner))


request = st.tuples(
    st.integers(0, 3),  # owner
    st.floats(0.0, 2e-3),  # cpu seconds
    st.booleans(),  # after_block
    st.floats(0.0, 0.05),  # arrival time
)


def run_mix(execute, requests, ondemand, park_at, victim_at, ctx_s):
    """Run ``requests`` on one core through ``execute``; returns what a
    caller can observe."""
    env = Environment()
    cstates = CStateTable(
        [
            CState("C1", 1, power_w=0.1, exit_latency_s=5e-6, min_residency_s=1e-4),
            CState("C2", 2, power_w=0.01, exit_latency_s=3e-4, min_residency_s=5e-3),
        ]
    )
    pstates = PStateTable([PState("slow", 6e8, 0.9), PState("fast", 1.2e9, 1.1)])
    governor = OndemandGovernor(pstates, window_s=0.01) if ondemand else None
    core = Core(env, 0, cstates, pstates, governor=governor, context_switch_s=ctx_s)
    log = HookLog()
    core.add_listener(log)
    results = {}

    def client(i, owner, cpu_s, after_block, arrival):
        yield env.timeout(arrival)
        try:
            duration = yield from execute(core, owner, cpu_s, after_block)
        except Interrupt as exc:
            results[i] = ("interrupted", env.now, exc.cause)
            return
        results[i] = ("done", env.now, duration)

    for i, (owner, cpu_s, after_block, arrival) in enumerate(requests):
        env.process(client(i, f"task{owner}", cpu_s, after_block, arrival))

    if park_at is not None:

        def parker():
            yield env.timeout(park_at)
            if core.is_idle and not core.queue_length and core.state != "parked":
                core.park()

        env.process(parker())

    # One request is interrupted while queued: it arrives right behind
    # a long one, and is withdrawn and interrupted before that ends.
    blocker = env.process(client("blocker", "blocker", 1e-3, True, victim_at))
    victim = env.process(client("victim", "victim", 1e-4, True, victim_at))

    def interrupter():
        yield env.timeout(victim_at + 1e-6)
        assert core.cancel(victim.target), "victim was not queued"
        victim.interrupt("withdrawn")

    env.process(interrupter())
    env.run()
    assert blocker.ok
    return (
        log.calls,
        results,
        env.now,
        env.events_processed,
        core.total_wakeups,
        core.total_busy_s,
        core.state,
    )


@settings(max_examples=120, deadline=None)
@given(
    requests=st.lists(request, max_size=12),
    ondemand=st.booleans(),
    park_at=st.one_of(st.none(), st.floats(0.0, 0.05)),
    victim_at=st.floats(0.0, 0.05),
    ctx_s=st.sampled_from([0.0, 2e-6]),
)
def test_execute_matches_hold_composition(
    requests, ondemand, park_at, victim_at, ctx_s
):
    flat = run_mix(Core.execute, requests, ondemand, park_at, victim_at, ctx_s)
    ref = run_mix(reference_execute, requests, ondemand, park_at, victim_at, ctx_s)
    assert flat == ref
    calls, results = flat[0], flat[1]
    assert results["victim"][0] == "interrupted"
    assert not any(c[0] == "execute" and c[2] == "victim" for c in calls)


def pstate_picks_apart(calls):
    """The log with P-state picks set apart, each list in order.

    A queued grant resumes its process after the other events of the
    same instant; an inline grant goes on at once. So the on-demand
    governor's P-state pick (an ACTIVE→ACTIVE state call, made when the
    granted task starts its slice) may land before, not after, another
    task's same-instant calls. Everything else keeps its exact place.
    """
    picks, rest = [], []
    for call in calls:
        is_pick = call[0] == "state" and call[2:4] == ("active", "active")
        (picks if is_pick else rest).append(call)
    return picks, rest


@settings(max_examples=120, deadline=None)
@given(
    requests=st.lists(request, max_size=12),
    ondemand=st.booleans(),
    park_at=st.one_of(st.none(), st.floats(0.0, 0.05)),
    victim_at=st.floats(0.0, 0.05),
    ctx_s=st.sampled_from([0.0, 2e-6]),
)
def test_inline_grant_matches_queued_grant(
    requests, ondemand, park_at, victim_at, ctx_s
):
    fast = run_mix(Core.execute, requests, ondemand, park_at, victim_at, ctx_s)
    queued = run_mix(queued_execute, requests, ondemand, park_at, victim_at, ctx_s)
    assert pstate_picks_apart(fast[0]) == pstate_picks_apart(queued[0])
    assert fast[1:3] + fast[4:] == queued[1:3] + queued[4:]
    assert fast[3] <= queued[3]  # events processed


#: Processed events per consumed item on the 1 s, 5-pair, seed-2014
#: rig. What remains per Mutex/Sem item is real scheduling points: the
#: producer's arrival timeout, the service timeout, the cross-process
#: wake of a blocked consumer (condvar notify or semaphore hand-off)
#: and a fraction of a queued dispatch on the shared core.
EVENT_BUDGET = {"Mutex": 3.2, "Sem": 3.2, "BP": 2.2}


@pytest.mark.parametrize("impl", sorted(EVENT_BUDGET))
def test_events_per_item_budget(impl):
    params = StandardParams(duration_s=1.0, seed=2014)
    rig = Rig.build(params, 0)
    system = MultiPairSystem(
        rig.env,
        rig.machine,
        impl,
        phase_shifted_traces(base_trace(params, 0), 5),
        params.pc_config(params.buffer_size),
        consumer_cores=[CONSUMER_CORE],
    )
    system.start()
    rig.env.run(until=params.duration_s)
    consumed = system.aggregate_stats().consumed
    assert consumed > 5000
    per_item = rig.env.events_processed / consumed
    assert per_item <= EVENT_BUDGET[impl], (
        f"{impl}: {per_item:.3f} events per item > {EVENT_BUDGET[impl]}; "
        "only arrival timeouts, service timeouts, cross-process wakes and "
        "queued core dispatches should reach the queue, so an uncontended "
        "lock or a free core is making an event again"
    )
