"""``Core.execute`` is the hold composition, flattened into one frame.

``execute`` inlines ``acquire`` → ``hold.busy`` → ``hold.release``.
Random request mixes run once through it and once through that
composition, written out here as the reference. Every listener hook
call, returned duration and core counter must match.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import CoreListener, CState, CStateTable, Core, PState, PStateTable
from repro.cpu.governors import OndemandGovernor
from repro.sim import Environment, Interrupt, SimulationError


def reference_execute(core, owner, cpu_seconds, after_block=False):
    """The composition ``execute`` replaces."""
    if cpu_seconds < 0:
        raise SimulationError(f"negative cpu time {cpu_seconds!r}")
    hold = yield from core.acquire(owner, after_block=after_block)
    duration = yield from hold.busy(cpu_seconds)
    hold.release()
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
