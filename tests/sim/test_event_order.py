"""Event-queue dispatch order vs an independent sorted-list model.

Dispatch order must be the total order on ``(when, priority, eid)``:
timestamp first, URGENT before NORMAL at equal timestamps, then
scheduling order — for any stream of schedulings, including
same-timestamp bursts and events scheduled *during* a dispatch at the
current timestamp. The reference model is a stable sort on
``(when, priority)`` over entries kept in scheduling order, so it shares
no code or data structure with the heap it checks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.events import NORMAL, URGENT

#: Delay grid dense in collisions: exact ties, near-ties, and
#: far-apart outliers.
TIE_PRONE_DELAYS = [
    0.0, 0.0, 1e-4, 1e-4, 2.5e-4, 9.99e-4, 1e-3, 1e-3, 1.0001e-3,
    5e-3, 0.0123, 0.0123, 1.0, 7.25, 1e3,
]

delays_st = st.one_of(
    st.sampled_from(TIE_PRONE_DELAYS),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
priority_st = st.sampled_from([URGENT, NORMAL])


def _recorded_event(env, order, tag):
    ev = env.event()
    ev._ok = True
    ev.callbacks.append(lambda _e: order.append(tag))
    return ev


def _next_in_model(pending):
    """Remove and return the first entry of ``pending`` under a stable
    sort on ``(when, priority)``; ``pending`` is in scheduling order."""
    first = sorted(pending, key=lambda e: (e[0], e[1]))[0]
    pending.remove(first)
    return first


@given(
    entries=st.lists(
        st.tuples(delays_st, priority_st), min_size=1, max_size=80
    ),
)
@settings(max_examples=200, deadline=None)
def test_dispatch_order_matches_sorted_model(entries):
    env = Environment()
    order = []
    for i, (delay, priority) in enumerate(entries):
        env.schedule(_recorded_event(env, order, i), delay, priority)
    env.run()
    expected = sorted(
        range(len(entries)), key=lambda i: (entries[i][0], entries[i][1])
    )
    assert order == expected


@given(
    entries=st.lists(
        st.tuples(
            delays_st,
            priority_st,
            # Children scheduled from inside this event's callback:
            # (extra delay, priority); 0.0 extra = same-timestamp insert.
            st.lists(
                st.tuples(
                    st.sampled_from([0.0, 0.0, 1e-4, 1e-3, 0.5]),
                    priority_st,
                ),
                max_size=3,
            ),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=200, deadline=None)
def test_mid_dispatch_scheduling_matches_sorted_model(entries):
    # Real run: each initial event's callback schedules its children,
    # so URGENT children at the *current* timestamp must overtake
    # still-pending NORMAL events at that timestamp.
    env = Environment()
    order = []

    def make_event(tag, children):
        ev = env.event()
        ev._ok = True

        def fire(_e):
            order.append(tag)
            for j, (extra, prio) in enumerate(children):
                env.schedule(make_event((tag, j), []), extra, prio)

        ev.callbacks.append(fire)
        return ev

    for i, (delay, priority, children) in enumerate(entries):
        env.schedule(make_event(i, children), delay, priority)
    env.run()

    # Model: pending entries appended in scheduling order (children at
    # dispatch time), next event = first under a stable sort.
    pending = [
        (delay, priority, i, children)
        for i, (delay, priority, children) in enumerate(entries)
    ]
    expected = []
    while pending:
        when, _prio, tag, children = _next_in_model(pending)
        expected.append(tag)
        for j, (extra, prio) in enumerate(children):
            pending.append((when + extra, prio, (tag, j), []))
    assert order == expected


def test_same_timestamp_burst_dispatches_in_schedule_order():
    env = Environment()
    order = []
    for i in range(1000):
        env.schedule(_recorded_event(env, order, i), 5e-3)
    env.run()
    assert order == list(range(1000))


def test_urgent_beats_normal_within_a_batch():
    env = Environment()
    order = []
    env.schedule(_recorded_event(env, order, "n0"), 1e-3, NORMAL)
    env.schedule(_recorded_event(env, order, "u0"), 1e-3, URGENT)
    env.schedule(_recorded_event(env, order, "n1"), 1e-3, NORMAL)
    env.schedule(_recorded_event(env, order, "u1"), 1e-3, URGENT)
    env.run()
    assert order == ["u0", "u1", "n0", "n1"]


def test_infinite_timestamps_sort_after_everything():
    # run(until=None) dispatches strictly before inf, so an
    # inf-scheduled wakeup parks in the queue forever.
    env = Environment()
    order = []
    env.schedule(_recorded_event(env, order, "inf"), float("inf"))
    env.schedule(_recorded_event(env, order, "soon"), 1e-3)
    env.schedule(_recorded_event(env, order, "later"), 2.0)
    assert env.peek() == 1e-3
    env.run()
    assert order == ["soon", "later"]
    assert env.now == 2.0
    assert len(env) == 1
    assert env.peek() == float("inf")


def test_peek_from_callback_does_not_skip_next_event():
    # Introspecting the queue from inside a dispatch must neither
    # consume nor reorder what is pending.
    env = Environment()
    order = []

    def peeker(_e):
        order.append("first")
        assert env.peek() == 5e-3

    ev = env.event()
    ev._ok = True
    ev.callbacks.append(peeker)
    env.schedule(ev, 1e-3)
    env.schedule(_recorded_event(env, order, "second"), 5e-3)
    env.run()
    assert order == ["first", "second"]
