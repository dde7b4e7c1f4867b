"""Tracer unit behaviour: phases, ring bound, finalize, null path."""

import pytest

from repro.trace import NULL_TRACER, NullTracer, Tracer
from repro.trace.tracer import COUNTER, INSTANT, SPAN


class Clock:
    """Minimal stand-in for the simulation environment (only ``now``)."""

    def __init__(self):
        self.now = 0.0


def test_null_tracer_is_falsy_and_inert():
    assert not NULL_TRACER
    assert isinstance(NULL_TRACER, NullTracer)
    NULL_TRACER.instant("t", "x")
    NULL_TRACER.counter("t", "c", 1.0)
    span = NULL_TRACER.begin("t", "s")
    NULL_TRACER.end(span, extra=1)
    NULL_TRACER.complete("t", "s", 0.0, 1.0)
    NULL_TRACER.finalize()
    assert NULL_TRACER.events == []
    assert NULL_TRACER.dropped_events == 0


def test_instant_counter_and_span_phases():
    clock = Clock()
    tracer = Tracer(clock)
    assert tracer  # enabled tracer is truthy
    tracer.instant("track", "hello", "cat", k=1)
    tracer.counter("track", "depth", 7)
    span = tracer.begin("track", "work", "cat", slot=3)
    clock.now = 0.25
    tracer.end(span, items=4)

    by_phase = {e.phase: e for e in tracer.events}
    inst, ctr, spn = by_phase[INSTANT], by_phase[COUNTER], by_phase[SPAN]
    assert inst.name == "hello" and inst.args == {"k": 1}
    assert inst.dur_s is None and inst.end_s == inst.ts_s
    assert ctr.args == {"value": 7}
    assert spn.ts_s == 0.0 and spn.dur_s == pytest.approx(0.25)
    assert spn.args == {"slot": 3, "items": 4}
    assert spn.end_s == pytest.approx(0.25)


def test_events_sorted_by_start_time_then_seq():
    clock = Clock()
    tracer = Tracer(clock)
    outer = tracer.begin("t", "outer")
    clock.now = 1.0
    tracer.instant("t", "mid")
    clock.now = 2.0
    tracer.end(outer)  # recorded last, but starts first
    names = [e.name for e in tracer.events]
    assert names == ["outer", "mid"]


def test_ring_buffer_drops_oldest_and_counts():
    clock = Clock()
    tracer = Tracer(clock, capacity=3)
    for i in range(5):
        tracer.instant("t", f"e{i}")
    assert len(tracer) == 3
    assert tracer.dropped_events == 2
    assert [e.name for e in tracer.events] == ["e2", "e3", "e4"]


def test_finalize_truncates_open_spans_idempotently():
    clock = Clock()
    tracer = Tracer(clock)
    tracer.begin("t", "unfinished")
    clock.now = 0.5
    tracer.finalize()
    tracer.finalize()  # no double-record
    spans = [e for e in tracer.events if e.phase == SPAN]
    assert len(spans) == 1
    assert spans[0].args.get("truncated") is True
    assert spans[0].dur_s == pytest.approx(0.5)


def test_spans_opened_after_finalize_are_not_lost():
    """A mid-run finalize (e.g. a mid-run TraceQuery) must not swallow
    spans opened afterwards — the old once-only gate silently excluded
    them from every duration query."""
    clock = Clock()
    tracer = Tracer(clock)
    tracer.finalize()  # premature, e.g. TraceQuery(tracer) mid-run
    late = tracer.begin("t", "late")
    clock.now = 0.3
    tracer.finalize()
    spans = [e for e in tracer.events if e.phase == SPAN]
    assert [s.name for s in spans] == ["late"]
    assert spans[0].args.get("truncated") is True
    assert spans[0].dur_s == pytest.approx(0.3)
    assert late.closed


def test_midrun_query_then_final_query_sees_all_spans():
    from repro.trace import TraceQuery

    clock = Clock()
    tracer = Tracer(clock)
    early = tracer.begin("t", "early")
    clock.now = 0.1
    tracer.end(early)
    assert len(TraceQuery(tracer).spans()) == 1  # mid-run peek finalizes
    still_open = tracer.begin("t", "still-open")
    clock.now = 0.4
    final = TraceQuery(tracer)
    assert [s.name for s in final.spans()] == ["early", "still-open"]
    [cut] = final.spans(where=lambda e: e.args.get("truncated"))
    assert cut.name == "still-open"
    assert final.covering(0.2, name="still-open")  # duration queries see it


def test_sink_receives_every_event_before_eviction():
    clock = Clock()
    tracer = Tracer(clock, capacity=2)
    seen = []
    tracer.add_sink(seen.append)
    for i in range(5):
        tracer.instant("t", f"e{i}")
    assert [e.name for e in seen] == [f"e{i}" for i in range(5)]
    assert len(tracer.events) == 2  # ring still bounded


def test_end_twice_records_once():
    clock = Clock()
    tracer = Tracer(clock)
    span = tracer.begin("t", "once")
    tracer.end(span)
    tracer.end(span)
    assert len(tracer.events) == 1


def test_complete_rejects_negative_interval():
    tracer = Tracer(Clock())
    with pytest.raises(ValueError):
        tracer.complete("t", "bad", 1.0, 0.5)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Tracer(Clock(), capacity=0)


def test_tracks_are_sorted_unique():
    tracer = Tracer(Clock())
    tracer.instant("b", "x")
    tracer.instant("a", "y")
    tracer.instant("b", "z")
    assert tracer.tracks() == ["a", "b"]


def test_one_kind_per_emission_site_and_track():
    clock = Clock()
    tracer = Tracer(clock)
    for i in range(3):
        tracer.instant("c0", "reserve", "slot", slot=i, consumer="c0")
        tracer.instant("c1", "reserve", "slot", slot=i, consumer="c1")
        tracer.counter("c0", "buffer.capacity", 10 + i)
    by_track = {}
    for e in tracer.events:
        by_track.setdefault((e.phase, e.track), set()).add(id(e.kind))
    assert all(len(kinds) == 1 for kinds in by_track.values())
    assert len(by_track) == 3
    # Same site, other arg keys: a kind of its own.
    tracer.instant("c0", "reserve", "slot", slot=9)
    assert tracer.events[-1].kind is not tracer.events[0].kind


def test_args_is_a_fresh_read_only_view():
    clock = Clock()
    tracer = Tracer(clock)
    span = tracer.begin("core0", "slot", slot=1)
    tracer.end(span, activated=2)
    (event,) = tracer.events
    assert event.args == {"slot": 1, "activated": 2}
    event.args["slot"] = 99
    assert event.args is not event.args
    assert event.args == {"slot": 1, "activated": 2}


def test_retained_bytes_per_recorded_event_stay_bounded():
    """A stored event is an interned kind plus a values tuple: about
    200 B retained per event, where a per-event args dict took 380 B."""
    import gc
    import tracemalloc

    from repro.trace import record_run

    tracemalloc.start()
    try:
        run = record_run("PBPL", "webserver", duration_s=1.0, n_consumers=4)
        gc.collect()
        recorded = len(run.tracer)
        with_events = tracemalloc.get_traced_memory()[0]
        run.tracer._events.clear()
        gc.collect()
        without_events = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert recorded > 1000
    assert (with_events - without_events) / recorded <= 250
