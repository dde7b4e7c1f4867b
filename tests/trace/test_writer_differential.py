"""Differential tests: the string writer against the json.dumps composition.

The trace exports build their JSON text directly (``_json``,
``event_line``, ``to_jsonl``, ``to_chrome_json``). The reference below
is the composition they replace, written out in full: clamp the value
with ``_json_safe``, then ``json.dumps(sort_keys=True,
separators=(",", ":"))``, with the Chrome document built as a dict tree
first. Every output must match it byte for byte.
"""

import enum
import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.trace import StreamingTraceWriter, record_run, to_chrome_json, to_jsonl
from repro.trace.export import _json
from repro.trace.stream import SCHEMA, event_line, schema_version_str
from repro.trace.tracer import COUNTER, INSTANT, SPAN, TraceEvent, Tracer

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

# -- the reference composition ---------------------------------------------------


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _json_safe(value):
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return repr(value)
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


def _ref_event(e):
    return _dumps(
        {
            "args": _json_safe(e.args),
            "cat": e.category,
            "dur": e.dur_s,
            "name": e.name,
            "ph": e.phase,
            "seq": e.seq,
            "track": e.track,
            "ts": e.ts_s,
        }
    ) + "\n"


def _ref_jsonl(events, meta, **footer_fields):
    header = {
        "meta": _json_safe(meta or {}),
        "schema": SCHEMA,
        "schema_version": schema_version_str(),
    }
    footer = {"events": len(events)}
    footer.update(_json_safe(footer_fields))
    return (
        _dumps(header) + "\n"
        + "".join(_ref_event(e) for e in events)
        + _dumps({"footer": footer}) + "\n"
    )


def _ref_chrome(events):
    tids = {t: i + 1 for i, t in enumerate(sorted({e.track for e in events}))}
    out = [
        {"ph": "M", "pid": 1, "tid": tids[t], "name": "thread_name",
         "args": {"name": t}}
        for t in sorted(tids)
    ]
    for e in events:
        record = {"ph": e.phase, "pid": 1, "tid": tids[e.track],
                  "ts": e.ts_s * 1e6, "name": e.name, "cat": e.category}
        if e.phase == SPAN:
            record["dur"] = (e.dur_s or 0.0) * 1e6
            record["args"] = _json_safe(e.args)
        elif e.phase == INSTANT:
            record["s"] = "t"
            record["args"] = _json_safe(e.args)
        elif e.phase == COUNTER:
            record["args"] = {e.name: _json_safe(e.args.get("value", 0))}
        out.append(record)
    return _dumps(
        {
            "traceEvents": out,
            "displayTimeUnit": "ms",
            "otherData": {"clock": "virtual", "source": "repro.trace"},
        }
    )


# -- value strategies ---------------------------------------------------------------


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    pass


class Shouty(str):
    def __str__(self):
        return self.upper()


class Ratio(float):
    def __repr__(self):
        return f"Ratio({float(self)!r})"


class Opaque:
    def __init__(self, n):
        self.n = n

    def __str__(self):
        return f"<opaque {self.n} é>"


_text = st.text(max_size=8)  # non-ASCII and control characters too
_floats = st.floats(allow_nan=True, allow_infinity=True)
_odd = st.one_of(
    st.sampled_from(list(Level)),
    _text.map(Label),
    _text.map(Shouty),
    _floats.map(Ratio),
    _floats.map(np.float64),
    st.integers(-(2**40), 2**40).map(np.int64),
    st.booleans().map(np.bool_),
    st.integers().map(Opaque),
    st.just(frozenset({1, 2})),
)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), _floats, _text, _odd
)
_keys = st.one_of(
    _text, st.integers(-3, 3), st.booleans(), st.none(),
    _text.map(Label), _text.map(Shouty), st.sampled_from(list(Level)),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
    ),
    max_leaves=12,
)
_args = st.dictionaries(st.one_of(_text, _keys), _values, max_size=5)


@st.composite
def _event(draw, seq):
    phase = draw(st.sampled_from([SPAN, INSTANT, COUNTER, "B", "M", "n"]))
    args = draw(_args)
    if phase == COUNTER and draw(st.booleans()):
        args["value"] = draw(_values)
    return TraceEvent(
        ts_s=draw(st.one_of(st.floats(0, 1e3), st.integers(0, 10**6), _floats)),
        dur_s=draw(st.one_of(st.none(), st.floats(0, 1e3), st.integers(0, 9))),
        phase=phase,
        category=draw(_text),
        track=draw(st.sampled_from(["core0", "mgr", "cé-1", "☃"])),
        name=draw(_text),
        seq=seq,
        args=args,
    )


_events = st.integers(0, 12).flatmap(
    lambda n: st.tuples(*[_event(seq) for seq in range(n)]).map(list)
)


# -- the tests ----------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(value=_values)
@example(value={1: "int", "1": "str"})
@example(value={"1": "str", 1: "int"})
@example(value={True: 1, "True": 2, None: 3})
@example(value=[float("nan"), float("inf"), -float("inf"), -0.0, 1e300])
@example(value={"s": "café \x00\x1f  \ud800"})
def test_json_matches_reference(value):
    assert _json(value) == _dumps(_json_safe(value))


@settings(max_examples=150, deadline=None)
@given(events=_events, meta=_args, footer=_args)
def test_exports_match_reference(events, meta, footer):
    footer_fields = {str(k): v for k, v in footer.items()}
    ordered = sorted(events, key=TraceEvent.sort_key)
    for e in ordered:
        assert event_line(e) == _ref_event(e)
    assert to_jsonl(events, meta=meta, **footer_fields) == _ref_jsonl(
        ordered, meta, **footer_fields
    )
    assert to_chrome_json(events) == _ref_chrome(ordered)


def test_non_finite_event_fields_stay_bare():
    # An event's own numbers are not clamped (json.dumps writes NaN).
    e = TraceEvent(math.nan, math.inf, SPAN, "c", "t", "n", 0, {"x": math.nan})
    assert event_line(e) == _ref_event(e)
    assert '"dur":Infinity' in event_line(e) and '"x":"nan"' in event_line(e)
    assert to_chrome_json([e]) == _ref_chrome([e])


def test_container_in_an_event_field_is_a_type_error():
    e = TraceEvent(0.0, None, INSTANT, ["not", "a", "str"], "t", "n", 0, {})
    with pytest.raises(TypeError, match="not a str, number or None"):
        event_line(e)
    with pytest.raises(TypeError, match="not a str, number or None"):
        to_chrome_json([e])


@pytest.mark.parametrize(
    "impl, scenario",
    [("PBPL", "webserver"), ("Mutex", "combined"), ("PBPL", "pipeline-burst")],
)
def test_recorded_runs_match_reference(impl, scenario):
    run = record_run(impl, scenario, duration_s=0.3, n_consumers=3)
    events = run.tracer.events
    assert to_jsonl(run.tracer, meta={"impl": impl}) == _ref_jsonl(
        events, {"impl": impl}
    )
    assert to_chrome_json(run.tracer) == _ref_chrome(events)


def test_exports_join_in_blocks_without_seams():
    # More events than one block: the block joins must add nothing.
    from repro.trace.export import BLOCK

    events = [
        TraceEvent(i * 1e-3, None, INSTANT, "c", f"t{i % 3}", "tick", i, {"i": i})
        for i in range(2 * BLOCK + 5)
    ]
    assert to_jsonl(events) == _ref_jsonl(events, None)
    assert to_chrome_json(events) == _ref_chrome(events)


# -- the emission path ---------------------------------------------------------------
#
# The tracer stores each event as an interned kind plus a values tuple.
# These tests drive its public emission calls and compare every export
# with the reference composition applied to the event dicts that a
# model of those calls predicts (the dict-per-event layout).

#: Argument names of the emission calls themselves; a ``**args`` key
#: cannot reuse them.
_PARAMS = {"track", "name", "category", "span", "start_s", "end_s", "value"}
_emit_keys = st.text(max_size=6).filter(lambda k: k not in _PARAMS)
_emit_values = st.one_of(
    st.none(), st.booleans(), st.integers(), _floats, _text,
    st.sampled_from([math.nan, math.inf, -math.inf, True, False]),
    st.sampled_from(list(Level)), _text.map(Label), _text.map(Shouty),
    _values,
)
_emit_args = st.dictionaries(_emit_keys, _emit_values, max_size=4)
_tracks = st.sampled_from(["core0", "mgr", "cé-1"])
_names = st.sampled_from(["slot", "batch", "wakeup", "☃"])
_cats = st.sampled_from(["slot", "span", "event", "counter"])
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("instant"), _tracks, _names, _cats, _emit_args),
        st.tuples(st.just("counter"), _tracks, _names, _cats, _emit_values),
        st.tuples(st.just("begin"), _tracks, _names, _cats, _emit_args),
        st.tuples(st.just("end"), st.integers(0, 5), _emit_args),
        st.tuples(
            st.just("complete"), _tracks, _names, _cats, _emit_args,
            st.floats(0, 1e-3),
        ),
        st.tuples(st.just("advance"), st.floats(0, 1e-3)),
        st.just(("finalize",)),
    ),
    max_size=25,
)


class _Clock:
    now = 0.0


def _emit(tracer, clock, ops):
    """Run ``ops`` on ``tracer``; return the event dicts they should give,
    in append order."""
    model, spans, seq = [], [], 0

    def record(ts, dur, phase, cat, track, name, seq, args):
        model.append(
            dict(ts_s=ts, dur_s=dur, phase=phase, category=cat, track=track,
                 name=name, seq=seq, args=args)
        )

    def close(entry, extra):
        span, opened = entry
        if span.closed:
            return
        merged = dict(opened["args"])
        merged.update(extra)
        tracer.end(span, **extra)
        record(opened["ts"], max(0.0, clock.now - opened["ts"]), SPAN,
               opened["cat"], opened["track"], opened["name"], opened["seq"],
               merged)

    for op in ops:
        if op[0] == "instant":
            _, track, name, cat, args = op
            tracer.instant(track, name, cat, **args)
            record(clock.now, None, INSTANT, cat, track, name, seq, dict(args))
            seq += 1
        elif op[0] == "counter":
            _, track, name, cat, value = op
            tracer.counter(track, name, value, cat)
            record(clock.now, None, COUNTER, cat, track, name, seq, {"value": value})
            seq += 1
        elif op[0] == "begin":
            _, track, name, cat, args = op
            span = tracer.begin(track, name, cat, **args)
            spans.append((span, dict(ts=clock.now, cat=cat, track=track,
                                     name=name, seq=seq, args=dict(args))))
            seq += 1
        elif op[0] == "end":
            if spans:
                close(spans[op[1] % len(spans)], op[2])
        elif op[0] == "complete":
            _, track, name, cat, args, length = op
            start = max(0.0, clock.now - length)
            tracer.complete(track, name, start, clock.now, cat, **args)
            record(start, clock.now - start, SPAN, cat, track, name, seq, dict(args))
            seq += 1
        elif op[0] == "advance":
            clock.now += op[1]
        else:  # finalize closes what is open, in opening order
            for entry in spans:
                close(entry, {"truncated": True})
            tracer.finalize()
    return model


@settings(max_examples=200, deadline=None)
@given(ops=_ops, capacity=st.integers(1, 30))
@example(
    ops=[
        ("begin", "core0", "slot", "slot", {"slot": 1, "due_s": math.nan}),
        ("advance", 1e-4),
        ("end", 0, {"activated": 2, "slot": Level.HIGH}),
        ("instant", "mgr", "slot", "slot", {"late_s": -math.inf, "ok": True}),
        ("instant", "mgr", "slot", "slot", {"ok": False, "late_s": math.inf}),
        ("counter", "core0", "batch", "counter", Label("x")),
        ("begin", "cé-1", "batch", "span", {"core": Shouty("a")}),
        ("finalize",),
    ],
    capacity=30,
)
def test_emission_path_matches_reference(ops, capacity):
    clock = _Clock()
    tracer = Tracer(clock, capacity=capacity)
    stream = io.StringIO()
    writer = StreamingTraceWriter(stream, meta={"capacity": capacity})
    writer.attach(tracer)
    # The exports finalize the tracer; end with it so the model sees it.
    model = _emit(tracer, clock, [*ops, ("finalize",)])
    writer.close()
    # The sink sees every event at append time; the ring keeps the last
    # ``capacity`` of them.
    appended = [SimpleNamespace(**m) for m in model]
    assert stream.getvalue() == _ref_jsonl(appended, {"capacity": capacity})
    kept = sorted(appended[-capacity:], key=lambda e: (e.ts_s, e.seq))
    events = tracer.events
    assert [e.args for e in events] == [e.args for e in kept]
    for e, ref in zip(events, kept):
        assert event_line(e) == _ref_event(ref)
    assert to_jsonl(tracer) == _ref_jsonl(kept, None)
    assert to_chrome_json(tracer) == _ref_chrome(kept)
