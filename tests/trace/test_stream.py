"""Streaming JSONL export: spill-before-eviction, schema versioning,
byte stability, and ring-overflow fidelity."""

import json

import pytest

from repro.trace import (
    SCHEMA_VERSION,
    StreamingTraceWriter,
    TraceQuery,
    TraceReader,
    TraceSchemaError,
    Tracer,
    read_trace,
    record_run,
    to_jsonl,
    trace_energy_j,
)
from repro.trace.stream import event_from_dict, event_to_dict


class Clock:
    def __init__(self):
        self.now = 0.0


def small_tracer():
    clock = Clock()
    tracer = Tracer(clock)
    tracer.instant("mgr", "reserve", "slot", slot=3, consumer="c-0")
    tracer.counter("core0", "power_w", 0.12)
    span = tracer.begin("mgr", "slot", "slot", slot=3)
    clock.now = 0.01
    tracer.end(span, activated=1)
    return tracer


# -- writer/reader roundtrip ---------------------------------------------------


def test_roundtrip_preserves_events(tmp_path):
    events = small_tracer().events
    path = tmp_path / "t.jsonl"
    with StreamingTraceWriter(path, meta={"seed": 7}) as w:
        for e in events:
            w.write_event(e)
    back, reader = read_trace(path)
    assert len(back) == len(events)
    for a, b in zip(sorted(back, key=lambda e: e.sort_key()), events):
        assert event_to_dict(a) == event_to_dict(b)
    assert reader.meta == {"seed": 7}
    assert reader.footer == {"events": 3}


def test_read_events_share_one_kind_per_emission_site(tmp_path):
    path = tmp_path / "t.jsonl"
    tracer = small_tracer()
    tracer.instant("mgr", "reserve", "slot", slot=4, consumer="c-1")
    path.write_text(to_jsonl(tracer), encoding="utf-8")
    back, _ = read_trace(path)
    reserves = [e for e in back if e.name == "reserve"]
    assert len(reserves) == 2
    assert reserves[0].kind is reserves[1].kind
    assert [e.args["slot"] for e in reserves] == [3, 4]
    assert len({id(e.kind) for e in back}) == 3


def test_retained_bytes_per_read_event_stay_bounded(tmp_path):
    """A read event is an interned kind plus a values tuple, as a
    recorded one is: about 250 B retained per event, where a kind and
    strings of its own per event took about 710 B."""
    import gc
    import tracemalloc

    path = tmp_path / "t.jsonl"
    path.write_text(
        to_jsonl(record_run("PBPL", "webserver", duration_s=1.0, n_consumers=4).tracer),
        encoding="utf-8",
    )
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        events, _ = read_trace(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(events) > 1000
    assert (held - before) / len(events) <= 300


def test_sink_sees_events_at_append_time(tmp_path):
    path = tmp_path / "live.jsonl"
    clock = Clock()
    tracer = Tracer(clock)
    writer = StreamingTraceWriter(path, meta={}).attach(tracer)
    tracer.instant("t", "one")
    assert writer.events_written == 1
    tracer.instant("t", "two")
    writer.close()
    events, _ = read_trace(path)
    assert [e.name for e in events] == ["one", "two"]


def test_writer_superset_of_overflowed_ring(tmp_path):
    """The file keeps everything the 4-slot ring evicts."""
    path = tmp_path / "o.jsonl"
    clock = Clock()
    tracer = Tracer(clock, capacity=4)
    writer = StreamingTraceWriter(path).attach(tracer)
    for i in range(10):
        clock.now = i * 0.001
        tracer.instant("t", f"e{i}")
    writer.close(dropped=tracer.dropped_events)
    assert tracer.dropped_events == 6
    assert len(tracer.events) == 4
    streamed, reader = read_trace(path)
    assert [e.name for e in streamed] == [f"e{i}" for i in range(10)]
    ring_keys = {(e.ts_s, e.seq) for e in tracer.events}
    assert ring_keys < {(e.ts_s, e.seq) for e in streamed}  # strict superset
    assert reader.footer["dropped"] == 6


def test_event_dict_roundtrip_is_lossless():
    tracer = small_tracer()
    for e in tracer.events:
        again = event_from_dict(json.loads(json.dumps(event_to_dict(e))))
        assert event_to_dict(again) == event_to_dict(e)


def test_to_jsonl_is_byte_stable(tmp_path):
    a = to_jsonl(small_tracer(), meta={"k": 1})
    b = to_jsonl(small_tracer(), meta={"k": 1})
    assert a == b
    lines = a.strip().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "repro.trace"
    assert header["schema_version"] == "1.0"
    assert json.loads(lines[-1])["footer"]["events"] == 3


def test_writer_closed_is_idempotent_and_rejects_writes(tmp_path):
    writer = StreamingTraceWriter(tmp_path / "x.jsonl")
    writer.close()
    writer.close()
    with pytest.raises(ValueError, match="closed"):
        writer.write_event(small_tracer().events[0])


# -- schema versioning ---------------------------------------------------------


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_reader_rejects_newer_major(tmp_path):
    major = SCHEMA_VERSION[0] + 1
    path = _write_lines(
        tmp_path / "future.jsonl",
        [json.dumps({"schema": "repro.trace", "schema_version": f"{major}.0",
                     "meta": {}})],
    )
    with pytest.raises(TraceSchemaError, match="newer than the supported"):
        TraceReader(path)


def test_reader_accepts_newer_minor(tmp_path):
    path = _write_lines(
        tmp_path / "minor.jsonl",
        [
            json.dumps({"schema": "repro.trace",
                        "schema_version": f"{SCHEMA_VERSION[0]}.99",
                        "meta": {}}),
            json.dumps({"args": {}, "cat": "e", "dur": None, "name": "x",
                        "ph": "i", "seq": 0, "track": "t", "ts": 0.0,
                        "new_minor_field": 42}),
        ],
    )
    events = TraceReader(path).read()
    assert [e.name for e in events] == ["x"]


@pytest.mark.parametrize(
    "first_line",
    [
        "",  # empty file
        "not json at all",
        json.dumps({"no": "header"}),
        json.dumps({"schema": "something.else", "schema_version": "1.0"}),
        json.dumps({"schema": "repro.trace", "schema_version": "one.two"}),
    ],
)
def test_reader_rejects_malformed_headers(tmp_path, first_line):
    path = _write_lines(tmp_path / "bad.jsonl", [first_line])
    with pytest.raises(TraceSchemaError):
        TraceReader(path)


def test_reader_clear_error_on_missing_event_field(tmp_path):
    path = _write_lines(
        tmp_path / "cut.jsonl",
        [
            json.dumps({"schema": "repro.trace", "schema_version": "1.0",
                        "meta": {}}),
            json.dumps({"args": {}, "name": "x"}),  # missing ts/ph/...
        ],
    )
    with pytest.raises(TraceSchemaError, match="missing field"):
        TraceReader(path).read()


def test_reader_clear_error_on_corrupt_line(tmp_path):
    # An unparseable line *with lines after it* is corruption; an
    # unparseable *final* line is truncation (see test_truncated.py).
    path = _write_lines(
        tmp_path / "corrupt.jsonl",
        [
            json.dumps({"schema": "repro.trace", "schema_version": "1.0",
                        "meta": {}}),
            "{corrupt, not json",
            json.dumps({"footer": {"events": 0}}),
        ],
    )
    with pytest.raises(TraceSchemaError, match="invalid JSON"):
        TraceReader(path).read()


# -- full-run fidelity ---------------------------------------------------------


def test_streamed_chaos_run_exceeds_ring_and_reconciles(tmp_path):
    """A chaos run through a tiny ring: the JSONL stream must hold more
    events than the ring capacity and still reconcile with the ledger."""
    path = tmp_path / "chaos.jsonl"
    writer = StreamingTraceWriter(path, meta={"scenario": "combined"})
    run = record_run(
        "PBPL", "combined", duration_s=0.4, n_consumers=3,
        capacity=300, stream=writer,
    )
    writer.close(
        dropped=run.tracer.dropped_events, ledger_total_j=run.ledger_total_j
    )
    assert run.tracer.dropped_events > 0
    streamed, reader = read_trace(path)
    assert len(streamed) > 300  # exceeded the ring capacity
    assert len(streamed) == len(run.tracer.events) + run.tracer.dropped_events
    ring_keys = {(e.ts_s, e.seq) for e in run.tracer.events}
    assert ring_keys < {(e.ts_s, e.seq) for e in streamed}
    replayed = trace_energy_j(TraceQuery(streamed))
    assert replayed == pytest.approx(reader.footer["ledger_total_j"], abs=1e-9)
