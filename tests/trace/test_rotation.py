"""Size-based trace rotation: gzip history segments + live tail.

A rotated trace must read back exactly like an unrotated one — same
header, same events, same footer — with the segments reassembled
transparently by :class:`TraceReader`. Segments are written with
``mtime=0`` so identical runs produce byte-identical archives.
"""

import gzip
import json

import pytest

from repro.trace import (
    StreamingTraceWriter,
    TraceReader,
    TraceTruncatedError,
    read_trace,
)
from repro.trace.stream import event_to_dict
from repro.trace.tracer import TraceEvent


def _events(n):
    return [
        TraceEvent(
            ts_s=i * 0.001,
            dur_s=None,
            phase="i",
            category="test",
            track="t",
            name="tick",
            seq=i,
            args={},
        )
        for i in range(n)
    ]


def _write(path, events, rotate_bytes=None):
    with StreamingTraceWriter(
        path, meta={"seed": 7}, rotate_bytes=rotate_bytes
    ) as writer:
        for event in events:
            writer.write_event(event)
    return writer


def test_rotated_trace_reads_back_identically(tmp_path):
    events = _events(200)
    plain, rotated = tmp_path / "plain.jsonl", tmp_path / "rot.jsonl"
    _write(plain, events)
    writer = _write(rotated, events, rotate_bytes=4096)
    assert writer.segments_rotated >= 2
    assert (tmp_path / "rot.jsonl.1.gz").exists()

    back_plain, reader_plain = read_trace(plain)
    back_rot, reader_rot = read_trace(rotated)
    assert [event_to_dict(e) for e in back_rot] == [
        event_to_dict(e) for e in back_plain
    ]
    assert reader_rot.header == reader_plain.header
    assert reader_rot.footer == reader_plain.footer == {"events": 200}


def test_header_only_in_first_segment(tmp_path):
    path = tmp_path / "t.jsonl"
    writer = _write(path, _events(200), rotate_bytes=4096)
    first = gzip.open(
        tmp_path / "t.jsonl.1.gz", "rt", encoding="utf-8"
    ).readline()
    assert json.loads(first).get("schema") == "repro.trace"
    for seg in range(2, writer.segments_rotated + 1):
        line = gzip.open(
            tmp_path / f"t.jsonl.{seg}.gz", "rt", encoding="utf-8"
        ).readline()
        assert "schema" not in json.loads(line)
    # The live tail holds only the newest events plus the footer.
    tail_lines = path.read_text().splitlines()
    assert json.loads(tail_lines[-1]).get("footer") == {"events": 200}
    assert "schema" not in json.loads(tail_lines[0])


def test_segments_byte_identical_across_runs(tmp_path):
    events = _events(200)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write(a, events, rotate_bytes=4096)
    _write(b, events, rotate_bytes=4096)
    assert (tmp_path / "a.jsonl.1.gz").read_bytes() == (
        tmp_path / "b.jsonl.1.gz"
    ).read_bytes()
    assert a.read_bytes() == b.read_bytes()


def test_rotation_requires_path_target(tmp_path):
    with (tmp_path / "f.jsonl").open("w") as fh:
        with pytest.raises(ValueError, match="path"):
            StreamingTraceWriter(fh, rotate_bytes=4096)


def test_rotate_bytes_must_be_positive(tmp_path):
    with pytest.raises(ValueError, match="positive"):
        StreamingTraceWriter(tmp_path / "f.jsonl", rotate_bytes=0)


def test_truncated_tail_raises_truncation_error(tmp_path):
    path = tmp_path / "t.jsonl"
    _write(path, _events(200), rotate_bytes=4096)
    whole = path.read_bytes()
    path.write_bytes(whole[:-20])  # clip mid-line: a crashed run
    reader = TraceReader(path)
    with pytest.raises(TraceTruncatedError):
        list(reader.iter_events())


def test_rotation_byte_count_is_exact_for_non_ascii_text(tmp_path):
    # _write_line counts len(line) as bytes: that holds only because the
    # writer escapes every non-ASCII character as \uXXXX.
    path = tmp_path / "u.jsonl"
    writer = StreamingTraceWriter(
        path, meta={"host": "nœud-☃"}, rotate_bytes=2048
    )
    counted = []
    rotate = writer._rotate

    def spy():
        counted.append(writer._segment_bytes)
        rotate()

    writer._rotate = spy
    for i in range(120):
        writer.write_event(
            TraceEvent(
                ts_s=i * 0.001, dur_s=None, phase="i", category="tést",
                track="cœur-é", name="réveil ☕", seq=i,
                args={"qui": "consommateur-ü", "n": i, "ключ": "значение"},
            )
        )
    counted.append(writer._segment_bytes)
    writer.close()
    assert writer.segments_rotated >= 2

    segments = [
        gzip.decompress((tmp_path / f"u.jsonl.{k}.gz").read_bytes())
        for k in range(1, writer.segments_rotated + 1)
    ]
    tail = path.read_bytes()
    footer = tail[tail.rstrip(b"\n").rfind(b"\n") + 1:]
    on_disk = [len(s) for s in segments] + [len(tail) - len(footer)]
    assert on_disk == counted
    for blob in segments + [tail]:
        assert blob.isascii()
    assert b"\\u2603" in segments[0]  # the header's snowman, escaped
    events, reader = read_trace(path)
    assert events[0].track == "cœur-é"
    assert events[-1].args["ключ"] == "значение"
    assert reader.meta == {"host": "nœud-☃"}
