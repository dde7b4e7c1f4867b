"""Streaming JSONL trace export: spill-to-disk before ring eviction.

The in-memory :class:`~repro.trace.tracer.Tracer` bounds memory with a
ring buffer, which means hour-long runs lose their oldest events. This
module trades disk for fidelity: :class:`StreamingTraceWriter` attaches
to the tracer as a sink (see :meth:`~repro.trace.tracer.Tracer.add_sink`)
and writes every *completed* event to a JSONL file the moment it is
appended — strictly before the ring can evict it — so the file is a
superset of whatever the ring still holds at run end.

File format (one JSON object per line, byte-stable: sorted keys, fixed
separators, no whitespace):

* line 1 — the **header**: ``{"meta": {...}, "schema": "repro.trace",
  "schema_version": "1.0"}``. ``meta`` carries the run provenance the
  CLI records (impl, scenario, seed, duration, consumers, capacity).
* one line per **event**: ``{"args": {...}, "cat": ..., "dur": ...,
  "name": ..., "ph": ..., "seq": ..., "track": ..., "ts": ...}`` —
  ``dur`` is ``null`` for instants and counters; timestamps are
  virtual-time seconds (not the Chrome export's microseconds).
* optional last line — the **footer**: ``{"footer": {"dropped": ...,
  "events": ..., "ledger_total_j": ...}}``, written by
  :meth:`StreamingTraceWriter.close` so readers can reconcile the
  replayed energy against the ledger without re-running anything.

Versioning: ``schema_version`` is ``"MAJOR.MINOR"``. Readers accept any
minor of the supported major and reject newer majors with
:class:`TraceSchemaError` (a clear error, not a ``KeyError`` three
layers down). Additive changes bump the minor; anything that changes
the meaning of an existing field bumps the major.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.trace.export import (
    BLOCK,
    _args_plan,
    _events,
    _field,
    _json,
    _PerKind,
    _render_args,
)
from repro.trace.tracer import EventKind, TraceEvent, Tracer, _stored

#: Identifies a repro trace JSONL header.
SCHEMA = "repro.trace"

#: Current (major, minor) of the JSONL schema written by this module.
SCHEMA_VERSION = (1, 0)


def schema_version_str(version: "tuple[int, int]" = SCHEMA_VERSION) -> str:
    return f"{version[0]}.{version[1]}"


class TraceSchemaError(ValueError):
    """The file is not a readable repro trace (wrong shape or too new)."""


class TraceTruncatedError(TraceSchemaError):
    """The trace ends mid-line — the writing run was killed.

    A healthy trace ends with a footer record; a run killed part-way
    leaves either a half-written final line (raised here) or complete
    event lines with no footer (detectable via ``TraceReader.footer is
    None`` after a full read).
    """


def _line_pieces(kind: EventKind) -> tuple:
    """``(plan, a, b, c)``: a kind's JSONL line is ``{"args":`` + args +
    a + dur + b + seq + c + ts + ``}`` and a newline."""
    return (
        _args_plan(kind.keys),
        f',"cat":{_field(kind.category)},"dur":',
        f',"name":{_field(kind.name)},"ph":{_field(kind.phase)},"seq":',
        f',"track":{_field(kind.track)},"ts":',
    )


def _line(e: TraceEvent, pieces: tuple) -> str:
    plan, a, b, c = pieces
    dur = e.dur_s
    return (
        f'{{"args":{_render_args(plan, e)}{a}'
        f'{"null" if dur is None else _field(dur)}{b}{_field(e.seq)}{c}'
        f"{_field(e.ts_s)}}}\n"
    )


def event_line(e: TraceEvent) -> str:
    """One event as its JSONL line (newline included).

    Keys are sorted and separators compact, as ``json.dumps(...,
    sort_keys=True, separators=(",", ":"))`` writes the object; args are
    clamped to JSON-safe values. The output is ASCII (non-ASCII text is
    ``\\u``-escaped), so ``len()`` of a line is its size in bytes.
    """
    return _line(e, _line_pieces(e.kind))


def event_to_dict(event: TraceEvent) -> Dict[str, Any]:
    """One event as its JSONL object (parsed back from :func:`event_line`)."""
    return json.loads(event_line(event))


def event_from_dict(
    record: Dict[str, Any], kinds: Optional[Dict[tuple, EventKind]] = None
) -> TraceEvent:
    """Rebuild a :class:`TraceEvent` from its JSONL object.

    ``kinds`` is an intern table, as a :class:`~repro.trace.tracer.Tracer`
    keeps one: the events of one ``(phase, category, track, name, arg
    keys)`` share one :class:`EventKind`, and its strings, instead of
    each keeping its own. Without it the event gets a kind of its own.
    """
    try:
        args = record.get("args") or {}
        key = (record["ph"], record["cat"], record["track"], record["name"], *args)
        ts_s, dur_s, seq = record["ts"], record["dur"], record["seq"]
    except KeyError as exc:
        raise TraceSchemaError(f"event record missing field {exc}") from None
    if kinds is None:
        kinds = {}
    kind = kinds.get(key)
    if kind is None:
        kind = kinds[key] = EventKind(*key[:4], key[4:])
    return _stored(ts_s, dur_s, seq, kind, tuple(args.values()))


def _header_line(meta: Optional[Dict[str, Any]]) -> str:
    return (
        f'{{"meta":{_json(meta or {})},"schema":{_field(SCHEMA)},'
        f'"schema_version":{_field(schema_version_str())}}}\n'
    )


def _footer_line(events: int, fields: Dict[str, Any]) -> str:
    return f'{{"footer":{_json({"events": events, **fields})}}}\n'


class StreamingTraceWriter:
    """Incremental JSONL trace writer (attachable as a tracer sink).

    Parameters
    ----------
    target:
        A path (``"-"`` for stdout) or an open text file object.
    meta:
        Run provenance stored in the header (impl, scenario, seed, ...).

    Usage::

        writer = StreamingTraceWriter(path, meta={"seed": 2014})
        writer.attach(tracer)           # every event spills as it lands
        ...run...
        writer.close(ledger_total_j=ledger.total_energy_j())

    The header is written eagerly at construction, so an unwritable
    target fails *before* the run burns any simulation time. Also a
    context manager (``close()`` on exit, without footer extras).
    """

    def __init__(
        self,
        target: Union[str, Path, IO[str]],
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._owns_file = False
        if hasattr(target, "write"):
            self._file: IO[str] = target  # type: ignore[assignment]
        elif str(target) == "-":
            self._file = sys.stdout
        else:
            self._file = Path(target).open("w", encoding="utf-8")
            self._owns_file = True
        self.events_written = 0
        self._closed = False
        self._pieces = _PerKind(_line_pieces)
        self._file.write(_header_line(meta))

    def attach(self, tracer: Tracer) -> "StreamingTraceWriter":
        """Register on ``tracer`` so every appended event streams out."""
        tracer.add_sink(self.write_event)
        return self

    def write_event(self, event: TraceEvent) -> None:
        if self._closed:
            raise ValueError("write_event() on a closed StreamingTraceWriter")
        self._file.write(_line(event, self._pieces[event.kind]))
        self.events_written += 1

    def close(self, **footer_fields: Any) -> None:
        """Write the footer (event count + any extras) and close.

        Idempotent; extra keyword fields (e.g. ``ledger_total_j``,
        ``dropped``) land inside the footer object.
        """
        if self._closed:
            return
        self._file.write(_footer_line(self.events_written, footer_fields))
        self._file.flush()
        if self._owns_file:
            self._file.close()
        self._closed = True

    def __enter__(self) -> "StreamingTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<StreamingTraceWriter {self.events_written} events {state}>"


class TraceReader:
    """Read a JSONL trace back into :class:`TraceEvent` objects.

    The header is parsed (and version-checked) at construction;
    :meth:`read` returns the full event list and populates
    :attr:`footer`. Rejects traces written by a newer *major* schema
    with :class:`TraceSchemaError` — forward-compatible within a major
    (unknown minor additions are ignored), never across one.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.footer: Optional[Dict[str, Any]] = None
        with self.path.open("r", encoding="utf-8") as fh:
            first = fh.readline()
        self.header = self._parse_header(first)
        meta = self.header.get("meta")
        self.meta: Dict[str, Any] = meta if isinstance(meta, dict) else {}
        #: The reader's intern table (see :func:`event_from_dict`).
        self._kinds: Dict[tuple, EventKind] = {}

    def _parse_header(self, line: str) -> Dict[str, Any]:
        try:
            header = json.loads(line) if line.strip() else None
        except json.JSONDecodeError:
            header = None
        if not isinstance(header, dict) or header.get("schema") != SCHEMA:
            raise TraceSchemaError(
                f"{self.path}: not a {SCHEMA} JSONL trace (missing or "
                f"malformed header line)"
            )
        version = header.get("schema_version")
        try:
            major, minor = (int(p) for p in str(version).split("."))
        except (TypeError, ValueError):
            raise TraceSchemaError(
                f"{self.path}: unparseable schema_version {version!r} "
                f"(expected 'MAJOR.MINOR')"
            ) from None
        if major > SCHEMA_VERSION[0]:
            raise TraceSchemaError(
                f"{self.path}: trace schema {major}.{minor} is newer than "
                f"the supported {schema_version_str()} — upgrade repro to "
                f"read this trace"
            )
        return header

    def iter_events(self) -> Iterator[TraceEvent]:
        """Yield events in file (emission) order; capture the footer."""
        with self.path.open("r", encoding="utf-8") as fh:
            next(fh, None)  # the header, parsed at construction
            # One line of lookahead: only the *final* line may legally be
            # unparseable (a run killed mid-write).
            pending: Optional[Tuple[int, str]] = None
            for item in enumerate(fh, start=2):
                if pending is not None:
                    yield from self._decode(*pending, is_last=False)
                pending = item
            if pending is not None:
                yield from self._decode(*pending, is_last=True)

    def _decode(self, lineno: int, line: str, is_last: bool) -> Iterator[TraceEvent]:
        if not line.strip():
            return
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if is_last:
                raise TraceTruncatedError(
                    f"{self.path}:{lineno}: truncated trace — the final line "
                    f"is incomplete (was the writing run killed?)"
                ) from None
            raise TraceSchemaError(
                f"{self.path}:{lineno}: invalid JSON ({exc})"
            ) from None
        if "footer" in record:
            self.footer = record["footer"]
            return
        yield event_from_dict(record, self._kinds)

    def read(self) -> List[TraceEvent]:
        """All events, in file order (sort with ``TraceEvent.sort_key``)."""
        return list(self.iter_events())

    def __repr__(self) -> str:
        return f"<TraceReader {self.path} v{self.header.get('schema_version')}>"


def read_trace(path: Union[str, Path]) -> "tuple[List[TraceEvent], TraceReader]":
    """Convenience: ``(events, reader)`` for ``path`` (footer populated)."""
    reader = TraceReader(path)
    return reader.read(), reader


def to_jsonl(
    source: Union[Tracer, List[TraceEvent]],
    meta: Optional[Dict[str, Any]] = None,
    **footer_fields: Any,
) -> str:
    """Serialise a whole tracer/event list as one JSONL string.

    The non-streaming sibling of :class:`StreamingTraceWriter` — same
    byte-stable format, for when the events already fit in memory.
    Lines are joined in blocks of :data:`~repro.trace.export.BLOCK`
    events before the final join.
    """
    events = _events(source)
    pieces = _PerKind(_line_pieces)
    blocks = [_header_line(meta)]
    for start in range(0, len(events), BLOCK):
        blocks.append(
            "".join([_line(e, pieces[e.kind]) for e in events[start : start + BLOCK]])
        )
    blocks.append(_footer_line(len(events), footer_fields))
    return "".join(blocks)
