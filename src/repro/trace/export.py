"""Trace exporters: Chrome trace-event JSON (Perfetto-loadable) + text.

Two formats, both **byte-stable** for a given event list (the
determinism tests diff them across runs):

* :func:`to_chrome_json` — the Chrome trace-event "JSON object format"
  (``{"traceEvents": [...]}``) that both ``chrome://tracing`` and
  https://ui.perfetto.dev open directly. Tracks map to threads of one
  process, named via ``thread_name`` metadata events; timestamps are
  virtual-time microseconds.
* :func:`to_text_timeline` — a plain-text timeline (one line per
  event, chronological) for terminals, diffs and golden tests.

:func:`validate_chrome_trace` is a dependency-free structural check of
the trace-event schema, used by the CLI smoke gate and CI.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.trace.tracer import COUNTER, INSTANT, SPAN, EventKind, TraceEvent, Tracer

#: The single simulated process all tracks live under.
PID = 1

#: Whole-trace exports join their records in blocks of this many events
#: before the final join (cf. ``ArrivalStream.CHUNK``). One join over every
#: record would hold ~10^5 small strings next to the result at once,
#: which raises the allocator's high-water mark even though the live
#: data is smaller.
BLOCK = 4096

_INF = float("inf")

_EventsOrTracer = Union[Tracer, List[TraceEvent]]


def _events(source: _EventsOrTracer) -> List[TraceEvent]:
    if isinstance(source, Tracer):
        source.finalize()
        return source.events
    return sorted(source, key=TraceEvent.sort_key)


def _track_ids(events: List[TraceEvent]) -> Dict[str, int]:
    """Stable track → tid mapping (sorted by name; tids start at 1)."""
    tracks = sorted({kind.track for kind in {e.kind for e in events}})
    return {track: i + 1 for i, track in enumerate(tracks)}


class _PerKind(dict):
    """``kind → pieces``, each kind's pieces built on first use.

    An export renders what the events of one :class:`EventKind` share
    (quoted names, the tid, the sorted-key plan) once, then only each
    event's numbers and values.
    """

    def __init__(self, build: Callable[[EventKind], Any]) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, kind: EventKind) -> Any:
        pieces = self[kind] = self.build(kind)
        return pieces


def _args_plan(keys: tuple) -> Optional[Tuple[Tuple[int, str], ...]]:
    """How to write args with these keys as :func:`_json` would: the
    ``(index into values, quoted-key prefix)`` pairs in sorted-key
    order, or ``None`` when a key is not exactly ``str`` (those events
    go through ``_json(e.args)``)."""
    if not all(type(key) is str for key in keys):
        return None
    return tuple(
        (i, f"{_quote(keys[i])}:")
        for i in sorted(range(len(keys)), key=keys.__getitem__)
    )


def _render_args(plan: Optional[Tuple[Tuple[int, str], ...]], e: TraceEvent) -> str:
    """``_json(e.args)``, written from the event's values and its kind's
    :func:`_args_plan` (the one args renderer of every export)."""
    if plan is None:
        return _json(e.args)
    return _json_object(plan, e.values)


def _json_object(plan: Tuple[Tuple[int, str], ...], values: tuple) -> str:
    """The JSON object of ``values`` laid out by an :func:`_args_plan`;
    ``_json`` writes its str-keyed dicts through it too."""
    parts = []
    for i, prefix in plan:
        item = values[i]
        kind = type(item)
        if kind is int or kind is float and item - item == 0.0:
            # str() of an exact int or finite float is its JSON text.
            parts.append(f"{prefix}{item}")
        elif kind is str:
            parts.append(prefix + _quote(item))
        else:
            parts.append(prefix + _json(item))
    return "{" + ",".join(parts) + "}"


def _json(value: Any) -> str:
    """``value`` as compact, key-sorted ASCII JSON, clamped to safe values.

    The text is ``json.dumps(v, sort_keys=True, separators=(",", ":"))``
    of ``value`` with NaN and ±inf floats replaced by their quoted
    ``repr``, keys by ``str(key)`` (the last of colliding keys wins),
    tuples by lists and any other object by its quoted ``str()`` —
    built directly, with no copy of the value and no encoder object.
    Exact-type checks take what trace args hold (str-keyed dicts of
    str, int, float and bool); subclasses and everything else go
    through the ``isinstance`` checks below, in the clamp's order.
    """
    cls = type(value)
    if cls is dict:
        plan = _args_plan(tuple(value))
        if plan is not None:
            return _json_object(plan, tuple(value.values()))
    if cls is str:
        return _quote(value)
    if cls is float and value - value == 0.0:
        return float.__repr__(value)
    if cls is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, float):
        # NaN/Inf are not JSON; stringify them rather than emit invalid output.
        if value != value or value in (_INF, -_INF):
            return _quote(repr(value))
        return float.__repr__(value)
    if isinstance(value, dict):
        safe = {str(k): v for k, v in value.items()}
        parts = [f"{_quote(k)}:{_json(safe[k])}" for k in sorted(safe)]
        return "{" + ",".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([_json(v) for v in value]) + "]"
    return _quote(str(value))


def _field(value: Any) -> str:
    """An event's own field (a str, number or ``None``) as ``json.dumps``
    writes it: unclamped, so NaN and ±inf come out bare."""
    cls = type(value)
    if cls is str:
        return _quote(value)
    if cls is float and value - value == 0.0:
        return float.__repr__(value)
    if cls is int:
        return int.__repr__(value)
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if value is None or isinstance(value, (str, int, float)):
        return _json(value)
    raise TypeError(
        f"trace event field of type {type(value).__name__} is not a str, "
        f"number or None"
    )


def _chrome_pieces(kind: EventKind, tid_ts: Dict[str, str]) -> tuple:
    """``(phase, plan, a, b)``: a kind's Chrome record around its numbers.

    A span record is ``,{"args":`` + args + a + dur + b + ts + ``}``, an
    instant's ``,{"args":`` + args + a + ts + ``}``, a counter's a +
    value + b + ts + ``}`` (``plan`` is the index of ``"value"``) and
    any other phase's a + ts + ``}``.
    """
    cat = _field(kind.category)
    name = _field(kind.name)
    tid = tid_ts[kind.track]
    phase = kind.phase
    if phase == SPAN:
        return (
            SPAN, _args_plan(kind.keys), f',"cat":{cat},"dur":',
            f',"name":{name},"ph":"X","pid":{PID},{tid}',
        )
    if phase == INSTANT:
        # "s":"t" marks a thread-scoped instant.
        return (
            INSTANT, _args_plan(kind.keys),
            f',"cat":{cat},"name":{name},"ph":"i","pid":{PID},"s":"t",{tid}', "",
        )
    if phase == COUNTER:
        keys = kind.keys
        return (
            COUNTER, keys.index("value") if "value" in keys else None,
            f',{{"args":{{{name}:',
            f'}},"cat":{cat},"name":{name},"ph":"C","pid":{PID},{tid}',
        )
    return (
        None, None,
        f',{{"cat":{cat},"name":{name},"ph":{_field(phase)},"pid":{PID},{tid}', "",
    )


def to_chrome_json(source: _EventsOrTracer) -> str:
    """Serialise to the Chrome trace-event JSON format (byte-stable).

    Keys are sorted and separators compact, as ``json.dumps(...,
    sort_keys=True, separators=(",", ":"))`` would write the document;
    each record is one f-string per phase around its kind's pieces.
    """
    events = _events(source)
    tids = _track_ids(events)
    # Every record ends in '"tid":N,"ts":<ts>' (keys sorted); the
    # track's part of that is in its kind's pieces. Event records carry
    # their own leading comma: there are metadata records before them
    # whenever there are events.
    tid_ts = {track: f'"tid":{tid},"ts":' for track, tid in tids.items()}
    pieces = _PerKind(lambda kind: _chrome_pieces(kind, tid_ts))
    blocks = [
        '{"displayTimeUnit":"ms","otherData":{"clock":"virtual",'
        '"source":"repro.trace"},"traceEvents":['
    ]
    if tids:  # thread_name metadata, one record per track in tid order
        blocks.append(",".join([
            f'{{"args":{{"name":{_field(track)}}},"name":"thread_name",'
            f'"ph":"M","pid":{PID},"tid":{tid}}}'
            for track, tid in tids.items()
        ]))
    for start in range(0, len(events), BLOCK):
        records = []
        for e in events[start : start + BLOCK]:
            phase, plan, a, b = pieces[e.kind]
            ts = _field(e.ts_s * 1e6)
            if phase == SPAN:
                records.append(
                    f',{{"args":{_render_args(plan, e)}{a}'
                    f'{_field((e.dur_s or 0.0) * 1e6)}{b}{ts}}}'
                )
            elif phase == INSTANT:
                records.append(f',{{"args":{_render_args(plan, e)}{a}{ts}}}')
            elif phase == COUNTER:
                value = "0" if plan is None else _json(e.values[plan])
                records.append(f"{a}{value}{b}{ts}}}")
            else:
                records.append(f"{a}{ts}}}")
        blocks.append("".join(records))
    blocks.append("]}")
    # One join over the whole document: concatenating around a joined
    # body would briefly hold three copies of it.
    return "".join(blocks)


def chrome_trace_dict(source: _EventsOrTracer) -> Dict[str, Any]:
    """The Chrome trace-event document as a dict (parsed back from
    :func:`to_chrome_json`, so there is one serializer)."""
    return json.loads(to_chrome_json(source))


def to_text_timeline(source: _EventsOrTracer) -> str:
    """A human-readable, byte-stable timeline (one event per line)."""
    events = _events(source)
    width = max((len(e.track) for e in events), default=5)
    lines = []
    for e in events:
        stamp = f"{e.ts_s * 1e3:12.6f}"
        args = e.args
        if e.phase == SPAN:
            # Spans cut by the end of the run carry truncated=True (set
            # by Tracer.finalize); surface it in the duration field
            # rather than burying it in the args dict.
            cut = ", truncated" if args.get("truncated") else ""
            body = f"[span] {e.name} ({(e.dur_s or 0.0) * 1e3:.6f} ms{cut})"
        elif e.phase == COUNTER:
            value = args.get("value", 0)
            value_text = f"{value:g}" if isinstance(value, float) else str(value)
            body = f"[ctr ] {e.name} = {value_text}"
        else:
            body = f"[inst] {e.name}"
        extra = {} if e.phase == COUNTER else {
            k: v for k, v in args.items() if k != "truncated"
        }
        if extra:
            parts = ", ".join(
                f"{k}={_format_arg(v)}" for k, v in sorted(extra.items())
            )
            body += f" {{{parts}}}"
        lines.append(f"{stamp} ms  {e.track:<{width}}  {body}")
    return "\n".join(lines)


def _format_arg(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


# -- schema validation -----------------------------------------------------------

_PHASES = {"X", "B", "E", "i", "I", "C", "M", "b", "e", "n", "s", "t", "f"}


def validate_chrome_trace(trace: Union[str, Dict[str, Any]]) -> List[str]:
    """Structural validation against the trace-event format.

    Returns a list of human-readable problems (empty = valid). Checks
    the constraints Perfetto's importer actually relies on: the
    top-level shape, required per-event fields, phase vocabulary,
    non-negative timestamps/durations, and counter-args numericness.
    """
    errors: List[str] = []
    if isinstance(trace, str):
        try:
            trace = json.loads(trace)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"]
    if not isinstance(trace, dict):
        return ["top level must be a JSON object with 'traceEvents'"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            errors.append(f"{where}: not an object")
            continue
        phase = e.get("ph")
        if phase not in _PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(e.get("name"), str) or not e["name"]:
            errors.append(f"{where}: missing/empty 'name'")
        if not isinstance(e.get("pid"), int):
            errors.append(f"{where}: 'pid' must be an int")
        if not isinstance(e.get("tid"), int):
            errors.append(f"{where}: 'tid' must be an int")
        if phase == "M":
            args = e.get("args")
            if not isinstance(args, dict) or not args:
                errors.append(f"{where}: metadata event needs args")
            continue
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: 'ts' must be a non-negative number")
        if phase == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: complete event needs 'dur' >= 0")
        if phase == "C":
            args = e.get("args")
            if not isinstance(args, dict) or not args:
                errors.append(f"{where}: counter event needs args")
            elif not all(isinstance(v, (int, float)) for v in args.values()):
                errors.append(f"{where}: counter args must be numeric")
    if len(errors) > 20:
        errors = errors[:20] + [f"... and {len(errors) - 20} more"]
    return errors
