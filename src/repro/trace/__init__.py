"""repro.trace — event-trace observability for the reproduction.

The paper's argument is temporal: power is explained by *when* cores
wake and how batching reshapes the slot timeline. This package records
that timeline as structured events — spans, instants and counters on
named tracks — with deterministic virtual-time stamps, and exports it
to Chrome trace-event / Perfetto JSON, a byte-stable text timeline, and
trace-driven energy attribution.

Typical use::

    from repro.trace import Tracer, TraceQuery, record_run, to_chrome_json

    run = record_run("PBPL", "webserver", duration_s=2.0)
    Path("trace.json").write_text(to_chrome_json(run.tracer))
    q = TraceQuery(run.tracer)
    slots = q.spans(name="slot", category="slot")

Instrumented layers: core-manager slot lifecycle, consumer batching and
ρ-minimisation decisions, buffer overflow actions, C-/P-state
transitions with exact per-segment energy, and fault-injection windows.
A disabled tracer (the default everywhere) is the falsy
:data:`NULL_TRACER` singleton — instrumentation sites cost one
truthiness check and nothing else.
"""

from repro.trace.aggregate import (
    PowerIndex,
    SpanAggregate,
    WakeupCause,
    aggregate_spans,
    render_report,
    wakeup_causes,
)
from repro.trace.energy import (
    SpanEnergy,
    attribute_span,
    attribute_spans,
    consumer_energy_table,
    energy_by_track,
    reconcile,
    trace_energy_j,
)
from repro.trace.export import (
    chrome_trace_dict,
    to_chrome_json,
    to_text_timeline,
    validate_chrome_trace,
)
from repro.trace.intervals import clip_events, clip_span
from repro.trace.power import TracePowerListener, core_track
from repro.trace.query import TraceQuery
from repro.trace.names import REGISTERED_NAMES
from repro.trace.stream import (
    SCHEMA_VERSION,
    StreamingTraceWriter,
    TraceReader,
    TraceSchemaError,
    TraceTruncatedError,
    read_trace,
    to_jsonl,
)
from repro.trace.tracer import NULL_TRACER, NullTracer, Span, TraceEvent, Tracer

#: Lazy exports (PEP 562): the recorder pulls in the full system stack
#: (core, impls, harness), and those layers import ``repro.trace.tracer``
#: for instrumentation — eager re-export here would be a cycle.
_LAZY = {"RecordedRun", "SCENARIOS", "record_run"}


def __getattr__(name):
    if name in _LAZY:
        # PEP 562 lazy boundary: the recorder (and through it the
        # harness) loads only on attribute access, never at import time.
        # repro: allow[LAYER001] -- sanctioned lazy recorder re-export
        from repro.trace import recorder

        return getattr(recorder, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "PowerIndex",
    "REGISTERED_NAMES",
    "RecordedRun",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "Span",
    "SpanAggregate",
    "SpanEnergy",
    "StreamingTraceWriter",
    "TraceEvent",
    "TracePowerListener",
    "TraceQuery",
    "TraceReader",
    "TraceSchemaError",
    "TraceTruncatedError",
    "Tracer",
    "WakeupCause",
    "aggregate_spans",
    "attribute_span",
    "attribute_spans",
    "chrome_trace_dict",
    "clip_events",
    "clip_span",
    "consumer_energy_table",
    "core_track",
    "energy_by_track",
    "read_trace",
    "reconcile",
    "record_run",
    "render_report",
    "to_chrome_json",
    "to_jsonl",
    "to_text_timeline",
    "trace_energy_j",
    "validate_chrome_trace",
    "wakeup_causes",
]
