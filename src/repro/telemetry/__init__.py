"""repro.telemetry — low-overhead aggregated observability.

Where :mod:`repro.trace` records *every* event (full fidelity, bounded
by a ring), this package records *aggregates*: typed instruments —
monotonic counters, gauges, fixed-bucket histograms — registered by
name and label set, flushed into bounded tumbling-window series in
virtual time, and exported as OpenMetrics/Prometheus text or
byte-stable JSONL. A disabled registry is the falsy
:data:`NULL_REGISTRY` singleton, so the default hot path costs one
truthiness check (gated by ``repro metrics overhead``).

Typical use::

    from repro.telemetry import MetricsRegistry, to_openmetrics
    from repro.trace import record_run

    registry = MetricsRegistry(const_labels={"impl": "PBPL"})
    run = record_run("PBPL", "webserver", duration_s=0.3, metrics=registry)
    print(to_openmetrics(registry.snapshot()))

The package also hosts the deterministic DES self-profiler
(:class:`KernelProfiler`), which mirrors the kernel's dispatch loop
while timing every callback through the ``harness/clock`` shim.
"""

from repro.telemetry.export import (
    MetricsDiff,
    MetricsParseError,
    diff_openmetrics,
    frames_to_jsonl,
    parse_openmetrics,
    render_frames,
    render_table,
    snapshot_to_jsonl,
    to_openmetrics,
)
from repro.telemetry.instruments import Counter, Gauge, Histogram
from repro.telemetry.names import REGISTERED_NAMES
from repro.telemetry.reconcile import (
    ReconcileCheck,
    reconcile_core_wakeups,
    reconcile_counters,
    reconcile_energy,
    render_checks,
)
from repro.telemetry.registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    MetricsSnapshot,
    NullRegistry,
)
from repro.telemetry.window import TumblingWindows, WindowFrame

#: Lazy exports (PEP 562): the collector touches the cpu layer and the
#: profiler imports the sanctioned host-clock shim; keeping them lazy
#: lets kernel modules import ``repro.telemetry.registry`` without
#: dragging those layers in at import time.
_LAZY = {"PowerCollector", "KernelProfiler", "ProfileReport", "HotSpot"}


def __getattr__(name):
    if name == "PowerCollector":
        from repro.telemetry.collectors import PowerCollector

        return PowerCollector
    if name in ("KernelProfiler", "ProfileReport", "HotSpot"):
        from repro.telemetry import profiler

        return getattr(profiler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HotSpot",
    "KernelProfiler",
    "MetricsDiff",
    "MetricsParseError",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_REGISTRY",
    "NullRegistry",
    "PowerCollector",
    "ProfileReport",
    "REGISTERED_NAMES",
    "ReconcileCheck",
    "TumblingWindows",
    "WindowFrame",
    "diff_openmetrics",
    "frames_to_jsonl",
    "parse_openmetrics",
    "reconcile_core_wakeups",
    "reconcile_counters",
    "reconcile_energy",
    "render_checks",
    "render_frames",
    "render_table",
    "snapshot_to_jsonl",
    "to_openmetrics",
]
