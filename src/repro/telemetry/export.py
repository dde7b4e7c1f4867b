"""Exporter for metrics snapshots.

The wire format is the OpenMetrics/Prometheus text exposition, byte-
stable (families and label sets are sorted in the snapshot, floats use
``repr`` round-trip formatting): ``# TYPE``/``# HELP`` per family,
cumulative ``_bucket{le=...}`` histogram samples, a final ``# EOF``
terminator. One sample per line, so the committed golden
``results/golden/pbpl_smoke.metrics.prom`` is checked by a byte
compare against a fresh ``repro bless``, and ``diff -u`` names the
first sample that moved. CI also uploads one file per chaos scenario.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.telemetry.registry import MetricsSnapshot

#: Prefix prepended to every exported family name.
PREFIX = "repro_"


def _format_value(v) -> str:
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == float("inf"):
            return "+Inf"
        if v == float("-inf"):
            return "-Inf"
        return repr(v)
    return str(v)


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _labels_text(labels, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def to_openmetrics(snapshot: MetricsSnapshot, prefix: str = PREFIX) -> str:
    """Render a snapshot as OpenMetrics-flavoured Prometheus text."""
    lines: List[str] = []
    for name, kind, help_text, series in snapshot.families:
        full = prefix + name
        if help_text:
            lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} {kind}")
        for labels, state in series:
            if kind == "histogram":
                cumulative = 0
                for bound, count in zip(
                    list(state.bounds) + [float("inf")], state.counts
                ):
                    cumulative += count
                    le = _labels_text(labels, (("le", _format_value(bound)),))
                    lines.append(f"{full}_bucket{le} {cumulative}")
                lines.append(f"{full}_sum{_labels_text(labels)} {_format_value(state.sum)}")
                lines.append(f"{full}_count{_labels_text(labels)} {state.count}")
            else:
                lines.append(f"{full}{_labels_text(labels)} {_format_value(state)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
