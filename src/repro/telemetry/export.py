"""Exporter and diffing for metrics snapshots.

The wire format is the OpenMetrics/Prometheus text exposition, byte-
stable (families and label sets are sorted in the snapshot, floats use
``repr`` round-trip formatting): ``# TYPE``/``# HELP`` per family,
cumulative ``_bucket{le=...}`` histogram samples, a final ``# EOF``
terminator. This is what CI uploads per scenario and what
``repro metrics diff`` compares against the committed golden.

``diff_openmetrics`` mirrors ``repro trace diff``: structural drift
(series appearing/disappearing) or a value delta beyond thresholds
means a non-empty diff, and the CLI exits 1.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

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


_SAMPLE_RE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


class MetricsParseError(ValueError):
    """A line in an exposition file did not parse."""


def parse_openmetrics(text: str) -> "Dict[str, float]":
    """Parse an exposition file back into ``{sample_key: value}``.

    Sample keys are ``name{labels}`` exactly as rendered (label sets are
    emitted sorted, so keys are canonical). Comment lines (``# HELP``,
    ``# TYPE``, ``# EOF``) are skipped.
    """
    samples: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise MetricsParseError(f"line {lineno}: unparseable sample: {line!r}")
        name, labels, value = m.groups()
        key = name + (labels or "")
        if key in samples:
            raise MetricsParseError(f"line {lineno}: duplicate sample {key!r}")
        try:
            samples[key] = float(value)
        except ValueError as exc:
            raise MetricsParseError(f"line {lineno}: bad value {value!r}") from exc
    return samples


class MetricsDiff:
    """Structured comparison of two exposition files."""

    def __init__(self, rows, only_a, only_b, rel_tol, abs_tol):
        #: ``(key, a, b)`` for samples whose delta exceeded thresholds.
        self.rows = rows
        self.only_a = only_a
        self.only_b = only_b
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol

    @property
    def drifted(self) -> bool:
        return bool(self.rows or self.only_a or self.only_b)

    def render(self) -> str:
        if not self.drifted:
            return "metrics identical within thresholds"
        lines = [
            f"metrics drift (rel_tol={self.rel_tol:g}, abs_tol={self.abs_tol:g}):"
        ]
        for key in self.only_a:
            lines.append(f"  - only in A: {key}")
        for key in self.only_b:
            lines.append(f"  - only in B: {key}")
        for key, a, b in self.rows:
            lines.append(f"  - {key}: {_format_value(a)} -> {_format_value(b)}")
        return "\n".join(lines)


def diff_openmetrics(
    text_a: str, text_b: str, rel_tol: float = 0.0, abs_tol: float = 0.0
) -> MetricsDiff:
    """Compare two exposition files sample-by-sample.

    A sample drifts when ``|b - a| > abs_tol + rel_tol * max(|a|, |b|)``;
    with both thresholds 0 (the default) any difference counts, which is
    what the golden gate wants.
    """
    a = parse_openmetrics(text_a)
    b = parse_openmetrics(text_b)
    only_a = sorted(k for k in a if k not in b)
    only_b = sorted(k for k in b if k not in a)
    rows = []
    for key in sorted(set(a) & set(b)):
        va, vb = a[key], b[key]
        if abs(vb - va) > abs_tol + rel_tol * max(abs(va), abs(vb)):
            rows.append((key, va, vb))
    return MetricsDiff(rows, only_a, only_b, rel_tol, abs_tol)
