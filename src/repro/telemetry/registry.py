"""Metrics registry: get-or-create typed instruments keyed by labels.

Most series are *views*: a counter or gauge registered once with
``read=`` (``metrics.counter("...", read=lambda: stats.produced,
consumer=owner)``) reads the count the model already keeps when
:meth:`MetricsRegistry.snapshot` runs, so it costs nothing while the run
goes and cannot disagree with the model. Live instruments remain only
where the registry is the count's one home: a histogram (the model
keeps no distribution) and the power collector's ledger fold. A
disabled registry is the falsy :data:`NULL_REGISTRY` singleton, which
hands out shared no-op instruments and ignores ``read``.

Metric names are lowercase snake_case literals checked statically by
``repro lint`` (METRIC001) against the generated table in
:mod:`repro.telemetry.names`; run ``repro lint --write-names`` after
adding an emission site.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.instruments import Counter, Gauge, Histogram, View

#: Canonical label-set form: sorted ``(key, value)`` string pairs.
LabelSet = Tuple[Tuple[str, str], ...]

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_LABEL_RE = re.compile(r"^[a-z][a-z0-9_]*$")


class _Family:
    """All series sharing one metric name (one type, one help string)."""

    __slots__ = ("name", "kind", "help", "buckets", "series")

    def __init__(self, name, kind, help_text, buckets=None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.series: Dict[LabelSet, object] = {}


class MetricsSnapshot:
    """Decoupled, deterministic copy of a registry's state.

    ``families`` is a sorted list of ``(name, kind, help, series)``
    where ``series`` is a sorted list of ``(labels, state)`` — state is
    a number for counters/gauges and a :class:`Histogram` copy for
    histograms. Snapshots subtract (:meth:`delta`) to produce tumbling-
    window frames.
    """

    __slots__ = ("families",)

    def __init__(self, families):
        self.families = families

    def samples(self):
        """Yield ``(name, kind, labels, state)`` in deterministic order."""
        for name, kind, _help, series in self.families:
            for labels, state in series:
                yield name, kind, labels, state

    def value(self, name, **labels):
        """State of one series; raises ``KeyError`` when absent."""
        key = _label_key(labels)
        for fam_name, _kind, _help, series in self.families:
            if fam_name != name:
                continue
            for lab, state in series:
                if lab == key:
                    return state
            break
        raise KeyError(f"no series {name}{dict(key)}")

    def total(self, name, **labels):
        """Sum a counter/gauge family across series matching ``labels``."""
        # Normalize like _label_key so total(core=0) matches ("core", "0").
        want = set((k, str(v)) for k, v in labels.items())
        total = 0
        seen = False
        for fam_name, kind, _help, series in self.families:
            if fam_name != name:
                continue
            if kind == "histogram":
                raise ValueError(f"total() is for scalar families, not {name}")
            for lab, state in series:
                if want <= set((k, str(v)) for k, v in lab):
                    total += state
                    seen = True
        if not seen:
            raise KeyError(f"no series matching {name}{labels}")
        return total

    def delta(self, prev: "MetricsSnapshot") -> "MetricsSnapshot":
        """This snapshot minus ``prev``: counters and histograms become
        per-window deltas, gauges keep their current (sampled) value.
        Series absent from ``prev`` delta against zero."""
        prev_by_name = {name: dict(series) for name, _k, _h, series in prev.families}
        out = []
        for name, kind, help_text, series in self.families:
            before = prev_by_name.get(name, {})
            rows = []
            for labels, state in series:
                if kind == "gauge":
                    rows.append((labels, state))
                elif kind == "histogram":
                    earlier = before.get(labels)
                    rows.append(
                        (labels, state.delta(earlier) if earlier else state.copy())
                    )
                else:
                    rows.append((labels, state - before.get(labels, 0)))
            out.append((name, kind, help_text, rows))
        return MetricsSnapshot(out)


def _label_key(labels) -> LabelSet:
    for k in labels:
        if not _LABEL_RE.match(k):
            raise ValueError(f"invalid label name: {k!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Live registry of typed instruments.

    ``const_labels`` (e.g. ``{"impl": "PBPL"}``) are merged into every
    series — the cheap way to tag a whole run without threading the
    label through every emission site.
    """

    def __init__(self, const_labels: Optional[Dict[str, str]] = None) -> None:
        self._families: Dict[str, _Family] = {}
        self.const_labels = dict(const_labels or {})
        _label_key(self.const_labels)  # validate eagerly

    def _series(self, name, kind, help_text, labels, buckets=None, read=None):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text, buckets)
            self._families[name] = family
        else:
            if family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"not {kind}"
                )
            if kind == "histogram" and family.buckets != buckets:
                raise ValueError(
                    f"histogram {name!r} already registered with buckets "
                    f"{family.buckets}, not {buckets}"
                )
            if help_text and not family.help:
                family.help = help_text
        merged = dict(self.const_labels)
        merged.update(labels)
        key = _label_key(merged)
        instrument = family.series.get(key)
        if read is not None:
            if instrument is not None:
                raise ValueError(f"series {name}{dict(key)} is already registered")
            instrument = family.series[key] = View(read)
        elif instrument is None:
            if kind == "counter":
                instrument = Counter()
            elif kind == "gauge":
                instrument = Gauge()
            else:
                instrument = Histogram(buckets)
            family.series[key] = instrument
        return instrument

    def counter(self, name, help="", read=None, **labels) -> Counter:
        """The counter series ``name{labels}``; with ``read``, a view
        whose value is ``read()`` at each snapshot (see :class:`View`)."""
        return self._series(name, "counter", help, labels, read=read)

    def gauge(self, name, help="", read=None, **labels) -> Gauge:
        """The gauge series ``name{labels}``; ``read`` as for :meth:`counter`."""
        return self._series(name, "gauge", help, labels, read=read)

    def histogram(self, name, buckets: Sequence[float], help="", **labels) -> Histogram:
        return self._series(name, "histogram", help, labels, tuple(float(b) for b in buckets))

    def snapshot(self) -> MetricsSnapshot:
        families = []
        for name in sorted(self._families):
            fam = self._families[name]
            rows = []
            for labels in sorted(fam.series):
                inst = fam.series[labels]
                state = inst.copy() if fam.kind == "histogram" else inst.value
                rows.append((labels, state))
            families.append((name, fam.kind, fam.help, rows))
        return MetricsSnapshot(families)


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount=1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0

    def set(self, value) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    bounds = ()
    counts = ()
    sum = 0.0
    count = 0

    def observe(self, value) -> None:
        pass


class NullRegistry:
    """Disabled registry: falsy, hands out shared no-op instruments.

    Mirrors :class:`repro.trace.NullTracer`: construction-time
    registration returns these shared singletons (and drops any
    ``read`` view), so a site can hold and call its handle whether or
    not metrics are on.
    """

    const_labels: Dict[str, str] = {}
    _NULL_COUNTER = _NullCounter()
    _NULL_GAUGE = _NullGauge()
    _NULL_HISTOGRAM = _NullHistogram()

    def __bool__(self) -> bool:
        return False

    def counter(self, name, help="", read=None, **labels) -> _NullCounter:
        return self._NULL_COUNTER

    def gauge(self, name, help="", read=None, **labels) -> _NullGauge:
        return self._NULL_GAUGE

    def histogram(self, name, buckets, help="", **labels) -> _NullHistogram:
        return self._NULL_HISTOGRAM

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot([])


#: Shared disabled registry — the default ``metrics`` everywhere.
NULL_REGISTRY = NullRegistry()
