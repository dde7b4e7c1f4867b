"""Trace-driven power attribution: join spans against the power record.

The :class:`~repro.trace.power.TracePowerListener` writes the energy
ledger's residency segments (with the ledger's per-segment joules) and
wakeup charges into the trace. This module turns that record into
answers:

* :func:`trace_energy_j` — total joules in the trace (must reconcile
  with :meth:`repro.power.ledger.EnergyLedger.total_energy_j` to within
  float-summation noise — the ledger splits its own sums at mid-run
  settles, the trace never does; the CLI smoke gate enforces 1e-9);
* :func:`energy_by_track` — the same, split per core track;
* :func:`attribute_span` / :func:`attribute_spans` — energy of an
  arbitrary activity span (a consumer batch, a fired slot, a fault
  window) by integrating the recorded power steps over its interval,
  plus the ω of every wakeup inside it;
* :func:`consumer_energy_table` — joules per consumer batch track, the
  trace analogue of PowerTop's attribution column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.trace.power import RESIDENCY, WAKEUP
from repro.trace.query import TraceQuery
from repro.trace.tracer import TraceEvent


def trace_energy_j(query: TraceQuery) -> float:
    """Total joules recorded in the trace (residency + wakeups)."""
    total = 0.0
    for e in query.spans(category=RESIDENCY):
        total += e.args.get("energy_j", 0.0)
    for e in query.instants(category=WAKEUP):
        total += e.args.get("energy_j", 0.0)
    return total


def energy_by_track(query: TraceQuery) -> Dict[str, float]:
    """Joules per core track (residency segments + wakeup charges)."""
    out: Dict[str, float] = {}
    for e in query.spans(category=RESIDENCY):
        out[e.track] = out.get(e.track, 0.0) + e.args.get("energy_j", 0.0)
    for e in query.instants(category=WAKEUP):
        out[e.track] = out.get(e.track, 0.0) + e.args.get("energy_j", 0.0)
    return out


def reconcile(query: TraceQuery, ledger_total_j: float) -> float:
    """Absolute difference between trace energy and the ledger total."""
    return abs(trace_energy_j(query) - ledger_total_j)


def energy_by_phase(query: TraceQuery) -> Dict[Tuple[str, str], float]:
    """Joules per ``(track, phase-name)`` — the differ's energy view.

    A "phase" is a residency span name on a core track (``active``,
    ``C1-WFI``, ...) or the synthetic ``wakeup`` bucket collecting that
    track's ω charges. Summing the values reproduces
    :func:`trace_energy_j` exactly, so a diff over this map catches any
    energy that *moved between phases* even when the total is flat.
    """
    out: Dict[Tuple[str, str], float] = {}
    for e in query.spans(category=RESIDENCY):
        key = (e.track, e.name)
        out[key] = out.get(key, 0.0) + e.args.get("energy_j", 0.0)
    for e in query.instants(category=WAKEUP):
        key = (e.track, "wakeup")
        out[key] = out.get(key, 0.0) + e.args.get("energy_j", 0.0)
    return out


@dataclass
class SpanEnergy:
    """Energy attributed to one activity span."""

    track: str
    name: str
    start_s: float
    dur_s: float
    #: Joules from core residency power integrated over the span.
    residency_j: float
    #: Joules from wakeup charges (ω) landing inside the span.
    wakeup_j: float
    #: Wakeups inside the span.
    wakeups: int

    @property
    def total_j(self) -> float:
        return self.residency_j + self.wakeup_j


def attribute_span(
    query: TraceQuery, span: TraceEvent, core_track: Optional[str] = None
) -> SpanEnergy:
    """Energy of ``span`` by integrating the recorded power record.

    ``core_track`` names the core whose power applies (default: the
    span's ``core`` arg as ``core{N}``, else the span's own track).
    Residency energy is the overlap-weighted sum of the core's segment
    energies; wakeup energy is the ω of every wakeup instant on that
    core inside the span's interval.
    """
    if core_track is None:
        core = span.args.get("core")
        core_track = f"core{core}" if core is not None else span.track
    t0, t1 = span.ts_s, span.end_s
    residency = 0.0
    for seg in query.spans(category=RESIDENCY, track=core_track):
        if seg.end_s <= t0 or seg.ts_s >= t1:
            continue
        overlap = min(seg.end_s, t1) - max(seg.ts_s, t0)
        residency += seg.args.get("power_w", 0.0) * overlap
    wakeup_j = 0.0
    wakeups = 0
    for w in query.instants(category=WAKEUP, track=core_track):
        if t0 <= w.ts_s <= t1:
            wakeup_j += w.args.get("energy_j", 0.0)
            wakeups += 1
    return SpanEnergy(
        track=span.track,
        name=span.name,
        start_s=t0,
        dur_s=span.dur_s or 0.0,
        residency_j=residency,
        wakeup_j=wakeup_j,
        wakeups=wakeups,
    )


def attribute_spans(
    query: TraceQuery, spans: Sequence[TraceEvent]
) -> List[SpanEnergy]:
    """Attribute every span in ``spans`` (see :func:`attribute_span`)."""
    return [attribute_span(query, s) for s in spans]


def consumer_energy_table(query: TraceQuery) -> Dict[str, float]:
    """Joules per consumer, summed over its batch spans."""
    out: Dict[str, float] = {}
    for span in query.spans(name="batch", category="consumer"):
        energy = attribute_span(query, span)
        out[span.track] = out.get(span.track, 0.0) + energy.total_j
    return out
