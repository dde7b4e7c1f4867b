"""Core power/state instrumentation for the tracer.

:class:`TracePowerListener` is a view over the
:class:`~repro.power.ledger.EnergyLedger`: registered with
``ledger.add_sink``, it writes the segments the ledger closes onto
per-core tracks:

* one **span per residency segment** — ``active`` or the C-state name —
  carrying the segment's power draw and the ledger's joules for it;
* one **instant per wakeup**, carrying the wakeup energy ω and the
  owner whose dispatch woke the core;
* a **power counter** stepped whenever a core's draw changes, so trace
  viewers draw the machine's power waveform (the paper's Fig. 1)
  directly.

Because every span and wakeup charge comes from the ledger, the sum of
``energy_j`` over a core's trace equals the ledger's per-core total —
:mod:`repro.trace.energy` exploits that to reconcile the trace against
the ledger and to attribute energy to arbitrary spans.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.cpu.cstates import CState
from repro.power.ledger import LedgerSink
from repro.trace.tracer import Tracer

#: Event category for residency spans (the energy-carrying ones).
RESIDENCY = "core.state"
#: Event category for wakeup instants (they carry ω joules).
WAKEUP = "core.wakeup"
#: Event category for the stepped power counter.
POWER = "core.power"


def core_track(core_id: int) -> str:
    """Track name hosting a core's state spans and power counter."""
    return f"core{core_id}"


class TracePowerListener(LedgerSink):
    """Mirrors the ledger's residency segments into the tracer.

    Attach with ``ledger.add_sink(listener)`` before running, and close
    it with ``ledger.remove_sink(listener)`` after the run (before
    ``tracer.finalize()``) — until then the last segment of each core
    is missing from the trace.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        # Last power_w counter value per core (the counter only steps on
        # a change of draw).
        self._level: Dict[int, float] = {}

    def segment_opened(self, core_id, t, label, power_w, active) -> None:
        if self._level.get(core_id) != power_w:
            self._level[core_id] = power_w
            self.tracer.counter(core_track(core_id), "power_w", power_w, POWER)

    def segment_closed(self, core_id, t0, t1, label, power_w, active, energy_j) -> None:
        self.tracer.complete(
            core_track(core_id), label, t0, t1, RESIDENCY,
            power_w=power_w, energy_j=energy_j, active=active,
        )

    def wakeup_charged(
        self, core_id, t, owner: Any, from_cstate: CState, energy_j
    ) -> None:
        self.tracer.instant(
            core_track(core_id),
            "wakeup",
            WAKEUP,
            owner=str(owner),
            from_cstate=from_cstate.name,
            energy_j=energy_j,
        )
