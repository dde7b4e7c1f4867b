"""Registry-backed views of the energy ledger.

:class:`PowerCollector` is a :class:`repro.power.ledger.LedgerSink`:
registered with ``ledger.add_sink``, it folds the segments the
:class:`repro.power.ledger.EnergyLedger` closes into registry counters
(``energy_joules_total`` by phase, ``cstate_residency_seconds_total`` by
C-state, ``core_wakeups_total``). It prices nothing itself, so the
registry's joules are the ledger's joules; the independent audit of the
ledger lives in the test suite (``tests/power/test_energy_views.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.power.ledger import LedgerSink
from repro.telemetry.registry import MetricsRegistry


class PowerCollector(LedgerSink):
    """Mirrors energy/residency/wakeup accounting into a registry."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        # (core_id, state label) → (energy inc, residency inc): the bound
        # ``Counter.inc`` callables are resolved when a situation first
        # opens, so closing a segment — the per-transition hot path — is
        # one dict hit and two calls.
        self._incs: Dict[Tuple[int, str], Tuple[Callable, Callable]] = {}
        self._inc_wakeup: Dict[int, Tuple[Callable, Callable]] = {}

    def _energy_inc(self, core_id: int, phase: str) -> Callable:
        return self.registry.counter(
            "energy_joules_total",
            help="Exact integrated energy by phase (mirrors the ledger).",
            core=str(core_id),
            phase=phase,
        ).inc

    # -- ledger sink hooks --------------------------------------------------
    def segment_opened(self, core_id, t, label, power_w, active) -> None:
        key = (core_id, label)
        if key not in self._incs:
            self._incs[key] = (
                self._energy_inc(core_id, "active" if active else "idle"),
                self.registry.counter(
                    "cstate_residency_seconds_total",
                    help="Virtual seconds spent per core state.",
                    core=str(core_id),
                    state=label,
                ).inc,
            )

    def segment_closed(self, core_id, t0, t1, label, power_w, active, energy_j) -> None:
        inc_energy, inc_residency = self._incs[core_id, label]
        inc_energy(energy_j)
        inc_residency(t1 - t0)

    def wakeup_charged(self, core_id, t, owner, from_cstate, energy_j) -> None:
        pair = self._inc_wakeup.get(core_id)
        if pair is None:
            pair = (
                self._energy_inc(core_id, "wakeup"),
                self.registry.counter(
                    "core_wakeups_total",
                    help="Idle-to-active transitions per core.",
                    core=str(core_id),
                ).inc,
            )
            self._inc_wakeup[core_id] = pair
        inc_joules, inc_count = pair
        inc_joules(energy_j)
        inc_count()
