"""Resilience metrics: how a run behaved *under injected faults*.

One :class:`ResilienceMetrics` captures what the power/latency metrics
in :mod:`repro.metrics.run` deliberately ignore — what broke, what was
lost, how fast the system came back, and what the recovery cost:

* **latency** — deadline misses, worst latency against the bound
  ``L + Δ`` (a watchdog-recovered slot may legally be one slot late);
* **loss** — items shed by degradation policies, with the conservation
  check ``produced == consumed + shed + buffered`` proving every
  discarded item is accounted for;
* **recovery** — lost timer signals vs watchdog recoveries, and the
  time from the last fault window's end until the system stopped
  missing deadlines;
* **cost** — extra wakeups spent recovering and mean power during the
  fault windows vs the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class ConsumerResilience:
    """One consumer's share of a faulted run (report breakdown row)."""

    owner: str
    produced: int = 0
    consumed: int = 0
    items_shed: int = 0
    buffered: int = 0
    deadline_misses: int = 0
    max_latency_s: float = 0.0
    #: Whether this consumer was re-homed off a failed core.
    migrated: bool = False
    #: Believed migration cost (ω for an immediate non-latched
    #: re-reservation; 0 for latched or deferred moves).
    migration_energy_j: float = 0.0
    #: Kill-to-first-completed-batch time on the new core (None when
    #: not migrated or never recovered).
    migration_recovery_s: Optional[float] = None

    @property
    def conservation_ok(self) -> bool:
        return self.produced == self.consumed + self.items_shed + self.buffered

    #: Sort key: the "worst" consumer missed the most deadlines, then
    #: served the latest item, then shed the most.
    @property
    def badness(self):
        return (self.deadline_misses, self.max_latency_s, self.items_shed)

    def to_dict(self) -> Dict:
        return {
            "owner": self.owner,
            "produced": self.produced,
            "consumed": self.consumed,
            "items_shed": self.items_shed,
            "buffered": self.buffered,
            "deadline_misses": self.deadline_misses,
            "max_latency_s": self.max_latency_s,
            "migrated": self.migrated,
            "migration_energy_j": self.migration_energy_j,
            "migration_recovery_s": self.migration_recovery_s,
            "conservation_ok": self.conservation_ok,
        }


@dataclass
class ResilienceMetrics:
    """Everything the chaos harness measures in one faulted run."""

    scenario: str
    duration_s: float
    #: Response-latency bound L and slot size Δ the run was held to.
    max_response_latency_s: float
    slot_size_s: float

    produced: int = 0
    consumed: int = 0
    #: Items discarded by overflow degradation policies.
    items_shed: int = 0
    #: Items still buffered (or mid-service) when the run ended.
    buffered: int = 0

    deadline_misses: int = 0
    max_latency_s: float = 0.0
    #: Slot timer signals the fault model swallowed.
    lost_signals: int = 0
    #: Slots fired late by the watchdog — wakeups spent recovering.
    watchdog_recoveries: int = 0
    #: Unscheduled (overflow) wakeups — burst/stall pressure shows here.
    overflow_wakeups: int = 0
    scheduled_wakeups: int = 0

    #: Seconds from the end of the last fault window until the last
    #: deadline miss (0 = recovered instantly or never misbehaved).
    recovery_time_s: float = 0.0
    #: Mean machine power over the whole run (exact ledger watts).
    power_w: float = 0.0
    #: Mean machine power during the fault windows only (None when the
    #: scenario has no faults).
    power_under_faults_w: Optional[float] = None
    #: Upsize requests the pool denied (forced-contention visibility).
    pool_contention_events: int = 0
    #: Implementation under test ("PBPL" or a baseline label).
    impl: str = "PBPL"
    #: HardenedPredictor clamp events (rate spikes rejected as outliers;
    #: 0 for unhardened predictors and the baselines).
    predictor_clamps: int = 0
    #: HardenedPredictor re-convergences (clamp streaks accepted as a
    #: genuine level shift).
    predictor_reconvergences: int = 0
    #: Core managers fail-stopped during the run.
    cores_failed: int = 0
    #: Consumers re-homed off failed cores.
    consumers_migrated: int = 0
    #: Immediate re-reservations made at migration time.
    migration_relatches: int = 0
    #: Immediate re-reservations that latched onto an existing slot.
    migration_latched: int = 0
    #: Summed believed migration cost across all migrations.
    migration_energy_j: float = 0.0
    #: Worst kill-to-all-consumers-recovered time across core failures
    #: (None when no core failed or some consumer never recovered).
    migration_recovery_s: Optional[float] = None
    #: Migrated consumers that never completed a post-migration batch.
    migration_unrecovered: int = 0
    #: Pipeline scenarios: the stock topology the faults ran against
    #: (None for independent-pair scenarios).
    topology: Optional[str] = None
    #: Pipeline scenarios: forward deliveries that hit a full
    #: downstream buffer (back-pressure pushed upstream).
    backpressure_stalls: int = 0
    #: Per-consumer breakdown rows (empty when not collected).
    per_consumer: List[ConsumerResilience] = field(default_factory=list)
    #: Free-form per-fault notes ("stall 0.8-1.3s on consumer-0", ...).
    notes: List[str] = field(default_factory=list)

    # -- derived checks ---------------------------------------------------------
    @property
    def latency_bound_s(self) -> float:
        """The resilience guarantee: L plus one watchdog-recovered slot."""
        return self.max_response_latency_s + self.slot_size_s

    @property
    def latency_bound_ok(self) -> bool:
        """No item exceeded ``L + Δ`` (shed items never count — they
        were explicitly discarded, not served late)."""
        return self.max_latency_s <= self.latency_bound_s + 1e-9

    @property
    def conservation_ok(self) -> bool:
        """Every produced item is consumed, shed, or still buffered."""
        return self.produced == self.consumed + self.items_shed + self.buffered

    @property
    def verdict(self) -> str:
        """One-word row verdict for the resilience report."""
        if not self.conservation_ok:
            return "LEAKED"
        if self.latency_bound_ok:
            return "OK"
        return "SHED" if self.items_shed > 0 else "VIOLATED"

    @property
    def worst_consumer(self) -> Optional[ConsumerResilience]:
        """The consumer that fared worst (most misses, then latest item,
        then most shed); None when no breakdown was collected."""
        if not self.per_consumer:
            return None
        return max(self.per_consumer, key=lambda c: c.badness)

    def to_dict(self) -> Dict:
        """JSON-friendly dump (fields + derived checks)."""
        worst = self.worst_consumer
        return {
            "scenario": self.scenario,
            "impl": self.impl,
            "duration_s": self.duration_s,
            "produced": self.produced,
            "consumed": self.consumed,
            "items_shed": self.items_shed,
            "buffered": self.buffered,
            "deadline_misses": self.deadline_misses,
            "max_latency_s": self.max_latency_s,
            "latency_bound_s": self.latency_bound_s,
            "lost_signals": self.lost_signals,
            "watchdog_recoveries": self.watchdog_recoveries,
            "overflow_wakeups": self.overflow_wakeups,
            "scheduled_wakeups": self.scheduled_wakeups,
            "recovery_time_s": self.recovery_time_s,
            "power_w": self.power_w,
            "power_under_faults_w": self.power_under_faults_w,
            "pool_contention_events": self.pool_contention_events,
            "predictor_clamps": self.predictor_clamps,
            "predictor_reconvergences": self.predictor_reconvergences,
            "cores_failed": self.cores_failed,
            "consumers_migrated": self.consumers_migrated,
            "migration_relatches": self.migration_relatches,
            "migration_latched": self.migration_latched,
            "migration_energy_j": self.migration_energy_j,
            "migration_recovery_s": self.migration_recovery_s,
            "migration_unrecovered": self.migration_unrecovered,
            # Constant keys kept so bench/'s chaos_matrix digest holds.
            "adaptive_shed_windows": 0,
            "adaptive_shed_s": 0.0,
            "topology": self.topology,
            "backpressure_stalls": self.backpressure_stalls,
            "latency_bound_ok": self.latency_bound_ok,
            "conservation_ok": self.conservation_ok,
            "verdict": self.verdict,
            "per_consumer": [c.to_dict() for c in self.per_consumer],
            "worst_consumer": worst.owner if worst else None,
            "notes": list(self.notes),
        }
