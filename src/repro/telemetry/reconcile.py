"""Reconciliation of registry totals against the harness's own accounts.

Counters are only trustworthy if they agree with the accounting the
rest of the harness already believes: the aggregated
:class:`repro.impls.base.PairStats`, the consumer core's wakeup count,
and — to <1e-9 J — the exact :class:`repro.power.ledger.EnergyLedger`.
The registry's joules are a view of the ledger's segments, so the
energy check guards that wiring; the independent cross-check of the
ledger itself is ``tests/power/test_energy_views.py``.
``repro metrics snapshot`` prints this check table and exits non-zero
on any mismatch; the unit tests assert the same invariants.
"""

from __future__ import annotations

from typing import List

from repro.telemetry.registry import MetricsSnapshot


class ReconcileCheck:
    """One metric-total-vs-reference comparison."""

    __slots__ = ("name", "metric", "reference", "tol")

    def __init__(self, name: str, metric, reference, tol: float = 0.0):
        self.name = name
        self.metric = metric
        self.reference = reference
        self.tol = tol

    @property
    def ok(self) -> bool:
        return abs(self.metric - self.reference) <= self.tol

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReconcileCheck({self.name}: metric={self.metric} "
            f"ref={self.reference} tol={self.tol})"
        )


def reconcile_counters(snapshot: MetricsSnapshot, stats) -> List[ReconcileCheck]:
    """Counter totals vs the aggregated pair statistics."""
    return [
        ReconcileCheck(
            "items_produced_total == stats.produced",
            snapshot.total("items_produced_total"),
            stats.produced,
        ),
        ReconcileCheck(
            "items_consumed_total == stats.consumed",
            snapshot.total("items_consumed_total"),
            stats.consumed,
        ),
        ReconcileCheck(
            "slots_fired_total == stats.scheduled_wakeups",
            snapshot.total("slots_fired_total"),
            stats.scheduled_wakeups,
        ),
        ReconcileCheck(
            "wakeups_total{kind=overflow} == stats.overflow_wakeups",
            snapshot.total("wakeups_total", kind="overflow"),
            stats.overflow_wakeups,
        ),
        ReconcileCheck(
            "overflows_total == stats.overflows",
            snapshot.total("overflows_total"),
            stats.overflows,
        ),
        ReconcileCheck(
            "overflow_drops_total == stats.items_shed",
            snapshot.total("overflow_drops_total"),
            stats.items_shed,
        ),
    ]


def reconcile_energy(
    snapshot: MetricsSnapshot, total_energy_j: float, tol_j: float = 1e-9
) -> List[ReconcileCheck]:
    """Registry joules (the ledger's segments, summed per series) vs the
    ledger's own total."""
    return [
        ReconcileCheck(
            "energy_joules_total == ledger total",
            snapshot.total("energy_joules_total"),
            total_energy_j,
            tol=tol_j,
        )
    ]


def reconcile_core_wakeups(
    snapshot: MetricsSnapshot, core_id: int, wakeups: int
) -> List[ReconcileCheck]:
    """Collector wakeup count vs the core's own transition counter."""
    return [
        ReconcileCheck(
            f"core_wakeups_total{{core={core_id}}} == core.total_wakeups",
            snapshot.total("core_wakeups_total", core=str(core_id)),
            wakeups,
        )
    ]


def render_checks(checks: List[ReconcileCheck]) -> str:
    """Terminal table: one OK/FAIL row per check."""
    lines = []
    for check in checks:
        status = "OK  " if check.ok else "FAIL"
        lines.append(
            f"  {status} {check.name}: metric={check.metric!r} "
            f"reference={check.reference!r}"
        )
    return "\n".join(lines)
