"""Reconciliation of the registry's live folds against the run's accounts.

Every model count reaches the registry as a view read at snapshot time,
so it agrees by construction. The power collector's counters are the
exception: they fold the ledger's segments as they close, so they are
held to the consumer core's own wakeup count and — to <1e-9 J — the
exact :class:`repro.power.ledger.EnergyLedger` total. That guards the
wiring; the independent cross-check of the ledger itself is
``tests/power/test_energy_views.py``. ``repro metrics snapshot`` prints
this check table and exits non-zero on any mismatch; the unit tests
assert the same invariants.
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
