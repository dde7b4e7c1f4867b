"""Per-process energy attribution — PowerTop's "power estimate" column.

The real PowerTop doesn't just count wakeups; it *attributes* system
power to processes by splitting measured consumption across causes.
This module reproduces that attribution over the simulation's exact
event stream:

* active energy — charged to the owner executing each slice, priced at
  the power level in effect during the slice;
* wakeup energy ω — charged to the owner whose dispatch woke the core;
* idle (and baseline) energy — left unattributed as "system".

Attribution is exact: idle joules and ω come from the ledger's own
segments and active slices use the same power model, so the shares sum
to the machine total, short only of active time that falls outside
every execution slice — properties the tests pin down. The experiment
harness uses it to answer questions the paper's per-implementation bars
cannot, e.g. *which consumer* of a heterogeneous set is responsible for
the wakeup bill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.cpu.core import Core
from repro.cpu.listeners import CoreListener
from repro.power.ledger import EnergyLedger, LedgerSink

#: Owner key for energy not caused by any tracked task.
SYSTEM = "<system>"


@dataclass
class OwnerEnergy:
    """Joules attributed to one owner."""

    active_j: float = 0.0
    wakeup_j: float = 0.0
    wakeups: int = 0
    busy_s: float = 0.0

    @property
    def total_j(self) -> float:
        return self.active_j + self.wakeup_j


@dataclass
class AttributionReport:
    """A per-owner energy breakdown over an observation window."""

    duration_s: float
    owners: Dict[Any, OwnerEnergy]
    idle_j: float

    @property
    def attributed_j(self) -> float:
        return sum(o.total_j for o in self.owners.values())

    @property
    def total_j(self) -> float:
        return self.attributed_j + self.idle_j

    def power_w(self, owner: Any) -> float:
        """Mean power attributed to ``owner`` over the window."""
        if owner not in self.owners:
            return 0.0
        return self.owners[owner].total_j / self.duration_s

    def share(self, owner: Any) -> float:
        """Fraction of attributed energy belonging to ``owner``."""
        total = self.attributed_j
        if total == 0:
            return 0.0
        return self.owners.get(owner, OwnerEnergy()).total_j / total

    def top(self, n: int = 5):
        """The ``n`` hungriest owners, PowerTop-style."""
        ranked = sorted(
            self.owners.items(), key=lambda kv: kv[1].total_j, reverse=True
        )
        return ranked[:n]


class EnergyAttributor(CoreListener, LedgerSink):
    """Attributes energy to task owners from core activity events.

    A core listener for execution slices (priced per owner here) and a
    ledger sink for wakeups and the idle residual::

        attributor = EnergyAttributor(ledger)
        machine.add_listener(attributor)
        ledger.add_sink(attributor)
        ...
        report = attributor.report()
    """

    def __init__(self, ledger: EnergyLedger) -> None:
        self.ledger = ledger
        self.env = ledger.env
        self.model = ledger.model
        self._start = self.env.now
        self._owners: Dict[Any, OwnerEnergy] = {}
        self._idle_j = 0.0

    def _owner(self, owner: Any) -> OwnerEnergy:
        if owner not in self._owners:
            self._owners[owner] = OwnerEnergy()
        return self._owners[owner]

    def _open_idle_j(self, at: float, idle: float = 0.0) -> float:
        """``idle`` plus the joules of the still-open idle segments up
        to ``at``."""
        for seg in self.ledger.open_segments(at):
            if not seg.active:
                idle += seg.energy_j
        return idle

    # -- listener hooks ----------------------------------------------------
    def on_execute(self, core: Core, now: float, owner: Any, duration: float) -> None:
        entry = self._owner(owner)
        entry.busy_s += duration
        # Priced at the core's current operating point; slices never span
        # P-state changes (the core re-selects at slice starts).
        entry.active_j += self.model.active_power_w(core.pstate) * duration

    # -- ledger sink hooks ---------------------------------------------------
    def wakeup_charged(self, core_id, t, owner, from_cstate, energy_j) -> None:
        entry = self._owner(owner)
        entry.wakeup_j += energy_j
        entry.wakeups += 1

    def segment_closed(self, core_id, t0, t1, label, power_w, active, energy_j) -> None:
        # Idle-residual energy is unattributed "system" draw.
        if not active:
            self._idle_j += energy_j

    # -- reporting ------------------------------------------------------------
    def reset(self) -> None:
        """Restart the observation window now."""
        self._start = self.env.now
        self._owners.clear()
        # Open idle segments close whole, so debit the part before now.
        self._idle_j = -self._open_idle_j(self._start)

    def report(self, now: Optional[float] = None) -> AttributionReport:
        """Snapshot the attribution over [window start, now]."""
        at = self.env.now if now is None else now
        duration = at - self._start
        if duration <= 0:
            raise ValueError("empty attribution window")
        owners = {
            k: OwnerEnergy(v.active_j, v.wakeup_j, v.wakeups, v.busy_s)
            for k, v in self._owners.items()
        }
        idle = self._open_idle_j(at, self._idle_j)
        return AttributionReport(duration_s=duration, owners=owners, idle_j=idle)
