"""Exact energy accounting over core state timelines — the one integrator.

The ledger subscribes to core transitions and integrates power
piecewise-constantly, charging the wakeup energy ω at every idle→active
edge (the paper's §II cost model, Eq. 3–4). It is the ground truth the
measurement instruments (PowerTop analogue, oscilloscope analogue)
approximate — letting tests verify the instruments against an exact
reference, the same role the paper's "sanity checks" (§III-C1) play for
its physical rig.

It is also the only code that keeps an open residency segment per core
and prices it. Every other account of the same joules is a *view*: a
:class:`LedgerSink` registered with :meth:`EnergyLedger.add_sink` that
folds the segments the ledger closes — trace spans and power counters
(:mod:`repro.trace.power`), registry energy counters
(:mod:`repro.telemetry.collectors`) and the idle share of per-owner
attribution. Sinks are duck-typed, so the power
layer never imports the trace or telemetry layers that host them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Dict, Iterator, List, NamedTuple, Optional, Tuple,
)

from repro.cpu.core import Core
from repro.cpu.cstates import CState
from repro.cpu.listeners import CoreListener
from repro.power.model import PowerModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment

#: A priced core situation: (power_w, state label, is_active).
_Price = Tuple[float, str, bool]
#: An open segment: (t0, accrued_to, power_w, label, is_active). The
#: ledger's own totals accrue up to ``accrued_to`` (a mid-run
#: :meth:`EnergyLedger.settle` moves it); sinks always see ``[t0, t1]``.
_Open = Tuple[float, float, float, str, bool]


class Segment(NamedTuple):
    """A closed (or cut) residency segment, priced by the ledger."""

    core_id: int
    t0: float
    t1: float
    label: str
    power_w: float
    active: bool
    energy_j: float


@dataclass
class EnergyBreakdown:
    """Joules split by where they went."""

    active_j: float = 0.0
    idle_j: float = 0.0
    wakeup_j: float = 0.0
    #: Idle→active transitions charged.
    wakeups: int = 0
    #: Seconds spent in each named state ("active", "C1", ...).
    residency_s: Dict[str, float] = field(default_factory=dict)

    @property
    def total_j(self) -> float:
        return self.active_j + self.idle_j + self.wakeup_j

    def add_residency(self, state: str, seconds: float) -> None:
        self.residency_s[state] = self.residency_s.get(state, 0.0) + seconds


class LedgerSink:
    """A view over the ledger's segments; override what you need.

    Sinks only ever see real transitions: a mid-run
    :meth:`EnergyLedger.settle` splits the ledger's own sums, never the
    segments handed out here.
    """

    def segment_opened(
        self, core_id: int, t: float, label: str, power_w: float, active: bool
    ) -> None:
        """Core ``core_id`` draws ``power_w`` in state ``label`` from
        ``t`` on. Sent at every transition, and once per core (in
        core-id order, ``t`` = now) when the sink is added."""

    def segment_closed(
        self,
        core_id: int,
        t0: float,
        t1: float,
        label: str,
        power_w: float,
        active: bool,
        energy_j: float,
    ) -> None:
        """The segment ``[t0, t1]`` (``t1 > t0``) ended, costing
        ``energy_j``."""

    def wakeup_charged(
        self, core_id: int, t: float, owner: Any, from_cstate: CState, energy_j: float
    ) -> None:
        """``owner`` woke core ``core_id`` out of ``from_cstate`` (ω)."""


class EnergyLedger(CoreListener):
    """Integrates machine energy from core transition notifications.

    Attach with ``machine.add_listener(ledger)`` **before** running the
    simulation, then read :meth:`total_energy_j` / :meth:`average_power_w`
    (call :meth:`settle` or pass ``now`` to include the open segment).
    """

    def __init__(self, env: "Environment", model: PowerModel) -> None:
        self.env = env
        self.model = model
        self._omega = model.wakeup_energy_j
        self._per_core: Dict[int, EnergyBreakdown] = {}
        self._open: Dict[int, _Open] = {}
        # id() of a P-/C-state object → price. The state tables are
        # small and fixed for the machine's life, so each distinct
        # situation is priced once and a segment reopen is one dict hit.
        # Keyed by identity: hashing the frozen-dataclass states would
        # cost a Python __hash__ call on every core transition.
        self._prices: Dict[int, _Price] = {}
        self._sinks: List[LedgerSink] = []

    def _price(self, core: Core) -> _Price:
        active = core.state == "active"
        state = core.pstate if active else core.cstate
        price = self._prices.get(id(state))
        if price is None:
            if active:
                price = (self.model.active_power_w(state), "active", True)
            else:
                assert state is not None
                price = (self.model.idle_power_w(state), state.name, False)
            self._prices[id(state)] = price
        return price

    def _accrue(
        self, core_id: int, power: float, label: str, active: bool, dt: float
    ) -> float:
        breakdown = self._per_core[core_id]
        energy = power * dt
        if active:
            breakdown.active_j += energy
        else:
            breakdown.idle_j += energy
        breakdown.add_residency(label, dt)
        return energy

    # -- listener hooks ---------------------------------------------------
    def watch(self, core: Core) -> None:
        """Start accounting for ``core`` immediately (otherwise accounting
        starts lazily at its first transition)."""
        core_id = core.core_id
        if core_id in self._open:
            return
        self._per_core[core_id] = EnergyBreakdown()
        now = self.env.now
        power, label, active = self._price(core)
        self._open[core_id] = (now, now, power, label, active)
        for sink in self._sinks:
            sink.segment_opened(core_id, now, label, power, active)

    def on_state_change(self, core, now, old_state, new_state, cstate, pstate) -> None:
        # The hottest power hook (two calls per Mutex/Sem wakeup):
        # _accrue and the _price cache hit are inlined, same float
        # operations in the same order.
        core_id = core.core_id
        try:
            seg = self._open[core_id]
        except KeyError:
            self.watch(core)
            seg = self._open[core_id]
        t0, since, power, label, active = seg
        energy = 0.0
        if now > since:
            dt = now - since
            breakdown = self._per_core[core_id]
            energy = power * dt
            if active:
                breakdown.active_j += energy
            else:
                breakdown.idle_j += energy
            residency = breakdown.residency_s
            residency[label] = residency.get(label, 0.0) + dt
        try:
            price = self._prices[id(pstate if new_state == "active" else cstate)]
        except KeyError:
            price = self._price(core)
        new_power, new_label, new_active = price
        self._open[core_id] = (now, now, new_power, new_label, new_active)
        if self._sinks:
            closed = now > t0
            if closed and since > t0:
                energy = power * (now - t0)  # settled mid-segment: unsplit
            for sink in self._sinks:
                if closed:
                    sink.segment_closed(core_id, t0, now, label, power, active, energy)
                sink.segment_opened(core_id, now, new_label, new_power, new_active)

    def on_wakeup(self, core, now, owner, from_cstate: CState) -> None:
        core_id = core.core_id
        if core_id not in self._open:
            self.watch(core)
        breakdown = self._per_core[core_id]
        breakdown.wakeup_j += self._omega
        breakdown.wakeups += 1
        if self._sinks:
            for sink in self._sinks:
                sink.wakeup_charged(core_id, now, owner, from_cstate, self._omega)

    # -- views ------------------------------------------------------------
    def add_sink(self, sink: LedgerSink) -> LedgerSink:
        """Feed ``sink`` every segment from now on; returns it.

        The sink first receives each core's open segment (core-id
        order) via :meth:`LedgerSink.segment_opened`. A segment already
        open when the sink is added reaches it whole, from its real
        start, when it closes.
        """
        self._sinks.append(sink)
        now = self.env.now
        for core_id in sorted(self._open):
            _t0, _since, power, label, active = self._open[core_id]
            sink.segment_opened(core_id, now, label, power, active)
        return sink

    def remove_sink(self, sink: LedgerSink) -> None:
        """Hand ``sink`` every open segment cut at now, then stop feeding
        it — the end-of-run flush that completes the view."""
        self._sinks.remove(sink)
        for seg in self.open_segments():
            sink.segment_closed(*seg)

    def open_segments(self, now: Optional[float] = None) -> Iterator[Segment]:
        """Each core's open segment cut at ``now`` (skipping empty ones),
        priced; the ledger's own state is left untouched."""
        at = self.env.now if now is None else now
        for core_id, (t0, _since, power, label, active) in self._open.items():
            if at > t0:
                yield Segment(core_id, t0, at, label, power, active, power * (at - t0))

    # -- reading ---------------------------------------------------------
    def settle(self, now: Optional[float] = None) -> None:
        """Close the ledger's own sums up to ``now`` (default: current sim
        time). Sinks are not told: their segments stay whole."""
        at = self.env.now if now is None else now
        for core_id, (t0, since, power, label, active) in list(self._open.items()):
            if at > since:
                self._accrue(core_id, power, label, active, at - since)
                self._open[core_id] = (t0, at, power, label, active)

    def core_breakdown(self, core_id: int) -> EnergyBreakdown:
        """Per-core energy split (settle first for up-to-date numbers)."""
        if core_id not in self._per_core:
            return EnergyBreakdown()
        return self._per_core[core_id]

    def total_energy_j(self) -> float:
        """Machine-wide joules accounted so far (post-settle)."""
        return sum(b.total_j for b in self._per_core.values())

    def total_breakdown(self) -> EnergyBreakdown:
        """Machine-wide energy split (post-settle)."""
        out = EnergyBreakdown()
        for b in self._per_core.values():
            out.active_j += b.active_j
            out.idle_j += b.idle_j
            out.wakeup_j += b.wakeup_j
            out.wakeups += b.wakeups
            for state, sec in b.residency_s.items():
                out.add_residency(state, sec)
        return out

    def energy_snapshot(self) -> float:
        """Settle and return total joules so far — the window-power
        primitive: the chaos harness samples this at fault-window edges
        and differences the samples to get power-under-faults."""
        self.settle()
        return self.total_energy_j()

    def average_power_w(self, duration_s: float) -> float:
        """Mean machine power over ``duration_s`` (post-settle)."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        return self.total_energy_j() / duration_s
