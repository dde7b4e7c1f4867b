"""CPU performance-state (P-state) modelling and DVFS power math.

Dynamic power follows the paper's Section II formula ``Pd = C · V² · f``
(capacitance switched per cycle × voltage squared × frequency). A
P-state pins a (frequency, voltage) pair; the table provides scaling
between them. Governors that pick the P-state live in
:mod:`repro.cpu.governors`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class PState:
    """One (frequency, voltage) operating point.

    ``freq_hz`` also sets execution speed: a task that needs ``w``
    seconds of CPU at the table's nominal frequency runs for
    ``w * nominal/freq_hz`` wall-clock seconds at this P-state.
    """

    name: str
    freq_hz: float
    voltage_v: float

    def __post_init__(self) -> None:
        if self.freq_hz <= 0:
            raise ValueError("frequency must be positive")
        if self.voltage_v <= 0:
            raise ValueError("voltage must be positive")

    def dynamic_power_w(self, capacitance_f: float) -> float:
        """``Pd = C · V² · f`` — the paper's Section II equation."""
        return capacitance_f * self.voltage_v**2 * self.freq_hz


class PStateTable:
    """An ordered set of P-states (slow → fast).

    The *nominal* state — the one execution costs are quoted against —
    is the fastest one, matching the race-to-idle framing the paper
    adopts (run flat out, then idle deeply).
    """

    def __init__(self, states: Iterable[PState]) -> None:
        ordered = sorted(states, key=lambda s: s.freq_hz)
        if not ordered:
            raise ValueError("a P-state table needs at least one state")
        freqs = [s.freq_hz for s in ordered]
        if len(set(freqs)) != len(freqs):
            raise ValueError(f"duplicate P-state frequencies: {freqs}")
        for slow, fast in zip(ordered, ordered[1:]):
            if fast.voltage_v < slow.voltage_v:
                raise ValueError(
                    f"{fast.name} runs faster than {slow.name} at lower voltage"
                )
        self._states: Sequence[PState] = tuple(ordered)
        # speedup() runs once per consumed item: read the nominal
        # frequency from a plain attribute, not two property hops.
        self._nominal_hz = ordered[-1].freq_hz

    @property
    def states(self) -> Sequence[PState]:
        """States ordered slowest → fastest."""
        return self._states

    @property
    def slowest(self) -> PState:
        return self._states[0]

    @property
    def fastest(self) -> PState:
        return self._states[-1]

    @property
    def nominal(self) -> PState:
        """The reference state execution costs are quoted against."""
        return self.fastest

    def speedup(self, state: PState) -> float:
        """Execution-speed ratio of ``state`` relative to nominal (≤ 1)."""
        return state.freq_hz / self._nominal_hz

    def step_down(self, state: PState, steps: int = 1) -> PState:
        """The P-state ``steps`` below ``state`` (clamped at slowest)."""
        i = self._states.index(state)
        return self._states[max(0, i - steps)]

    def step_up(self, state: PState, steps: int = 1) -> PState:
        """The P-state ``steps`` above ``state`` (clamped at fastest)."""
        i = self._states.index(state)
        return self._states[min(len(self._states) - 1, i + steps)]

    def for_utilization(self, utilization: float) -> PState:
        """Slowest state that still covers ``utilization`` of nominal work.

        This is the proportional half of an *ondemand*-style governor:
        running at fraction ``u`` of nominal capacity needs frequency
        ``u × f_nominal``; pick the slowest state at or above it.
        """
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1], got {utilization}")
        needed = utilization * self._nominal_hz
        for state in self._states:
            if state.freq_hz >= needed:
                return state
        return self.fastest

    def __iter__(self):
        return iter(self._states)

    def __len__(self) -> int:
        return len(self._states)

    def __repr__(self) -> str:
        names = ", ".join(s.name for s in self._states)
        return f"<PStateTable [{names}]>"


def arndale_pstates() -> PStateTable:
    """P-state table loosely calibrated to the Exynos 5250 (Cortex-A15).

    Frequency/voltage pairs follow the published Exynos 5250 cpufreq
    operating points (200 MHz – 1.7 GHz); as with the C-state table,
    the reproduction depends on realistic ratios, not exact volts.
    """
    return PStateTable(
        [
            PState("P-200MHz", 200e6, 0.925),
            PState("P-400MHz", 400e6, 0.95),
            PState("P-600MHz", 600e6, 1.0),
            PState("P-800MHz", 800e6, 1.05),
            PState("P-1000MHz", 1000e6, 1.10),
            PState("P-1200MHz", 1200e6, 1.15),
            PState("P-1400MHz", 1400e6, 1.20),
            PState("P-1700MHz", 1700e6, 1.30),
        ]
    )
