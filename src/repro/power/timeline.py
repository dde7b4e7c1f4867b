"""Power waveforms: the scope's screen, not just its averages.

The paper's Figure 1 argues about the *shape* of the power trace —
grouped activity peaks versus fragmented ones. This module records that
shape: a step function of instantaneous machine power over time (plus
wakeup-energy impulses), renderable as a text waveform or exportable
for plotting.

Memory: one step per core state change. For long runs pass
``max_steps`` to downsample adaptively (oldest pairs of steps merge).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.core import Core
from repro.power.ledger import LedgerSink


@dataclass(frozen=True)
class WaveformPoint:
    time_s: float
    power_w: float


class PowerTimeline(LedgerSink):
    """Records the machine's instantaneous power as a step function.

    A view over the :class:`~repro.power.ledger.EnergyLedger`: attach
    with ``ledger.add_sink(timeline)``, which also records the initial
    level. Only ``cores`` count towards the waveform.
    """

    def __init__(
        self, cores: Sequence[Core], max_steps: Optional[int] = 100_000
    ) -> None:
        self.max_steps = max_steps
        # Current draw per recorded core, in the order given.
        self._level: Dict[int, float] = dict.fromkeys(
            (core.core_id for core in cores), 0.0
        )
        self._times: List[float] = []
        self._powers: List[float] = []
        #: (time, ω) impulses from wakeups.
        self.impulses: List[Tuple[float, float]] = []

    # -- ledger sink hooks -------------------------------------------------
    def segment_opened(self, core_id, t, label, power_w, active) -> None:
        if core_id not in self._level:
            return
        self._level[core_id] = power_w
        power = sum(self._level.values())
        if self._times and self._times[-1] == t:
            self._powers[-1] = power
        else:
            self._times.append(t)
            self._powers.append(power)
            self._maybe_downsample()

    def wakeup_charged(self, core_id, t, owner, from_cstate, energy_j) -> None:
        if core_id in self._level:
            self.impulses.append((t, energy_j))

    def _maybe_downsample(self) -> None:
        if self.max_steps is None or len(self._times) <= self.max_steps:
            return
        # Halve resolution by dropping every other interior step.
        self._times = self._times[:1] + self._times[1:-1:2] + self._times[-1:]
        self._powers = self._powers[:1] + self._powers[1:-1:2] + self._powers[-1:]

    # -- reading -----------------------------------------------------------------
    @property
    def steps(self) -> List[WaveformPoint]:
        return [WaveformPoint(t, p) for t, p in zip(self._times, self._powers)]

    def power_at(self, t: float) -> float:
        """Step-function value at time ``t``."""
        if t < self._times[0]:
            raise ValueError("time precedes the recording")
        idx = bisect_right(self._times, t) - 1
        return self._powers[idx]

    def sample(self, t0: float, t1: float, n: int) -> List[WaveformPoint]:
        """``n`` evenly spaced samples of the step function on [t0, t1].

        Vectorized over the whole window: one ``searchsorted`` against
        the step boundaries replaces a Python ``bisect`` per sample.
        Sample times are built as ``t0 + i*dt`` elementwise — the same
        IEEE operations as the scalar loop — so values are byte-identical
        to per-point :meth:`power_at` calls.
        """
        if n < 2 or t1 <= t0:
            raise ValueError("need n >= 2 samples over a positive window")
        if t0 < self._times[0]:
            raise ValueError("time precedes the recording")
        dt = (t1 - t0) / (n - 1)
        ts = t0 + np.arange(n) * dt
        times = np.asarray(self._times)
        powers = np.asarray(self._powers)
        idx = np.searchsorted(times, ts, side="right") - 1
        return [
            WaveformPoint(t, p)
            for t, p in zip(ts.tolist(), powers[idx].tolist())
        ]

    def render(
        self, t0: float, t1: float, width: int = 72, height: int = 8
    ) -> str:
        """A text waveform of the window (the Fig. 1 picture, in ASCII)."""
        samples = self.sample(t0, t1, width)
        values = [s.power_w for s in samples]
        lo, hi = min(values), max(values)
        span = (hi - lo) or 1.0
        rows = []
        for level in range(height, 0, -1):
            threshold = lo + span * (level - 0.5) / height
            row = "".join("█" if v >= threshold else " " for v in values)
            rows.append(row)
        axis = f"{lo:.2f} W … {hi:.2f} W over [{t0:g}s, {t1:g}s]"
        return "\n".join(rows + [axis])
