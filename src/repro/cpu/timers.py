"""OS timer facilities: jittery ``nanosleep`` vs accurate signal timers.

The paper attributes the improvement from PBP (periodic batching via
``nanosleep``) to SPBP (the same via SIGALRM) to timer accuracy: the
jitter of ``nanosleep`` makes the consumer late, the buffer overflows
before the period expires, and every overflow is an extra wakeup. This
module makes that mechanism explicit and tunable:

* :meth:`TimerService.nanosleep_lateness` — a *late-only* jitter
  (fixed overhead + half-normal noise + a heavy tail) that PBP adds to
  each period;
* :meth:`TimerService.signal_skew` — the near-exact delivery skew of a
  signal timer, which SPBP adds instead; :meth:`TimerService.slot_alarm`
  arms the PBPL core manager's one-shot slot signals.

Physical Linux-on-ARM magnitudes are tens of µs of sleep slack vs ~1 µs
signal delivery skew against the paper's 100 µs batching period — the
jitter is a ~25 % fraction of the period, which is exactly why it
matters. The reproduction runs everything under a uniform ×100 time
dilation (see :class:`repro.impls.base.PCConfig`), so the defaults here
are the dilated values: what matters — jitter *as a fraction of the
batching period* — is preserved.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.sim.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment


class TimerService:
    """Sleep/alarm facilities with per-mechanism accuracy models.

    Parameters
    ----------
    env:
        Simulation environment.
    rng:
        Generator used for jitter draws (a dedicated named stream).
    nanosleep_overhead_s:
        Fixed lateness of every ``nanosleep`` return.
    nanosleep_jitter_s:
        Scale of the half-normal extra lateness of ``nanosleep``.
    signal_jitter_s:
        Scale of the half-normal delivery skew of signal timers.
    nanosleep_tail_prob, nanosleep_tail_scale_s:
        Heavy tail of ``nanosleep`` lateness: with probability
        ``tail_prob`` an additional Exp(``tail_scale``) oversleep is
        drawn — the occasional scheduler-induced delay that makes sleep
        lateness famously long-tailed on a loaded kernel. Signal
        delivery (a hardware timer interrupt) has no such tail.
    signal_loss_prob:
        Fault injection: probability that an armed one-shot signal is
        never delivered (a lost wakeup). 0 (the default) keeps the RNG
        draw sequence bit-identical to the fault-free service.
    clock_drift_rate:
        Fault injection: fractional drift of the timer clock against
        simulated time — every armed delay is stretched by
        ``(1 + drift)``. Fault injectors toggle both attributes
        mid-run to confine faults to a window.
    """

    def __init__(
        self,
        env: "Environment",
        rng: np.random.Generator,
        nanosleep_overhead_s: float = 8e-4,
        nanosleep_jitter_s: float = 2.5e-3,
        signal_jitter_s: float = 1e-4,
        nanosleep_tail_prob: float = 0.08,
        nanosleep_tail_scale_s: float = 8e-3,
        signal_loss_prob: float = 0.0,
        clock_drift_rate: float = 0.0,
    ) -> None:
        if min(nanosleep_overhead_s, nanosleep_jitter_s, signal_jitter_s) < 0:
            raise SimulationError("timer accuracy parameters must be >= 0")
        if not 0 <= nanosleep_tail_prob <= 1 or nanosleep_tail_scale_s < 0:
            raise SimulationError("invalid nanosleep tail parameters")
        if not 0 <= signal_loss_prob <= 1:
            raise SimulationError("signal loss probability must be in [0, 1]")
        if clock_drift_rate <= -1:
            raise SimulationError("clock drift must keep delays positive")
        self.env = env
        self.rng = rng
        self.nanosleep_overhead_s = nanosleep_overhead_s
        self.nanosleep_jitter_s = nanosleep_jitter_s
        self.signal_jitter_s = signal_jitter_s
        self.nanosleep_tail_prob = nanosleep_tail_prob
        self.nanosleep_tail_scale_s = nanosleep_tail_scale_s
        self.signal_loss_prob = signal_loss_prob
        self.clock_drift_rate = clock_drift_rate
        #: Lifetime count of signals the fault model swallowed.
        self.signals_lost = 0

    def _half_normal(self, scale: float) -> float:
        if scale <= 0:
            return 0.0
        return abs(float(self.rng.normal(0.0, scale)))

    def signal_skew(self) -> float:
        """Draw one signal-delivery skew (half-normal, near-exact)."""
        return self._half_normal(self.signal_jitter_s)

    def signal_lost(self) -> bool:
        """Fault draw: whether the next armed signal gets swallowed.

        Guarded so that a fault-free service (probability 0) performs
        no RNG draw at all — existing seeds stay bit-reproducible.
        """
        if self.signal_loss_prob <= 0:
            return False
        lost = bool(self.rng.random() < self.signal_loss_prob)
        if lost:
            self.signals_lost += 1
        return lost

    def drifted(self, delay_s: float) -> float:
        """Apply the clock-drift fault to an armed delay."""
        if self.clock_drift_rate == 0.0:
            return delay_s
        return delay_s * (1.0 + self.clock_drift_rate)

    def slot_alarm(self, deadline_s: float):
        """Arm a one-shot slot signal for absolute ``deadline_s``.

        The core manager's timer primitive: returns the Timeout event
        for the (skewed, possibly drifted) delivery, or ``None`` when
        the fault model lost the signal — the caller's watchdog is then
        the only thing that will fire the slot.
        """
        delay = max(0.0, deadline_s - self.env.now)
        if self.signal_lost():
            return None
        return self.env.timeout(self.drifted(delay) + self.signal_skew())

    def nanosleep_lateness(self) -> float:
        """Draw one ``nanosleep`` lateness: overhead + half-normal noise
        + an occasional heavy-tail scheduler delay."""
        lateness = self.nanosleep_overhead_s + self._half_normal(
            self.nanosleep_jitter_s
        )
        if (
            self.nanosleep_tail_prob > 0
            and self.rng.random() < self.nanosleep_tail_prob
        ):
            lateness += float(self.rng.exponential(self.nanosleep_tail_scale_s))
        return lateness
