"""Standard experiment parameters (the reproduction's "testbed").

The paper's experiments run 50 s of an accelerated web-log replay
against 100 µs batching periods on an Arndale board. This reproduction
applies one **uniform time dilation** (×~100) so that a pure-Python
discrete-event simulation finishes in seconds per run while every
*relationship* the paper's comparisons rest on is preserved:

* batching period and slot size scale with the workload's buffer-fill
  time (period ≈ buffer/rate, the regime the paper operates in);
* timer jitter scales with the period (it matters as a fraction);
* the wakeup energy ω stays ≫ per-item energy (the §V premise).

``duration_s`` trades statistical tightness for runtime; the defaults
aim at a few seconds of wall-clock per experiment cell.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.core.config import PBPLConfig
from repro.impls.base import PCConfig
from repro.sim.rng import RandomStreams
from repro.workloads.generators import worldcup_like_trace
from repro.workloads.trace import Trace


#: Environment variable consulted when no explicit job count is given.
JOBS_ENV_VAR = "REPRO_JOBS"


def ambient_jobs() -> Optional[int]:
    """``$REPRO_JOBS`` as an int, or None when unset/empty.

    This module is the single place allowed to read ambient
    configuration (the PURE003 lint rule enforces it): the environment
    is folded into an explicit value here, and everything downstream
    takes that value as a parameter.
    """
    raw = os.environ.get(JOBS_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{JOBS_ENV_VAR}={raw!r} is not an integer") from None


@dataclass
class StandardParams:
    """One coherent parameter set for every figure's experiments."""

    #: Simulated seconds per run (paper: 50 s on real hardware).
    duration_s: float = 4.0
    #: Mean items/s per producer of the web-log-like trace.
    mean_rate_per_s: float = 2200.0
    #: Replicates per cell (paper: 3, with 95 % CIs).
    replicates: int = 3
    #: Base experiment seed; replicate k uses seed offsets.
    seed: int = 2014
    #: Per-consumer buffer size (paper default 25; Fig. 11 sweeps it).
    buffer_size: int = 25
    #: PBPL slot size Δ (Δ = L/8 here; see PBPLConfig docs — Δ = L
    #: degenerates the slot track to a single lookahead slot).
    slot_size_s: float = 5e-3
    #: Maximum response latency L (dilated analogue of the paper's).
    #: Chosen above the largest buffer-fill time in the Fig. 11 sweep so
    #: the buffer, not the deadline, is PBPL's binding constraint —
    #: otherwise larger buffers could not reduce wakeups (they do in the
    #: paper's Fig. 11).
    max_response_latency_s: float = 40e-3
    #: Run the kernel-background load on the non-consumer core
    #: (paper §VI-C attributes muted power ratios to it).
    background: bool = True

    # Trace shape (worldcup_like_trace kwargs) — calibrated so that the
    # moving-average predictor achieves the paper's ~75 % scheduled-
    # wakeup share; see DESIGN.md.
    flash_magnitude: float = 4.0
    flash_decay_fraction: float = 0.15
    micro_burst_cv: float = 0.3

    def trace(self, streams: RandomStreams) -> Trace:
        """The base workload trace for a replicate's stream set."""
        return worldcup_like_trace(
            self.mean_rate_per_s,
            self.duration_s,
            streams.stream("trace"),
            flash_magnitude=self.flash_magnitude,
            flash_decay_fraction=self.flash_decay_fraction,
            micro_burst_cv=self.micro_burst_cv,
        )

    def pc_config(self, buffer_size: Optional[int] = None) -> PCConfig:
        """Baseline-implementation config for these parameters."""
        return PCConfig(
            buffer_size=self.buffer_size if buffer_size is None else buffer_size,
            batch_period_s=self.slot_size_s,
            max_response_latency_s=self.max_response_latency_s,
        )

    def pbpl_config(self, buffer_size: Optional[int] = None, **overrides) -> PBPLConfig:
        """PBPL config for these parameters (overrides for ablations)."""
        kwargs = dict(
            buffer_size=self.buffer_size if buffer_size is None else buffer_size,
            batch_period_s=self.slot_size_s,
            slot_size_s=self.slot_size_s,
            max_response_latency_s=self.max_response_latency_s,
        )
        kwargs.update(overrides)
        return PBPLConfig(**kwargs)


def quick_params(**overrides) -> StandardParams:
    """Short-duration parameters for tests and smoke runs."""
    defaults = dict(duration_s=1.5, replicates=2)
    defaults.update(overrides)
    return StandardParams(**defaults)
