"""Configuration for the PBPL algorithm."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.buffers.bounded import OVERFLOW_POLICIES
from repro.impls.base import PCConfig


@dataclass
class PBPLConfig(PCConfig):
    """PBPL knobs on top of the shared producer-consumer config.

    The cost parameters (``wakeup_cost_j``, ``energy_per_item_j``) are
    the *consumer's beliefs* used inside the ρ cost function (Eq. 8) —
    deliberately separate from the power model's true parameters, just
    as real software would embed calibration constants.
    """

    #: Slot size Δ. None (default) = the minimum of all consumers'
    #: maximum response latencies, the paper's default rule (§V-A).
    slot_size_s: Optional[float] = None
    #: Rate predictor: "moving-average" (the paper), "ewma", "kalman"
    #: (the paper's future work).
    predictor: str = "moving-average"
    #: Moving-average window h (ignored by other predictors).
    predictor_window: int = 8
    #: Believed cost ω of waking the core, used in ρ (Eq. 8).
    wakeup_cost_j: float = 120e-6
    #: Believed energy to process one item, e(x) = x · this, in ρ.
    energy_per_item_j: float = 20e-6
    #: Ablation: reserve blindly at the ideal slot instead of latching
    #: onto existing reservations via the ρ comparison.
    enable_latching: bool = True
    #: Ablation: freeze every buffer at ``buffer_size`` instead of
    #: elastic resizing against the global pool.
    enable_resizing: bool = True
    #: Headroom on the predicted batch when resizing: the buffer is
    #: sized to ``(1 + margin) · r̂ · (τ_{j+1} − τ_j)``. The paper sizes
    #: to the bare prediction; with a bursty producer that converts
    #: every under-prediction into an unscheduled wake, so a margin is
    #: needed to reach the paper's ~75 % scheduled-wakeup share.
    resize_margin: float = 0.5
    #: Overflow degradation policy for consumer buffers: "block" (the
    #: paper's back-pressure), "drop-oldest", "drop-newest",
    #: "shed-to-deadline" (see :mod:`repro.buffers.bounded`).
    overflow_policy: str = "block"
    #: Wrap the predictor in :class:`~repro.core.predictors.
    #: HardenedPredictor` (outlier clamping + fast re-convergence after
    #: stalls). Off by default to keep the paper's figures bit-stable.
    harden_predictor: bool = False
    #: Clamp band of the hardened predictor (observations outside
    #: [r̂/k, r̂·k] are clamped; sustained → re-convergence).
    predictor_clamp_factor: float = 8.0
    #: Core-manager watchdog grace: maximum lateness of a slot fired by
    #: the slot-recovery watchdog after a lost timer signal. None = one
    #: slot Δ (the resilience latency bound); 0 disables the watchdog.
    watchdog_grace_s: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.slot_size_s is not None and self.slot_size_s <= 0:
            raise ValueError("slot size must be positive")
        if self.predictor_window < 1:
            raise ValueError("predictor window must be >= 1")
        if self.wakeup_cost_j < 0 or self.energy_per_item_j <= 0:
            raise ValueError("invalid cost parameters")
        if self.resize_margin < 0:
            raise ValueError("resize margin must be non-negative")
        if self.overflow_policy not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {self.overflow_policy!r}; "
                f"choose from {list(OVERFLOW_POLICIES)}"
            )
        if self.predictor_clamp_factor <= 1:
            raise ValueError("predictor clamp factor must be > 1")
        if self.watchdog_grace_s is not None and self.watchdog_grace_s < 0:
            raise ValueError("watchdog grace must be non-negative")

    def effective_slot_size(self) -> float:
        """Δ as the manager will use it."""
        return (
            self.slot_size_s
            if self.slot_size_s is not None
            else self.max_response_latency_s
        )
