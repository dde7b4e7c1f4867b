"""Simulated multicore CPU: cores, C-states, P-states/DVFS, timers.

This package replaces the paper's Arndale Exynos-5 board (dual
Cortex-A15 under Linaro). See DESIGN.md §2 for the substitution
argument; in short, the paper's results depend on (1) idle power being
far below active power, (2) a fixed energy + latency cost per
idle→active transition, and (3) DVFS reacting to utilisation and
yields — all of which are explicit, calibrated parameters here.
"""

from repro.cpu.cluster import ClusterIdleModel, ClusterParams
from repro.cpu.core import ACTIVE, IDLE, PARKED, Core, CoreHold
from repro.cpu.cstates import CState, CStateTable, arndale_cstates
from repro.cpu.governors import (
    Governor,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
)
from repro.cpu.listeners import CoreListener
from repro.cpu.machine import Machine
from repro.cpu.pstates import PState, PStateTable, arndale_pstates
from repro.cpu.timers import TimerService

__all__ = [
    "ACTIVE",
    "CState",
    "ClusterIdleModel",
    "ClusterParams",
    "CStateTable",
    "Core",
    "CoreHold",
    "CoreListener",
    "Governor",
    "IDLE",
    "Machine",
    "OndemandGovernor",
    "PARKED",
    "PState",
    "PStateTable",
    "PerformanceGovernor",
    "PowersaveGovernor",
    "TimerService",
    "arndale_cstates",
    "arndale_pstates",
]
