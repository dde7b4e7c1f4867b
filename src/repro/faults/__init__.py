"""Fault injection and resilience scoring for the reproduction.

Declarative fault specs (:mod:`repro.faults.spec`), their application
to traces and live systems (:mod:`repro.faults.injectors`), and the
deterministic chaos-scenario harness (:mod:`repro.faults.chaos`).
"""

from repro.faults.chaos import (
    DEFAULT_SCENARIOS,
    SMOKE_SCENARIOS,
    ChaosReport,
    ChaosScenario,
    PowerProbe,
    run_chaos,
    run_scenario,
)
from repro.faults.injectors import RuntimeInjector, perturb_traces
from repro.faults.spec import (
    BurstStorm,
    ClockDrift,
    ConsumerSlowdown,
    CoreFailure,
    Fault,
    FaultPlan,
    LostSignals,
    PoolContention,
    ProducerStall,
    RuntimeFault,
    TraceFault,
    TriggeredFault,
    WindowTrigger,
)

__all__ = [
    "BurstStorm",
    "ChaosReport",
    "ChaosScenario",
    "ClockDrift",
    "ConsumerSlowdown",
    "CoreFailure",
    "DEFAULT_SCENARIOS",
    "Fault",
    "FaultPlan",
    "LostSignals",
    "PoolContention",
    "PowerProbe",
    "ProducerStall",
    "RuntimeFault",
    "RuntimeInjector",
    "SMOKE_SCENARIOS",
    "TraceFault",
    "TriggeredFault",
    "WindowTrigger",
    "perturb_traces",
    "run_chaos",
    "run_scenario",
]
