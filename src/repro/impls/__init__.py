"""Producer-consumer implementations: the paper's §III study set and
multi-pair assembly for the §VI evaluation."""

from repro.impls.base import PairStats, PCConfig
from repro.impls.edf import EDFBatchSystem, EDFCoordinator
from repro.impls.multi import MultiPairSystem, phase_shifted_traces
from repro.impls.single import (
    SINGLE_IMPLEMENTATIONS,
    WAKE_CHECK_S,
    BatchProcessing,
    BusyWaiting,
    MutexCondvar,
    PCImplementation,
    PeriodicBatch,
    SemaphorePair,
    SignalPeriodicBatch,
    Yielding,
)

__all__ = [
    "BatchProcessing",
    "BusyWaiting",
    "EDFBatchSystem",
    "EDFCoordinator",
    "MultiPairSystem",
    "MutexCondvar",
    "PCConfig",
    "PCImplementation",
    "PairStats",
    "PeriodicBatch",
    "SINGLE_IMPLEMENTATIONS",
    "SemaphorePair",
    "SignalPeriodicBatch",
    "WAKE_CHECK_S",
    "Yielding",
    "phase_shifted_traces",
]
