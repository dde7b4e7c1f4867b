"""Declarative fault specifications.

A fault is data, not behaviour: each spec names a failure mode, its
window, and its magnitude. :mod:`repro.faults.injectors` turns a
:class:`FaultPlan` (a composition of specs) into trace transforms and
runtime toggles over a running system. Keeping specs declarative makes
scenarios serialisable into the resilience report and trivially
deterministic — the only randomness is the injector's named RNG
stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class ProducerStall:
    """Producer goes silent for a window; backlog released at the end
    (or dropped upstream with ``drop=True``)."""

    start_s: float
    duration_s: float
    #: Index of the targeted consumer's trace; None = every producer.
    consumer: Optional[int] = None
    drop: bool = False

    def describe(self) -> str:
        who = "all producers" if self.consumer is None else f"producer {self.consumer}"
        how = "dropped" if self.drop else "deferred"
        return (
            f"stall {who} over [{self.start_s:g}, "
            f"{self.start_s + self.duration_s:g})s, backlog {how}"
        )


@dataclass(frozen=True)
class BurstStorm:
    """Arrival rate multiplied by ``factor`` inside the window."""

    start_s: float
    duration_s: float
    factor: float
    consumer: Optional[int] = None

    def describe(self) -> str:
        who = "all producers" if self.consumer is None else f"producer {self.consumer}"
        return (
            f"burst ×{self.factor:g} on {who} over "
            f"[{self.start_s:g}, {self.start_s + self.duration_s:g})s"
        )


@dataclass(frozen=True)
class LostSignals:
    """Timer signals are swallowed with probability ``prob`` in the window."""

    start_s: float
    duration_s: float
    prob: float

    def describe(self) -> str:
        return (
            f"lose {self.prob:.0%} of timer signals over "
            f"[{self.start_s:g}, {self.start_s + self.duration_s:g})s"
        )


@dataclass(frozen=True)
class ClockDrift:
    """Timer clock drifts by ``rate`` (fraction) during the window."""

    start_s: float
    duration_s: float
    rate: float

    def describe(self) -> str:
        return (
            f"clock drift {self.rate:+.1%} over "
            f"[{self.start_s:g}, {self.start_s + self.duration_s:g})s"
        )


@dataclass(frozen=True)
class ConsumerSlowdown:
    """Per-item service time multiplied by ``factor`` in the window."""

    start_s: float
    duration_s: float
    factor: float
    consumer: Optional[int] = None

    def describe(self) -> str:
        who = "all consumers" if self.consumer is None else f"consumer {self.consumer}"
        return (
            f"slow {who} ×{self.factor:g} over "
            f"[{self.start_s:g}, {self.start_s + self.duration_s:g})s"
        )


@dataclass(frozen=True)
class PoolContention:
    """``slots`` free pool slots are withheld during the window."""

    start_s: float
    duration_s: float
    slots: int

    def describe(self) -> str:
        return (
            f"withhold {self.slots} pool slots over "
            f"[{self.start_s:g}, {self.start_s + self.duration_s:g})s"
        )


@dataclass(frozen=True)
class CoreFailure:
    """Core ``core``'s manager fail-stops at ``start_s``.

    The kill is permanent — recovery is *migration*, not revival: the
    dead manager's pending reservations are torn down and its consumers
    re-home onto surviving managers (see :mod:`repro.core.migration`).
    ``duration_s`` is the scored outage window (power-under-fault and
    the injector's fault span use it), not a revival time.
    """

    start_s: float
    duration_s: float
    #: Core id whose manager dies. Must host a manager, and at least one
    #: other manager must survive, else the injector skips-and-logs.
    core: int = 0

    def __post_init__(self) -> None:
        if self.core < 0:
            raise ValueError(f"core id must be >= 0: {self.core}")

    def describe(self) -> str:
        return (
            f"kill core {self.core}'s manager at {self.start_s:g}s "
            f"(outage scored over [{self.start_s:g}, "
            f"{self.start_s + self.duration_s:g})s)"
        )


# -- cascade triggers -----------------------------------------------------------


@dataclass(frozen=True)
class WindowTrigger:
    """Fire when an earlier fault's window edge passes (+ ``delay_s``).

    ``source`` indexes the plan's fault list and must reference an
    *earlier* fault (a plain fault or another window-triggered one) —
    so the cascade's timing stays a pure function of the plan, which
    keeps the scenario deterministic and lets :meth:`FaultPlan.windows`
    include it.
    """

    source: int
    edge: str = "end"
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.source < 0:
            raise ValueError(f"trigger source must be >= 0: {self.source}")
        if self.edge not in ("start", "end"):
            raise ValueError(f"trigger edge must be 'start' or 'end': {self.edge!r}")
        if self.delay_s < 0:
            raise ValueError(f"trigger delay must be >= 0: {self.delay_s}")

    def describe(self) -> str:
        delay = f" +{self.delay_s:g}s" if self.delay_s else ""
        return f"at fault #{self.source}'s window {self.edge}{delay}"


@dataclass(frozen=True)
class TriggeredFault:
    """A runtime fault whose start comes from a *trigger*, not a clock.

    Wraps any runtime fault spec; the wrapped fault declares its start
    via the trigger (its own ``start_s`` must be 0) and keeps its
    ``duration_s``. The trigger resolves statically from the plan.
    """

    fault: "RuntimeFault"
    trigger: WindowTrigger

    def __post_init__(self) -> None:
        if not isinstance(self.fault, RUNTIME_FAULT_TYPES):
            raise ValueError(
                f"only runtime faults can be triggered (trace faults rewrite "
                f"the workload before the run): {self.fault!r}"
            )
        if self.fault.start_s != 0.0:
            raise ValueError(
                f"a triggered fault declares its start via the trigger; "
                f"set start_s=0 on the wrapped fault: {self.fault!r}"
            )

    @property
    def start_s(self) -> float:
        return 0.0

    @property
    def duration_s(self) -> float:
        return self.fault.duration_s

    def describe(self) -> str:
        return f"{self.trigger.describe()}: {self.fault.describe()}"


#: Faults applied by rewriting the workload before the run starts.
TraceFault = Union[ProducerStall, BurstStorm]
#: Faults applied by toggling live components during the run.
RuntimeFault = Union[
    LostSignals, ClockDrift, ConsumerSlowdown, PoolContention, CoreFailure
]
Fault = Union[TraceFault, RuntimeFault, TriggeredFault]

TRACE_FAULT_TYPES = (ProducerStall, BurstStorm)
RUNTIME_FAULT_TYPES = (
    LostSignals,
    ClockDrift,
    ConsumerSlowdown,
    PoolContention,
    CoreFailure,
)


class FaultPlan:
    """A composition of faults defining one chaos scenario."""

    def __init__(self, faults: Sequence[Fault] = ()) -> None:
        self.faults: Tuple[Fault, ...] = tuple(faults)
        for fault in self.faults:
            if fault.duration_s <= 0:
                raise ValueError(f"fault window must be positive: {fault!r}")
            if fault.start_s < 0:
                raise ValueError(f"fault cannot start before t=0: {fault!r}")
        # Resolve cascades eagerly: a bad trigger reference fails at
        # construction, not mid-run.
        self.resolved_windows()

    @property
    def trace_faults(self) -> List[TraceFault]:
        return [f for f in self.faults if isinstance(f, TRACE_FAULT_TYPES)]

    @property
    def runtime_faults(self) -> List[RuntimeFault]:
        return [
            f
            for f in self.faults
            if isinstance(f, RUNTIME_FAULT_TYPES + (TriggeredFault,))
        ]

    def resolved_windows(self) -> List[Tuple[float, float]]:
        """Per-fault (start, end) windows, aligned with ``faults``.

        Plain faults resolve from their ``start_s``; window-triggered
        faults resolve from their (earlier, already-resolved) source.
        """
        out: List[Tuple[float, float]] = []
        for i, fault in enumerate(self.faults):
            if isinstance(fault, TriggeredFault):
                trigger = fault.trigger
                if not 0 <= trigger.source < i:
                    raise ValueError(
                        f"window trigger of fault #{i} must reference an "
                        f"earlier fault: source={trigger.source}"
                    )
                source = out[trigger.source]
                start = (
                    source[0] if trigger.edge == "start" else source[1]
                ) + trigger.delay_s
                out.append((start, start + fault.duration_s))
            else:
                out.append((fault.start_s, fault.start_s + fault.duration_s))
        return out

    def windows(self) -> List[Tuple[float, float]]:
        """Every fault's (start, end) window, sorted."""
        return sorted(self.resolved_windows())

    @property
    def last_fault_end_s(self) -> float:
        """When the final fault window closes (-inf for a clean plan)."""
        ends = [end for _start, end in self.windows()]
        return max(ends) if ends else float("-inf")

    def describe(self) -> List[str]:
        return [f.describe() for f in self.faults]

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)
