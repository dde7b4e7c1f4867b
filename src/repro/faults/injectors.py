"""Turn fault specs into trace transforms and live-system toggles.

Two application surfaces:

* :func:`perturb_traces` — applies the plan's producer faults (stalls,
  burst storms) to the per-consumer traces *before* the system is
  built; the perturbed workload is ordinary data, so no component needs
  fault awareness.
* :class:`RuntimeInjector` — spawns one tiny simulation process per
  runtime fault that toggles the live component at the window edges:
  :class:`~repro.faults.spec.LostSignals` / :class:`~repro.faults.
  spec.ClockDrift` flip the :class:`~repro.cpu.timers.TimerService`
  fault attributes, :class:`~repro.faults.spec.ConsumerSlowdown` scales
  consumers' ``service_scale``, :class:`~repro.faults.spec.
  PoolContention` withholds free slots from the global pool,
  :class:`~repro.faults.spec.CoreFailure` fail-stops a core manager
  (see :mod:`repro.core.migration` for the recovery protocol).

Overlapping windows of the same fault type compose additively for
drift/loss (last writer wins is avoided by restoring the *previous*
value, not a hardcoded default).

Timing rules that keep the simultaneity sanitizer quiet:

* A :class:`~repro.faults.spec.CoreFailure` arms an URGENT-priority
  event rather than a plain timeout, so when the kill lands on the same
  timestamp as a NORMAL-priority consumer wakeup, their order is
  *derived from priority* (kill first), never from heap insertion luck.
  All migration side effects then run inside the kill dispatch and are
  classified as derived events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.spec import (
    BurstStorm,
    ClockDrift,
    ConsumerSlowdown,
    CoreFailure,
    FaultPlan,
    LostSignals,
    PoolContention,
    ProducerStall,
    TRACE_FAULT_TYPES,
    TriggeredFault,
)
from repro.sim.events import URGENT, Event
from repro.workloads.perturb import inject_burst, inject_stall
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import PBPLSystem
    from repro.sim.environment import Environment
    from repro.trace.tracer import Tracer

#: Trace track hosting injected fault windows.
FAULT_TRACK = "faults"


def perturb_traces(
    traces: Sequence[Trace], plan: FaultPlan, rng: np.random.Generator
) -> List[Trace]:
    """Apply the plan's producer faults to per-consumer traces."""
    out = list(traces)
    for fault in plan.trace_faults:
        targets = (
            range(len(out)) if fault.consumer is None else [fault.consumer]
        )
        for i in targets:
            if not 0 <= i < len(out):
                raise ValueError(
                    f"fault targets consumer {i} but only {len(out)} traces exist"
                )
            if isinstance(fault, ProducerStall):
                out[i] = inject_stall(
                    out[i], fault.start_s, fault.duration_s, drop=fault.drop
                )
            elif isinstance(fault, BurstStorm):
                out[i] = inject_burst(
                    out[i], fault.start_s, fault.duration_s, fault.factor, rng
                )
    return out


class RuntimeInjector:
    """Drives the plan's runtime faults against a live system.

    Works against :class:`~repro.core.system.PBPLSystem` and the
    baseline :class:`~repro.impls.multi.MultiPairSystem` alike — both
    expose ``machine`` and ``pairs``. Faults with no purchase on a
    baseline (``PoolContention`` when there is no global pool,
    ``CoreFailure``/dynamic triggers when there are no core managers)
    are skipped and logged rather than raised, so one fault plan can
    score every implementation.
    """

    def __init__(
        self,
        env: "Environment",
        system: "PBPLSystem",
        plan: FaultPlan,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.env = env
        self.system = system
        self.plan = plan
        self.tracer = tracer
        #: (time, description) log of every toggle, for the report.
        self.events: List[tuple[float, str]] = []
        #: Runtime faults that could not act on this system type.
        self.skipped: List[str] = []

    def start(self) -> "RuntimeInjector":
        windows = self.plan.resolved_windows()
        n = 0
        for i, fault in enumerate(self.plan.faults):
            if isinstance(fault, TRACE_FAULT_TYPES):
                continue  # applied by perturb_traces before the run
            self.env.process(
                self._drive(fault, windows[i]), name=f"fault-injector-{n}"
            )
            n += 1
        return self

    def _fault_timeout(self, spec, delay: float) -> Event:
        """Wait for a fault's start edge.

        Core kills arm a pre-succeeded URGENT event so that a kill
        sharing a timestamp with NORMAL-priority activity is ordered by
        priority (derived), not by heap insertion.
        """
        if isinstance(spec, CoreFailure):
            event = Event(self.env)
            event._ok = True
            event._value = None
            self.env.schedule(event, delay, URGENT)
            return event
        return self.env.timeout(delay)

    # -- one process per fault ---------------------------------------------------
    def _drive(self, fault, window: Tuple[float, float]):
        env = self.env
        spec = fault.fault if isinstance(fault, TriggeredFault) else fault
        if env.now < window[0]:
            yield self._fault_timeout(spec, window[0] - env.now)
        undo = self._apply(spec)
        if undo is None:
            self.skipped.append(fault.describe())
            self.events.append((env.now, f"skip: {fault.describe()}"))
            return
        span = None
        if self.tracer:
            span = self.tracer.begin(
                FAULT_TRACK,
                type(spec).__name__,
                "fault",
                detail=fault.describe(),
            )
        self.events.append((env.now, f"inject: {fault.describe()}"))
        yield env.timeout(spec.duration_s)
        undo()
        if span is not None:
            self.tracer.end(span)
        self.events.append((env.now, f"lift: {type(spec).__name__}"))

    def _apply(self, fault):
        timers = self.system.machine.timers
        if isinstance(fault, LostSignals):
            previous = timers.signal_loss_prob
            timers.signal_loss_prob = fault.prob

            def undo():
                timers.signal_loss_prob = previous

            return undo
        if isinstance(fault, ClockDrift):
            previous = timers.clock_drift_rate
            timers.clock_drift_rate = previous + fault.rate

            def undo():
                timers.clock_drift_rate -= fault.rate

            return undo
        if isinstance(fault, ConsumerSlowdown):
            pairs = list(
                getattr(self.system, "pairs", None) or self.system.consumers
            )
            consumers = (
                pairs if fault.consumer is None else [pairs[fault.consumer]]
            )
            for consumer in consumers:
                consumer.service_scale *= fault.factor

            def undo():
                for consumer in consumers:
                    consumer.service_scale /= fault.factor

            return undo
        if isinstance(fault, PoolContention):
            pool = getattr(self.system, "pool", None)
            if pool is None:
                return None  # baselines have no global pool to contend
            taken = pool.withhold(fault.slots)

            def undo():
                pool.restore(taken)

            return undo
        if isinstance(fault, CoreFailure):
            managers = getattr(self.system, "managers", None)
            if not managers or not hasattr(self.system, "kill_core"):
                return None  # baselines have no core managers to kill
            manager = managers.get(fault.core)
            if manager is None or not manager.alive:
                return None
            if not any(
                m.alive for cid, m in managers.items() if cid != fault.core
            ):
                return None  # nowhere to migrate — skip, don't strand
            self.system.kill_core(fault.core)

            def undo():
                pass  # the kill is permanent; the window end only closes scoring

            return undo
        raise TypeError(f"not a runtime fault: {fault!r}")
