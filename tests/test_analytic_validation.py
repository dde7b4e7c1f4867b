"""Analytic end-to-end validation: hand-computed energy vs the stack.

For fully deterministic scenarios the machine's total energy is
computable with pencil and paper. These tests pin the whole pipeline —
trace replay → synchronisation → core dispatch → C/P-state accounting →
ledger integration — against closed-form expectations, to float
precision. If any layer drops a microjoule, these fail.
"""

import numpy as np
import pytest

from repro.cpu import (
    CState,
    CStateTable,
    Core,
    Machine,
    PState,
    PStateTable,
)
from repro.impls import BatchProcessing, PCConfig, SemaphorePair
from repro.power import EnergyLedger, PowerModel
from repro.sim import Environment, RandomStreams
from repro.workloads import Trace

# A deliberately round-numbered machine: 1 W active, 0.1 W idle,
# zero exit latency/context switch, 1 mJ per wakeup.
ACTIVE_W = 1.0
IDLE_W = 0.1
OMEGA_J = 1e-3


def build_rig():
    env = Environment()
    cstates = CStateTable(
        [CState("C1", 1, power_w=IDLE_W, exit_latency_s=0.0, min_residency_s=0.0)]
    )
    pstates = PStateTable([PState("p", 1e9, 1.0)])
    core = Core(env, 0, cstates, pstates, context_switch_s=0.0)
    model = PowerModel(
        capacitance_f=1e-9, static_active_w=0.0, wakeup_energy_j=OMEGA_J
    )
    ledger = EnergyLedger(env, model)
    core.add_listener(ledger)
    ledger.watch(core)

    class FakeTimers:  # impls take a TimerService; Sem/BP never use it
        pass

    return env, core, model, ledger, FakeTimers()


def regular(rate, duration):
    gap = 1.0 / rate
    times = np.arange(gap, duration, gap)
    return Trace(times[times < duration], duration, "analytic")


def test_sem_energy_exact():
    """Sem at 100 items/s for 10 s, 1 ms service, zero sync overhead.

    Each item: one wakeup (ω) + 1 ms active. Expected:
      active  = 999 items × 1 ms × 1 W            = 0.999 J
      wakeups = 999 × 1 mJ                        = 0.999 J
      idle    = (10 − 0.999) s × 0.1 W            = 0.9001 J
    """
    env, core, model, ledger, timers = build_rig()
    cfg = PCConfig(
        buffer_size=1000, service_time_s=1e-3, sync_overhead_s=0.0,
        max_response_latency_s=1.0,
    )
    impl = SemaphorePair(env, core, timers, regular(100.0, 10.0), cfg).start()
    env.run(until=10.0)
    ledger.settle()

    n = impl.trace.n_items
    assert n == 999
    assert impl.stats.consumed == n
    breakdown = ledger.total_breakdown()
    active_expected = n * 1e-3 * ACTIVE_W
    wakeup_expected = n * OMEGA_J
    idle_expected = (10.0 - n * 1e-3) * IDLE_W
    assert breakdown.active_j == pytest.approx(active_expected, rel=1e-9)
    assert breakdown.wakeup_j == pytest.approx(wakeup_expected, rel=1e-9)
    assert breakdown.idle_j == pytest.approx(idle_expected, rel=1e-9)
    assert ledger.total_energy_j() == pytest.approx(
        active_expected + wakeup_expected + idle_expected, rel=1e-9
    )


def test_bp_energy_exact():
    """BP with buffer 10 at 100 items/s for 10 s, 1 ms service.

    999 items → 99 full batches (990 items) + 9 left unbuffered-forever.
    Each batch: one wakeup, 1 µs wake-check + 10 ms of item work.
      active  = 99 × (10 ms + 1 µs) × 1 W = 0.990099 J
      wakeups = 99 × 1 mJ                 = 0.099 J
      idle    = (10 − 0.990099) × 0.1     = 0.9009901 J
    """
    env, core, model, ledger, timers = build_rig()
    cfg = PCConfig(
        buffer_size=10, service_time_s=1e-3, sync_overhead_s=0.0,
        max_response_latency_s=10.0,
    )
    impl = BatchProcessing(env, core, timers, regular(100.0, 10.0), cfg).start()
    env.run(until=10.0)
    ledger.settle()

    assert impl.stats.invocations == 99
    assert impl.stats.consumed == 990
    breakdown = ledger.total_breakdown()
    active_expected = 99 * (10 * 1e-3 + 1e-6) * ACTIVE_W
    assert breakdown.active_j == pytest.approx(active_expected, rel=1e-9)
    assert breakdown.wakeup_j == pytest.approx(99 * OMEGA_J, rel=1e-9)
    assert breakdown.idle_j == pytest.approx(
        (10.0 - (active_expected / ACTIVE_W)) * IDLE_W, rel=1e-9
    )


def test_item_latency_exact_for_bp():
    """BP's per-item latency is analytic on a regular trace.

    With buffer B and gap g, the k-th item of a batch (k = 1..B) waits
    (B − k)·g for the buffer to fill, then k·service for its turn
    (wake-check is processed before item 1).
    """
    env, core, model, ledger, timers = build_rig()
    B, g, s = 10, 1e-2, 1e-3
    cfg = PCConfig(
        buffer_size=B, service_time_s=s, sync_overhead_s=0.0,
        max_response_latency_s=10.0,
    )
    impl = BatchProcessing(env, core, timers, regular(1 / g, 10.0), cfg).start()
    env.run(until=10.0)
    first_batch = impl.stats.latencies[:B]
    expected = [(B - k) * g + 1e-6 + k * s for k in range(1, B + 1)]
    assert first_batch == pytest.approx(expected, rel=1e-9)
