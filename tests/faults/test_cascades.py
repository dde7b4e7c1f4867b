"""Cascading faults: window triggers, their resolution and live firing."""

import pytest

from repro.faults import (
    BurstStorm,
    ConsumerSlowdown,
    FaultPlan,
    LostSignals,
    RuntimeInjector,
    TriggeredFault,
    WindowTrigger,
)
from repro.faults.chaos import DEFAULT_SCENARIOS, run_scenario
from repro.harness.params import StandardParams
from repro.sim import Environment

from tests.faults.test_spec_and_injectors import make_live_system, sample_at

BY_NAME = {s.name: s for s in DEFAULT_SCENARIOS}


def _slow(duration_s=0.2, factor=3.0):
    return ConsumerSlowdown(start_s=0.0, duration_s=duration_s, factor=factor)


# -- static window resolution ----------------------------------------------------


def test_window_trigger_resolves_from_source_edges():
    plan = FaultPlan(
        [
            BurstStorm(start_s=0.2, duration_s=0.1, factor=2.0),
            TriggeredFault(_slow(0.3), WindowTrigger(source=0, edge="end")),
            TriggeredFault(
                _slow(0.1), WindowTrigger(source=0, edge="start", delay_s=0.05)
            ),
        ]
    )
    windows = plan.resolved_windows()
    assert windows[0] == pytest.approx((0.2, 0.3))
    assert windows[1] == pytest.approx((0.3, 0.6))
    assert windows[2] == pytest.approx((0.25, 0.35))
    # windows() sorts and includes the statically resolvable cascade.
    assert plan.windows() == sorted(windows)
    assert plan.last_fault_end_s == pytest.approx(0.6)


def test_window_trigger_can_chain_onto_another_triggered_fault():
    plan = FaultPlan(
        [
            BurstStorm(start_s=0.1, duration_s=0.1, factor=2.0),
            TriggeredFault(_slow(0.1), WindowTrigger(source=0, edge="end")),
            TriggeredFault(_slow(0.1), WindowTrigger(source=1, edge="end")),
        ]
    )
    assert plan.resolved_windows()[2] == pytest.approx((0.3, 0.4))


def test_window_trigger_rejects_forward_sources():
    with pytest.raises(ValueError, match="earlier fault"):
        FaultPlan([TriggeredFault(_slow(), WindowTrigger(source=0))])
    with pytest.raises(ValueError, match="earlier fault"):
        FaultPlan(
            [
                BurstStorm(start_s=0.1, duration_s=0.1, factor=2.0),
                TriggeredFault(_slow(), WindowTrigger(source=5)),
            ]
        )


def test_triggered_fault_validates_its_wrapped_spec():
    with pytest.raises(ValueError, match="only runtime faults"):
        TriggeredFault(
            BurstStorm(start_s=0.0, duration_s=0.1, factor=2.0),
            WindowTrigger(source=0),
        )
    with pytest.raises(ValueError, match="start_s=0"):
        TriggeredFault(
            ConsumerSlowdown(start_s=0.1, duration_s=0.1, factor=2.0),
            WindowTrigger(source=0),
        )


def test_trigger_parameter_validation():
    with pytest.raises(ValueError, match=">= 0"):
        WindowTrigger(source=-1)
    with pytest.raises(ValueError, match="edge"):
        WindowTrigger(source=0, edge="middle")
    with pytest.raises(ValueError, match="delay"):
        WindowTrigger(source=0, delay_s=-0.1)


def test_cascades_describe_trigger_then_fault():
    fault = TriggeredFault(_slow(), WindowTrigger(source=0, edge="end"))
    text = fault.describe()
    assert text.startswith("at fault #0's window end:")
    assert "slow all consumers" in text


# -- live application ------------------------------------------------------------


def test_window_triggered_fault_fires_at_resolved_time():
    env = Environment()
    system = make_live_system(env)
    plan = FaultPlan(
        [
            LostSignals(start_s=0.2, duration_s=0.2, prob=0.5),
            TriggeredFault(
                _slow(0.2), WindowTrigger(source=0, edge="end", delay_s=0.1)
            ),
        ]
    )
    RuntimeInjector(env, system, plan).start()
    # Triggered window resolves to [0.5, 0.7).
    seen = sample_at(
        env, [0.45, 0.6, 0.8], lambda: system.consumers[0].service_scale
    )
    env.run(until=1.0)
    assert seen[0.45] == 1.0
    assert seen[0.6] == pytest.approx(3.0)
    assert seen[0.8] == 1.0


# -- the shipped cascade scenario ------------------------------------------------


def test_cascade_scenario_is_deterministic_and_conserves():
    params = StandardParams(duration_s=0.6, seed=2014)
    a = run_scenario(BY_NAME["cascade"], params, 3)
    b = run_scenario(BY_NAME["cascade"], params, 3)
    assert a.to_dict() == b.to_dict()
    assert a.conservation_ok
    assert a.verdict in ("OK", "SHED")
    # The triggered slowdown is part of the plan's notes.
    assert any("window end" in note for note in a.notes)


def test_cascade_scenario_scores_on_a_baseline_too():
    params = StandardParams(duration_s=0.6, seed=2014)
    result = run_scenario(BY_NAME["cascade"], params, 3, impl="Sem")
    assert result.impl == "Sem"
    assert result.conservation_ok
