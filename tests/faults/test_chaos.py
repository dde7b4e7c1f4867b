"""The chaos harness: determinism, conservation, and the latency bound."""

import json

import pytest

from repro.faults import (
    DEFAULT_SCENARIOS,
    SMOKE_SCENARIOS,
    FaultPlan,
    LostSignals,
    ProducerStall,
    run_chaos,
    run_scenario,
)
from repro.faults.chaos import ChaosScenario, _merged_windows
from repro.harness.params import StandardParams

#: One short faulted scenario keeps each test to a fraction of a second.
DURATION = 0.8
CONSUMERS = 2


def combined():
    return next(s for s in DEFAULT_SCENARIOS if s.name == "combined")


def test_scenario_matrix_shape():
    names = [s.name for s in DEFAULT_SCENARIOS]
    assert names[0] == "clean"  # control row first
    assert len(names) == len(set(names))
    smoke = [s.name for s in SMOKE_SCENARIOS]
    assert smoke == ["clean", "lost-signals", "combined"]


def test_combined_scenario_conserves_and_bounds_latency():
    params = StandardParams(duration_s=DURATION, seed=11)
    result = run_scenario(combined(), params, CONSUMERS)
    assert result.conservation_ok, (
        result.produced,
        result.consumed,
        result.items_shed,
        result.buffered,
    )
    assert result.verdict in ("OK", "SHED")
    assert result.max_latency_s <= result.latency_bound_s + 1e-9
    assert result.lost_signals > 0
    assert result.watchdog_recoveries > 0
    assert result.power_under_faults_w is not None


def test_clean_scenario_reports_no_fault_activity():
    params = StandardParams(duration_s=DURATION, seed=11)
    clean = next(s for s in DEFAULT_SCENARIOS if s.name == "clean")
    result = run_scenario(clean, params, CONSUMERS)
    assert result.lost_signals == 0
    assert result.watchdog_recoveries == 0
    assert result.power_under_faults_w is None
    assert result.notes == []


def test_same_seed_same_report_bytes():
    kwargs = dict(seed=2014, duration_s=DURATION, n_consumers=CONSUMERS)
    a = run_chaos(SMOKE_SCENARIOS, **kwargs)
    b = run_chaos(SMOKE_SCENARIOS, **kwargs)
    assert a.render() == b.render()
    assert a.to_json() == b.to_json()


def test_parallel_report_is_byte_identical_to_serial():
    kwargs = dict(seed=2014, duration_s=0.5, n_consumers=3)
    serial = run_chaos(SMOKE_SCENARIOS, jobs=1, **kwargs)
    parallel = run_chaos(SMOKE_SCENARIOS, jobs=2, **kwargs)
    assert serial.to_json() == parallel.to_json()


def test_different_seed_different_report():
    a = run_chaos(SMOKE_SCENARIOS, seed=1, duration_s=DURATION, n_consumers=CONSUMERS)
    b = run_chaos(SMOKE_SCENARIOS, seed=2, duration_s=DURATION, n_consumers=CONSUMERS)
    assert a.render() != b.render()


def test_report_renders_every_scenario_and_parses_as_json():
    report = run_chaos(
        SMOKE_SCENARIOS, seed=5, duration_s=DURATION, n_consumers=CONSUMERS
    )
    text = report.render()
    for scenario in SMOKE_SCENARIOS:
        assert f"| {scenario.name} |" in text
    payload = json.loads(report.to_json())
    assert payload["passed"] == report.passed
    assert [s["scenario"] for s in payload["scenarios"]] == [
        s.name for s in SMOKE_SCENARIOS
    ]


def test_watchdog_off_breaks_the_guarantee():
    """The control experiment for the tentpole: with the watchdog
    disabled, a sustained lost-signal fault strands reserved slots and
    items are served far past the bound (or leak into the buffers)."""
    params = StandardParams(duration_s=DURATION, seed=11)
    scenario = ChaosScenario(
        "lost-hard",
        "every slot timer swallowed",
        lambda T, M: FaultPlan([LostSignals(0.2 * T, 0.6 * T, prob=1.0)]),
    )
    armed = run_scenario(scenario, params, n_consumers=1)
    disarmed = run_scenario(
        scenario, params, n_consumers=1, config_overrides={"watchdog_grace_s": 0.0}
    )
    assert armed.verdict == "OK"
    assert armed.deadline_misses == 0
    assert armed.watchdog_recoveries > 0
    # Disarmed, the only saviour is overflow churn — too late for the bound.
    assert disarmed.watchdog_recoveries == 0
    assert disarmed.deadline_misses > 0
    assert disarmed.max_latency_s > disarmed.latency_bound_s


def test_merged_windows_coalesce_overlaps_and_clip():
    plan = FaultPlan(
        [
            ProducerStall(0.1, 0.3),
            LostSignals(0.3, 0.3, prob=0.5),
            LostSignals(0.9, 5.0, prob=0.5),
        ]
    )
    assert _merged_windows(plan, 1.0) == [
        (0.1, pytest.approx(0.6)),
        (0.9, 1.0),
    ]


def test_baseline_scenario_scoring():
    params = StandardParams(duration_s=DURATION, seed=11)
    result = run_scenario(combined(), params, CONSUMERS, impl="Sem")
    assert result.impl == "Sem"
    assert result.conservation_ok
    # Baselines never touch the slot machinery or the hardened predictor.
    assert result.lost_signals == 0
    assert result.watchdog_recoveries == 0
    assert result.predictor_clamps == 0
    assert len(result.per_consumer) == CONSUMERS
    assert all(row.conservation_ok for row in result.per_consumer)


def test_baseline_recovery_time_follows_its_last_miss():
    """Baseline pairs stamp their deadline misses, so a baseline that
    misses after the last fault window reports a recovery tail."""
    stall = next(s for s in DEFAULT_SCENARIOS if s.name == "stall")
    params = StandardParams(duration_s=1.5, seed=2014)
    result = run_scenario(stall, params, n_consumers=4, impl="BP")
    assert result.deadline_misses > 0
    assert result.recovery_time_s > 0


def test_per_consumer_rows_and_predictor_counters():
    params = StandardParams(duration_s=DURATION, seed=11)
    result = run_scenario(combined(), params, CONSUMERS)
    assert len(result.per_consumer) == CONSUMERS
    assert {row.owner for row in result.per_consumer} == {
        f"consumer-{i}" for i in range(CONSUMERS)
    }
    assert sum(row.produced for row in result.per_consumer) == result.produced
    assert sum(row.items_shed for row in result.per_consumer) == result.items_shed
    worst = result.worst_consumer
    assert worst is not None and worst.badness == max(
        row.badness for row in result.per_consumer
    )
    # The burst storm makes the hardened predictor clamp at least once.
    assert result.predictor_clamps > 0
    dumped = result.to_dict()
    assert dumped["worst_consumer"] == worst.owner
    assert len(dumped["per_consumer"]) == CONSUMERS


def test_report_passed_ignores_baseline_verdicts():
    from repro.faults.chaos import ChaosReport
    from repro.metrics.resilience import ResilienceMetrics

    ok = ResilienceMetrics("s", 1.0, 0.04, 0.005, produced=1, consumed=1)
    bad = ResilienceMetrics(
        "s", 1.0, 0.04, 0.005, impl="Sem", produced=2, consumed=1,
        max_latency_s=9.0,
    )
    report = ChaosReport(seed=0, duration_s=1.0, n_consumers=1, results=[ok])
    report.baselines.append(bad)
    assert report.passed  # baseline LEAKED/VIOLATED rows are informational
    assert "Baseline degradation" in report.render()


@pytest.mark.parametrize("name", ["clean", "core-kill", "pipeline-burst"])
@pytest.mark.parametrize("with_registry", [False, True], ids=["bare", "metered"])
def test_finished_scenario_is_freed_without_the_collector(
    name, with_registry, monkeypatch
):
    """The run's object graph goes by reference counting when
    run_scenario returns (and, with a registry, once the caller drops
    it), not whenever the cyclic collector next runs."""
    import gc
    import weakref

    from repro.harness import runner
    from repro.sim import Environment
    from repro.telemetry import MetricsRegistry

    envs = []

    class Tracked(Environment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            envs.append(weakref.ref(self))

    monkeypatch.setattr(runner, "Environment", Tracked)
    scenario = next(s for s in DEFAULT_SCENARIOS if s.name == name)
    params = StandardParams(duration_s=0.3, seed=2014)
    gc.collect()
    gc.disable()
    try:
        registry = MetricsRegistry() if with_registry else None
        result = run_scenario(scenario, params, 3, metrics=registry)
        if registry is not None:
            consumed = registry.snapshot().total("items_consumed_total")
            assert consumed == result.consumed
            del registry
        alive = [ref for ref in envs if ref() is not None]
    finally:
        gc.enable()
    assert result.consumed > 0
    assert len(envs) == 1
    assert alive == []
