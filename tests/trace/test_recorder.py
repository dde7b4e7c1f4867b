"""record_run: scenario routing, baseline impls, bounded collection."""

import pytest

from repro.trace import SCENARIOS, TraceQuery, record_run, reconcile


def test_scenario_names():
    assert "webserver" in SCENARIOS
    assert "clean" in SCENARIOS
    assert "combined" in SCENARIOS


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        record_run("PBPL", "earthquake", duration_s=0.1)


def test_run_metadata(webserver_run):
    assert webserver_run.impl == "PBPL"
    assert webserver_run.scenario == "webserver"
    assert webserver_run.stats.produced > 0
    assert webserver_run.stats.consumed > 0
    assert webserver_run.consumer_core_wakeups > 0
    assert webserver_run.tracer.dropped_events == 0


def test_baseline_impl_records_and_reconciles():
    run = record_run("SPBP", "clean", duration_s=0.4)
    assert run.tracer.events
    # Baselines carry no manager/predictor tracks, but cores still do.
    assert "core0" in run.tracer.tracks()
    assert "core0.mgr" not in run.tracer.tracks()
    assert reconcile(TraceQuery(run.tracer), run.ledger_total_j) < 1e-9


def test_capacity_bounds_collection():
    run = record_run("PBPL", "webserver", duration_s=0.3, capacity=100)
    assert len(run.tracer.events) <= 100
    assert run.tracer.dropped_events > 0


@pytest.mark.parametrize("scenario", ["webserver", "pipeline-burst"])
def test_recorded_run_is_freed_without_the_collector(scenario, monkeypatch):
    """Once the caller drops the RecordedRun and its registry, the run's
    object graph goes by reference counting: the registry's views hold
    model counts, not a cycle back to themselves."""
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
    gc.collect()
    gc.disable()
    try:
        registry = MetricsRegistry()
        run = record_run(
            "PBPL", scenario, duration_s=0.3, n_consumers=3,
            metrics=registry, window_s=0.1,
        )
        consumed = registry.snapshot().total("items_consumed_total")
        assert consumed == run.stats.consumed > 0
        del run, registry
        alive = [ref for ref in envs if ref() is not None]
    finally:
        gc.enable()
    assert len(envs) == 1
    assert alive == []
