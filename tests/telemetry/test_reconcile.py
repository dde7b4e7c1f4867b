"""The acceptance gate: instrument totals must agree with the run's
independent ground truth (RunMetrics and the power ledger), and an
attached registry must not perturb the simulation at all."""

import pytest

from repro.core.system import PBPLSystem
from repro.harness.params import StandardParams
from repro.harness.runner import CONSUMER_CORE, Rig, base_trace
from repro.impls.multi import phase_shifted_traces
from repro.telemetry import (
    MetricsRegistry,
    reconcile_core_wakeups,
    reconcile_counters,
    reconcile_energy,
    render_checks,
)
from repro.trace import record_run

from tests.telemetry.conftest import SPEC


def test_counters_match_run_metrics(metered_run, metered_snapshot):
    checks = reconcile_counters(metered_snapshot, metered_run.stats)
    assert len(checks) == 6
    assert all(c.ok for c in checks), render_checks(checks)


def test_joules_match_power_ledger(metered_run, metered_snapshot):
    checks = reconcile_energy(metered_snapshot, metered_run.ledger_total_j)
    assert all(c.ok for c in checks), render_checks(checks)
    (check,) = checks
    assert abs(check.metric - metered_run.ledger_total_j) < 1e-9


def test_core_wakeups_match_machine(metered_run, metered_snapshot):
    checks = reconcile_core_wakeups(
        metered_snapshot, CONSUMER_CORE, metered_run.consumer_core_wakeups
    )
    assert all(c.ok for c in checks), render_checks(checks)


def test_reconcile_flags_disagreement(metered_run, metered_snapshot):
    checks = reconcile_energy(
        metered_snapshot, metered_run.ledger_total_j + 1.0
    )
    assert not all(c.ok for c in checks)
    assert "FAIL" in render_checks(checks)


def test_registry_does_not_perturb_the_run(metered_run):
    """Zero-cost invariant: the same run without any registry produces
    identical stats and an identical energy ledger — instruments only
    observe, they never reschedule."""
    bare = record_run(
        SPEC["impl"],
        SPEC["scenario"],
        duration_s=SPEC["duration_s"],
        n_consumers=SPEC["n_consumers"],
        seed=SPEC["seed"],
    )
    for attr in (
        "produced",
        "consumed",
        "scheduled_wakeups",
        "overflow_wakeups",
        "overflows",
        "items_shed",
    ):
        assert getattr(bare.stats, attr) == getattr(metered_run.stats, attr)
    assert bare.ledger_total_j == metered_run.ledger_total_j
    assert bare.consumer_core_wakeups == metered_run.consumer_core_wakeups


def test_trace_bytes_unchanged_with_registry(metered_run):
    """The golden-trace gate stays empty: attaching a registry (without
    windows) leaves the recorded event stream byte-identical."""
    from repro.trace.stream import event_to_dict

    bare = record_run(
        SPEC["impl"],
        SPEC["scenario"],
        duration_s=SPEC["duration_s"],
        n_consumers=SPEC["n_consumers"],
        seed=SPEC["seed"],
    )
    a = [event_to_dict(e) for e in bare.tracer.events]
    b = [event_to_dict(e) for e in metered_run.tracer.events]
    assert a == b


@pytest.mark.parametrize("seed, scenario", [(101, "combined"), (102, "webserver")])
def test_consumed_counter_reconciles_when_the_run_stops_mid_batch(seed, scenario):
    """These runs end while a consumer is part-way through a batch:
    its finished items must still reach items_consumed_total (batches
    are credited whole, so the end-of-run flush credits the rest)."""
    registry = MetricsRegistry()
    run = record_run(
        "PBPL", scenario, duration_s=6.0, n_consumers=5, seed=seed,
        metrics=registry,
    )
    checks = reconcile_counters(registry.snapshot(), run.stats)
    (consumed,) = [c for c in checks if c.name.startswith("items_consumed")]
    assert consumed.ok, render_checks(checks)


def test_flush_metrics_is_idempotent_and_resumable():
    params = StandardParams(duration_s=2.0, seed=101)
    rig = Rig.build(params, 0)
    registry = MetricsRegistry()
    system = PBPLSystem(
        rig.env, rig.machine, phase_shifted_traces(base_trace(params, 0), 3),
        params.pbpl_config(), consumer_cores=[CONSUMER_CORE], metrics=registry,
    ).start()
    consumed = lambda: registry.snapshot().total("items_consumed_total")  # noqa: E731
    for until in (0.7, 1.3, 2.0):
        rig.env.run(until=until)
        system.flush_metrics()
        system.flush_metrics()
        assert consumed() == system.aggregate_stats().consumed
