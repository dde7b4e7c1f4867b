"""The acceptance gate: registry series must agree with the run's own
accounts — every counter and gauge with the model count it views, the
power collector's folds with the ledger and the cores — and an attached
registry must not perturb the simulation at all."""

from collections import Counter

import pytest

from repro.core.system import PBPLSystem
from repro.harness.runner import CONSUMER_CORE
from repro.pipeline import PipelineSystem
from repro.telemetry import (
    MetricsRegistry,
    reconcile_core_wakeups,
    reconcile_energy,
    render_checks,
)
from repro.trace import record_run
from repro.trace import recorder

from tests.telemetry.conftest import SPEC

#: Series the registry folds live instead of reading from the model:
#: the batch histogram and the ledger's energy/residency (held to the
#: ledger by the reconcile_energy tests below).
LIVE = {"batch_items", "energy_joules_total", "cstate_residency_seconds_total"}

#: (scenario, seed, duration_s, n_consumers, window_s): the golden
#: spec, the chaos scenarios at two seeds, and the three observed
#: benchmark scenarios with tumbling windows on.
RUNS = (
    [(SPEC["scenario"], SPEC["seed"], SPEC["duration_s"], SPEC["n_consumers"], None)]
    + [
        (scenario, seed, 6.0, 5, None)
        for scenario in (
            "webserver", "combined", "core-kill", "cascade", "contention",
            "lost-signals",
        )
        for seed in (101, 102)
    ]
    + [
        (scenario, seed, 6.0, 5, 0.1)
        for scenario in ("webserver", "combined", "pipeline-burst")
        for seed in (2014, 7)
    ]
)


def _model_value(system, name, labels):
    """The model count a registry series must equal."""
    if "consumer" in labels:
        (c,) = [c for c in system.consumers if c.owner == labels["consumer"]]
        s = c.stats
        return {
            "items_produced_total": lambda: s.produced,
            "items_consumed_total": lambda: s.consumed,
            "wakeups_total": lambda: (
                s.scheduled_wakeups
                if labels["kind"] == "scheduled"
                else s.overflow_wakeups
            ),
            "slots_latched_total": lambda: s.slots_latched,
            "slots_missed_total": lambda: s.slots_missed,
            # The pair's own producer's encounters: a pipeline stage's
            # forward stalls count in PairStats.overflows only.
            "overflows_total": lambda: s.overflows - s.forward_overflows,
            "overflow_drops_total": lambda: s.items_shed,
            "buffer_resizes_total": lambda: (
                s.resizes_up if labels["direction"] == "up" else s.resizes_down
            ),
            "buffer_capacity": lambda: c.buffer.capacity,
            "predictor_clamps_total": lambda: c.predictor.clamped,
            "predictor_reconvergences_total": lambda: c.predictor.reconvergences,
        }[name]()
    if name == "core_wakeups_total":
        return system.machine.core(int(labels["core"])).total_wakeups
    if "core" in labels:
        m = system.managers[int(labels["core"])]
        return {
            "slots_fired_total": m.scheduled_wakeups,
            "activations_total": m.activations,
            "lost_signals_total": m.lost_signals,
            "watchdog_recoveries_total": m.watchdog_recoveries,
        }[name]
    if "stage" in labels:
        assert name == "backpressure_stalls_total"
        return system.stage_consumers[labels["stage"]].backpressure_stalls
    return {
        "pool_upsize_requests_total": system.pool.upsize_requests,
        "pool_upsize_grants_total": system.pool.upsize_grants,
        "pool_slots_lent_total": system.pool.slots_lent,
        "pool_contention_events_total": system.pool.contention_events,
        "pool_migrations_total": system.pool.migrations,
    }[name]


@pytest.mark.parametrize(
    "scenario, seed, duration_s, n_consumers, window_s",
    RUNS,
    ids=["golden"] + [f"{r[0]}-{r[1]}" for r in RUNS[1:]],
)
def test_every_series_equals_its_model_count(
    scenario, seed, duration_s, n_consumers, window_s, monkeypatch
):
    systems = []

    def capture(cls):
        class Captured(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                systems.append(self)

        return Captured

    monkeypatch.setattr(recorder, "PBPLSystem", capture(PBPLSystem))
    monkeypatch.setattr(recorder, "PipelineSystem", capture(PipelineSystem))
    registry = MetricsRegistry(const_labels={"impl": "PBPL"})
    run = record_run(
        "PBPL", scenario, duration_s=duration_s, n_consumers=n_consumers,
        seed=seed, metrics=registry, window_s=window_s,
    )
    (system,) = systems
    snapshot = registry.snapshot()
    held = set()
    for name, kind, labels, state in snapshot.samples():
        if name in LIVE:
            continue
        labels = {k: v for k, v in labels if k != "impl"}
        assert state == _model_value(system, name, labels), (name, labels)
        held.add(name)
    assert len(held) == (22 if scenario.startswith("pipeline") else 21)

    if not run.tracer.dropped_events:
        # The plain counts the consumer keeps for the registry, against
        # the tracer's separate record of the same decisions.
        seen = Counter(
            (e.track, e.name, e.args.get("latched"))
            for e in run.tracer.events
            if e.name in ("reserve.decision", "buffer.capacity")
        )
        for c in system.consumers:
            s = c.stats
            assert seen[c.owner, "reserve.decision", True] == s.slots_latched
            assert seen[c.owner, "reserve.decision", False] == s.slots_missed
            assert seen[c.owner, "buffer.capacity", None] == (
                s.resizes_up + s.resizes_down
            )

    overflows = snapshot.total("overflows_total")
    if scenario == "pipeline-burst":
        # Forward stalls are the pipeline's own back-pressure, met by
        # the receiving stage: they count in PairStats.overflows but not
        # in overflows_total, and each is one stall of the forwarder.
        assert overflows == run.stats.overflows - system.backpressure_stalls
        if seed == 2014:
            store = system.stage_consumers["store"].stats
            assert store.overflows == 496
            assert snapshot.value(
                "overflows_total", consumer="consumer-store", impl="PBPL"
            ) == 0
    else:
        assert overflows == run.stats.overflows

    if window_s is not None:
        # Frames read the views at each window edge, so per item: they
        # tile the run and sum back to the model's total.
        framed = sum(f.snapshot.total("items_consumed_total") for f in run.frames)
        assert framed == run.stats.consumed


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
