"""Simultaneity sanitizer: injected races caught, ordered schedules clean."""

from repro.analysis.sanitizer import (
    SanitizingEnvironment,
    install_probes,
    sanitize_scenario,
)
from repro.core.slots import SlotTrack


def _sanitized_env():
    install_probes()
    return SanitizingEnvironment()


def test_injected_same_timestamp_race_names_both_sites():
    env = _sanitized_env()
    track = SlotTrack(0.01)

    def racer_alpha():
        yield env.timeout(0.5)
        track.reserve(0, "alpha")

    def racer_beta():
        yield env.timeout(0.5)
        track.reserve(1, "beta")

    env.process(racer_alpha(), name="alpha")
    env.process(racer_beta(), name="beta")
    env.run()
    report = env.sanitizer.finish()

    assert not report.ok
    assert len(report.races) == 1
    race = report.races[0]
    assert race.state == "SlotTrack#0"
    assert race.time_s == 0.5
    # Both scheduling call sites are named, and they are distinct lines
    # in this test file (one per racer).
    assert "test_sanitizer.py" in race.site_a
    assert "test_sanitizer.py" in race.site_b
    assert race.site_a != race.site_b
    assert "racer_alpha" in race.site_a
    assert "racer_beta" in race.site_b
    rendered = race.render()
    assert race.site_a in rendered and race.site_b in rendered
    assert "heap insertion" in rendered


def test_same_origin_schedules_are_program_ordered():
    """Two timers armed back-to-back from the same context (setup code)
    are ordered by program order — not a heap accident, not a race."""
    env = _sanitized_env()
    track = SlotTrack(0.01)

    t1 = env.timeout(0.5)
    t1.callbacks.append(lambda ev: track.reserve(0, "a"))
    t2 = env.timeout(0.5)
    t2.callbacks.append(lambda ev: track.reserve(1, "b"))
    env.run()

    report = env.sanitizer.finish()
    assert report.ok
    assert report.events_seen == 2


def test_derived_events_are_causally_ordered():
    """An event scheduled *during* a dispatch at the same timestamp is
    ordered after its parent — excluded even against other origins."""
    env = _sanitized_env()
    track = SlotTrack(0.01)

    def parent():
        yield env.timeout(0.5)
        child = env.timeout(0.0)
        child.callbacks.append(lambda ev: track.reserve(0, "child"))

    def bystander():
        yield env.timeout(0.5)
        track.reserve(1, "bystander")

    env.process(parent(), name="parent")
    env.process(bystander(), name="bystander")
    env.run()
    assert env.sanitizer.finish().ok


def test_report_counts_contended_groups():
    env = _sanitized_env()
    for delay in (0.1, 0.1, 0.2):
        env.timeout(delay)
    env.run()
    report = env.sanitizer.finish()
    assert report.ok
    assert report.events_seen == 3
    assert report.contended_groups == 1
    assert "0 race(s)" in report.render()


def test_injected_race_still_flagged_under_batched_dispatch():
    """The two racing reserves land mid-burst among 102 same-timestamp
    events, so they dispatch back to back inside one timestamp's burst
    (DESIGN.md §13) — the sanitizer must flag exactly that double-push
    race, nothing else."""
    env = _sanitized_env()
    track = SlotTrack(0.01)

    def filler():
        yield env.timeout(0.5)

    def racer_alpha():
        yield env.timeout(0.5)
        track.reserve(0, "alpha")

    def racer_beta():
        yield env.timeout(0.5)
        track.reserve(1, "beta")

    for i in range(50):
        env.process(filler(), name=f"filler-a{i}")
    env.process(racer_alpha(), name="alpha")
    for i in range(50):
        env.process(filler(), name=f"filler-b{i}")
    env.process(racer_beta(), name="beta")
    env.run()
    report = env.sanitizer.finish()

    assert not report.ok
    assert len(report.races) == 1
    race = report.races[0]
    assert race.state == "SlotTrack#0"
    assert race.time_s == 0.5
    assert "racer_alpha" in race.site_a
    assert "racer_beta" in race.site_b
    # Every event of all 102 processes (start, timeout wakeup, exit)
    # went through the sanitizer's instrumented loop — batching hid
    # none of them.
    assert report.events_seen == 306


def test_golden_scenario_sanitizes_clean():
    from repro.faults.chaos import SMOKE_SCENARIOS
    from repro.harness.params import StandardParams

    params = StandardParams(duration_s=0.3, seed=2014)
    report = sanitize_scenario(SMOKE_SCENARIOS[0], params, n_consumers=2)
    assert report.ok, report.render()
    assert report.events_seen > 100
