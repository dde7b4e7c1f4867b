"""Tests for the power waveform recorder."""

import pytest

from repro.cpu import CState, CStateTable, Core, PState, PStateTable
from repro.power import EnergyLedger, PowerModel
from repro.power.timeline import PowerTimeline
from repro.sim import Environment


def make_rig(max_steps=None):
    env = Environment()
    cstates = CStateTable(
        [CState("C1", 1, power_w=0.1, exit_latency_s=0.0, min_residency_s=0.0)]
    )
    pstates = PStateTable([PState("p", 1e9, 1.0)])  # 1 W dynamic
    core = Core(env, 0, cstates, pstates, context_switch_s=0.0)
    model = PowerModel(capacitance_f=1e-9, static_active_w=0.0, wakeup_energy_j=1e-4)
    ledger = EnergyLedger(env, model)
    core.add_listener(ledger)
    ledger.watch(core)
    timeline = ledger.add_sink(PowerTimeline([core], max_steps=max_steps))
    return env, core, timeline


def test_initial_level_is_idle_power():
    env, core, timeline = make_rig()
    assert timeline.power_at(0.0) == pytest.approx(0.1)


def test_steps_track_activity():
    env, core, timeline = make_rig()

    def task(env):
        yield env.timeout(1.0)
        yield from core.execute("t", 2.0)

    env.process(task(env))
    env.run(until=10.0)
    assert timeline.power_at(0.5) == pytest.approx(0.1)  # idle
    assert timeline.power_at(2.0) == pytest.approx(1.0)  # active
    assert timeline.power_at(5.0) == pytest.approx(0.1)  # idle again


def test_power_before_recording_rejected():
    env, core, timeline = make_rig()
    with pytest.raises(ValueError):
        timeline.power_at(-1.0)


def test_impulses_record_wakeups():
    env, core, timeline = make_rig()

    def task(env):
        for _ in range(3):
            yield env.timeout(1.0)
            yield from core.execute("t", 0.1, after_block=True)

    env.process(task(env))
    env.run()
    assert len(timeline.impulses) == 3
    assert all(e == pytest.approx(1e-4) for _, e in timeline.impulses)


def test_sample_grid():
    env, core, timeline = make_rig()

    def task(env):
        yield env.timeout(1.0)
        yield from core.execute("t", 1.0)

    env.process(task(env))
    env.run(until=4.0)
    samples = timeline.sample(0.0, 3.0, 7)
    assert len(samples) == 7
    assert samples[0].power_w == pytest.approx(0.1)
    assert samples[3].power_w == pytest.approx(1.0)  # t=1.5, mid-slice
    assert samples[6].power_w == pytest.approx(0.1)


def test_sample_bitwise_matches_per_point_power_at():
    """The vectorized searchsorted sweep returns exactly what a scalar
    power_at() loop over the same grid would — times and values both."""
    env, core, timeline = make_rig()

    def task(env):
        for _ in range(5):
            yield env.timeout(0.3)
            yield from core.execute("t", 0.21)

    env.process(task(env))
    env.run(until=4.0)
    n = 101
    t0, t1 = 0.0, 3.7
    samples = timeline.sample(t0, t1, n)
    dt = (t1 - t0) / (n - 1)
    for i, s in enumerate(samples):
        t = t0 + i * dt
        assert s.time_s == t
        assert s.power_w == timeline.power_at(t)


def test_sample_validation():
    env, core, timeline = make_rig()
    env.run(until=1.0)
    with pytest.raises(ValueError):
        timeline.sample(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        timeline.sample(1.0, 0.5, 5)


def test_render_produces_waveform():
    env, core, timeline = make_rig()

    def task(env):
        yield env.timeout(1.0)
        yield from core.execute("t", 1.0)

    env.process(task(env))
    env.run(until=4.0)
    art = timeline.render(0.0, 4.0, width=40, height=4)
    lines = art.splitlines()
    assert len(lines) == 5  # 4 rows + axis
    assert "█" in art
    assert "W over" in lines[-1]


def test_downsampling_bounds_memory():
    env, core, timeline = make_rig(max_steps=64)

    def task(env):
        for _ in range(500):
            yield env.timeout(0.01)
            yield from core.execute("t", 0.001)

    env.process(task(env))
    env.run()
    assert len(timeline.steps) <= 130  # ≤ ~2× the cap between halvings
    # The waveform is still usable end to end.
    assert timeline.power_at(env.now - 0.001) >= 0
