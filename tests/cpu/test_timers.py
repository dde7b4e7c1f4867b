"""Unit tests for the timer subsystem (nanosleep jitter vs signals)."""

import numpy as np
import pytest

from repro.cpu import TimerService
from repro.sim import Environment, SimulationError


def make_timers(env, **kwargs):
    rng = np.random.default_rng(12345)
    return TimerService(env, rng, **kwargs)


def test_nanosleep_never_early():
    """POSIX sleeps at least the request: lateness is never negative."""
    env = Environment()
    timers = make_timers(env)
    draws = [timers.nanosleep_lateness() for _ in range(200)]
    assert min(draws) >= timers.nanosleep_overhead_s


def test_nanosleep_with_zero_jitter_is_exact_plus_overhead():
    env = Environment()
    timers = make_timers(
        env,
        nanosleep_overhead_s=5e-6,
        nanosleep_jitter_s=0.0,
        nanosleep_tail_prob=0.0,
    )
    assert timers.nanosleep_lateness() == 5e-6


def test_signal_alarm_more_accurate_than_nanosleep():
    """SPBP's SIGALRM skew is smaller than PBP's nanosleep lateness."""
    env = Environment()
    timers = make_timers(env)
    skews = [timers.signal_skew() for _ in range(200)]
    lates = [timers.nanosleep_lateness() for _ in range(200)]
    assert np.mean(skews) < np.mean(lates)


def test_timer_parameter_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        make_timers(env, nanosleep_jitter_s=-1.0)


def test_nanosleep_heavy_tail_occasionally_fires():
    env = Environment()
    timers = make_timers(
        env,
        nanosleep_overhead_s=0.0,
        nanosleep_jitter_s=0.0,
        nanosleep_tail_prob=0.5,
        nanosleep_tail_scale_s=1e-3,
    )
    draws = [timers.nanosleep_lateness() for _ in range(400)]
    tails = sum(1 for d in draws if d > 0)
    assert 100 < tails < 300  # ≈ half, well away from 0 and all


# -- fault hooks: lost signals and clock drift ----------------------------------


def test_no_rng_draw_when_loss_disabled():
    """Fault-free services must stay bit-identical to the pre-fault code:
    signal_lost() with probability 0 may not consume any randomness."""
    env = Environment()
    timers = make_timers(env)
    before = timers.rng.bit_generator.state
    for _ in range(10):
        assert timers.signal_lost() is False
    assert timers.rng.bit_generator.state == before


def test_slot_alarm_returns_none_when_signal_lost():
    env = Environment()
    timers = make_timers(env, signal_loss_prob=1.0)
    assert timers.slot_alarm(0.5) is None
    assert timers.signals_lost == 1


def test_slot_alarm_delivers_at_deadline_plus_skew():
    env = Environment()
    timers = make_timers(env, signal_jitter_s=0.0)
    fired = []

    def proc(env):
        yield timers.slot_alarm(0.25)
        fired.append(env.now)

    env.process(proc(env))
    env.run(until=1.0)
    assert fired == [pytest.approx(0.25)]


def test_clock_drift_stretches_armed_delays():
    env = Environment()
    timers = make_timers(env, signal_jitter_s=0.0, clock_drift_rate=0.1)
    assert timers.drifted(1.0) == pytest.approx(1.1)
    fired = []

    def proc(env):
        yield timers.slot_alarm(0.2)
        fired.append(env.now)

    env.process(proc(env))
    env.run(until=1.0)
    assert fired == [pytest.approx(0.22)]


def test_loss_prob_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        make_timers(env, signal_loss_prob=1.5)
    with pytest.raises(SimulationError):
        make_timers(env, clock_drift_rate=-1.0)


