"""Tracked pairs read latencies from raw samples and never feed P².

With ``track_latencies=True`` every percentile comes from the raw list,
so the P² stream is left empty: a run that consumes far more items than
the stream's staging buffer holds must never reach the estimators.
"""

import numpy as np
import pytest

from repro.core import PBPLConfig, PBPLSystem
from repro.harness.params import StandardParams
from repro.harness.runner import run_multi
from repro.impls import MultiPairSystem, PCConfig, phase_shifted_traces
from repro.metrics.quantiles import P2Quantile, StreamingLatency
from tests.impls.conftest import Rig, regular_trace


@pytest.fixture
def no_p2(monkeypatch):
    """Make any P² marker update fail the test."""

    def refuse(self, x):
        raise AssertionError("P² estimator fed on a tracked pair")

    monkeypatch.setattr(P2Quantile, "observe", refuse)


def test_tracked_pair_never_feeds_p2(no_p2):
    rig = Rig(seed=0)
    impl = rig.run_impl(
        "BP", regular_trace(5000.0, 2.0), 2.0, PCConfig(track_latencies=True)
    )
    stats = impl.stats
    assert stats.consumed > 2 * StreamingLatency._FLUSH_AT
    assert len(stats.latencies) == stats.consumed
    assert stats.latency_stream.count == 0
    assert stats.latency_percentile(99) == float(
        np.percentile(stats.latencies, 99)
    )
    assert stats.mean_latency_s == pytest.approx(np.mean(stats.latencies))
    assert stats.max_latency_s == max(stats.latencies)


def _pbpl(rig, traces, track):
    return PBPLSystem(
        rig.env,
        rig.machine,
        traces,
        PBPLConfig(buffer_size=25, slot_size_s=5e-3, track_latencies=track),
    ).start()


def _baseline(rig, traces, track):
    return MultiPairSystem(
        rig.env, rig.machine, "BP", traces, PCConfig(track_latencies=track)
    ).start()


def _consumers(system):
    return getattr(system, "consumers", None) or system.pairs


@pytest.mark.parametrize("build", [_pbpl, _baseline], ids=["PBPL", "BP"])
def test_tracked_aggregate_pools_raw_samples(no_p2, build):
    rig = Rig(seed=0)
    traces = phase_shifted_traces(regular_trace(2500.0, 2.0), 3)
    system = build(rig, traces, True)
    rig.env.run(until=2.0)
    for c in _consumers(system):
        assert c.stats.consumed > StreamingLatency._FLUSH_AT
    merged = [x for c in _consumers(system) for x in c.stats.latencies]
    total = system.aggregate_stats()
    assert len(merged) == total.consumed
    assert total.latency_percentile(99) == float(np.percentile(merged, 99))


@pytest.mark.parametrize("name", ["PBPL", "BP"])
def test_run_multi_reports_p99_from_raw_samples(no_p2, name):
    metrics = run_multi(name, 3, StandardParams(duration_s=3.0, replicates=1))
    # The pairs replay phase-shifted copies of one trace, so each one
    # consumes about a third: more than one staging buffer of P².
    assert metrics.consumed > 3 * StreamingLatency._FLUSH_AT
    assert 0.0 < metrics.p99_latency_s <= metrics.max_latency_s


@pytest.mark.parametrize("build", [_pbpl, _baseline], ids=["PBPL", "BP"])
def test_untracked_aggregate_has_no_percentiles(build):
    rig = Rig(seed=0)
    traces = phase_shifted_traces(regular_trace(500.0, 1.0), 2)
    system = build(rig, traces, False)
    rig.env.run(until=1.0)
    assert all(c.stats.latency_stream.count for c in _consumers(system))
    with pytest.raises(ValueError, match="aggregated stats without raw latencies"):
        system.aggregate_stats().latency_percentile(99)
