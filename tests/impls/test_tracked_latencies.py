"""Percentiles are exact: every one comes from the raw latency list.

Each pair keeps every per-item latency, and aggregates pool the pairs'
raw lists, so a percentile is ``np.percentile`` over the samples.
"""

import numpy as np
import pytest

from repro.core import PBPLConfig, PBPLSystem
from repro.harness.params import StandardParams
from repro.harness.runner import run_multi
from repro.impls import MultiPairSystem, PCConfig, phase_shifted_traces
from tests.impls.conftest import Rig, regular_trace


def test_pair_percentile_reads_raw_samples():
    rig = Rig(seed=0)
    impl = rig.run_impl("BP", regular_trace(5000.0, 2.0), 2.0, PCConfig())
    stats = impl.stats
    assert stats.consumed > 8192
    assert len(stats.latencies) == stats.consumed
    assert stats.latency_percentile(99) == float(
        np.percentile(stats.latencies, 99)
    )
    assert stats.mean_latency_s == pytest.approx(np.mean(stats.latencies))
    assert stats.max_latency_s == max(stats.latencies)


def _pbpl(rig, traces):
    return PBPLSystem(
        rig.env,
        rig.machine,
        traces,
        PBPLConfig(buffer_size=25, slot_size_s=5e-3),
    ).start()


def _baseline(rig, traces):
    return MultiPairSystem(rig.env, rig.machine, "BP", traces, PCConfig()).start()


def _consumers(system):
    return getattr(system, "consumers", None) or system.pairs


@pytest.mark.parametrize("build", [_pbpl, _baseline], ids=["PBPL", "BP"])
def test_tracked_aggregate_pools_raw_samples(build):
    rig = Rig(seed=0)
    traces = phase_shifted_traces(regular_trace(2500.0, 2.0), 3)
    system = build(rig, traces)
    rig.env.run(until=2.0)
    for c in _consumers(system):
        assert c.stats.consumed > 4096
    merged = [x for c in _consumers(system) for x in c.stats.latencies]
    total = system.aggregate_stats()
    assert len(merged) == total.consumed
    assert total.latency_percentile(99) == float(np.percentile(merged, 99))


@pytest.mark.parametrize("name", ["PBPL", "BP"])
def test_run_multi_reports_p99_from_raw_samples(name):
    metrics = run_multi(name, 3, StandardParams(duration_s=3.0, replicates=1))
    assert metrics.consumed > 3 * 4096
    assert 0.0 < metrics.p99_latency_s <= metrics.max_latency_s


def test_percentile_of_an_empty_pair_is_zero():
    rig = Rig(seed=0)
    impl = rig.run_impl("BP", regular_trace(5000.0, 2.0), 0.0, PCConfig())
    assert len(impl.stats.latencies) == 0
    assert impl.stats.latency_percentile(99) == 0.0
