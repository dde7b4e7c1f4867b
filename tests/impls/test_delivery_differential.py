"""Every implementation's ``try_deliver`` and the shared batch loop hold
to the generator route they replaced.

The old route is written out below: one delivery generator per arrival
(``yield from deliver(t)`` in the producer) and one ``hold.busy(cost)``
generator per served item in the BP/PBP/SPBP/PBPL batch loops. Random
traces with same-instant bursts, fed identically to every pair, through
buffers of 1-4 items (so producers block often) and, for PBPL, each
overflow policy, must give equal per-pair ``PairStats``, equal
``events_processed`` and equal ``RunMetrics`` down both routes.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers import OVERFLOW_POLICIES
from repro.core import consumer as consumer_module
from repro.core.system import PBPLSystem
from repro.cpu.core import CoreHold
from repro.harness import runner
from repro.harness.params import StandardParams
from repro.impls import base, single
from repro.impls.edf import EDFBatchSystem
from repro.impls.multi import MultiPairSystem
from repro.workloads.trace import Trace

# -- the old route ------------------------------------------------------------


def _wait_for_space(pair):
    pair.stats.overflows += 1
    while pair.buffer.is_full:
        if pair._space_event is None or pair._space_event.triggered:
            pair._space_event = pair.env.event()
        yield pair._space_event


def _deliver_bw(pair, t):
    if pair.buffer.is_full:
        yield from _wait_for_space(pair)
    pair.buffer.push(t)
    if pair._item_event is not None and not pair._item_event.triggered:
        pair._item_event.succeed()
        pair._item_event = None


def _deliver_mutex(pair, t):
    if not pair.mutex.try_acquire():
        yield pair.mutex.acquire()
    first = True
    while pair.buffer.is_full:
        if first:
            pair.stats.overflows += 1
            first = False
        yield from pair.not_full.wait()
    pair.buffer.push(t)
    pair.not_empty.notify()
    pair.mutex.release()


def _deliver_sem(pair, t):
    if not pair.empty.try_acquire():
        pair.stats.overflows += 1
        yield pair.empty.acquire()
    pair.buffer.push(t)
    pair.full.release()


def _deliver_batch(pair, t):
    """BP, PBP and SPBP: wake the consumer when the buffer fills."""
    if pair.buffer.is_full:
        yield from _wait_for_space(pair)
    pair.buffer.push(t)
    if pair.buffer.is_full and pair._full_event is not None:
        if not pair._full_event.triggered:
            pair._full_event.succeed()
        pair._full_event = None


def _deliver_pbpl(pair, t):
    if pair.buffer.is_full:
        yield from pair._deliver_overflow(t)
        return
    pair.buffer.push(t)
    if pair.buffer.is_full:
        pair._trigger_overflow()


def _deliver_edf(pair, t):
    if pair.buffer.is_full:
        pair.stats.overflows += 1
        pair.coordinator.notify_overflow()
        while pair.buffer.is_full:
            pair._space_event = pair.env.event()
            yield pair._space_event
    pair.buffer.push(t)
    if pair.oldest_arrival is None:
        pair.oldest_arrival = t
        pair.coordinator.notify_first_item()
    if pair.buffer.is_full:
        pair.coordinator.notify_overflow()


OLD_DELIVER = {
    "BusyWaiting": _deliver_bw,
    "Yielding": _deliver_bw,
    "MutexCondvar": _deliver_mutex,
    "SemaphorePair": _deliver_sem,
    "BatchProcessing": _deliver_batch,
    "PeriodicBatch": _deliver_batch,
    "SignalPeriodicBatch": _deliver_batch,
    "LatchingConsumer": _deliver_pbpl,
    "_EDFPair": _deliver_edf,
}


def old_producer_process(self):
    """``Producer.process`` with one delivery generator per arrival."""
    env = self.env
    pair = self.try_deliver.__self__
    deliver = OLD_DELIVER[type(pair).__name__]
    for t in self.trace.times.tolist():
        if env.now < t:
            yield env.timeout(t - env.now)
        yield from deliver(pair, t)
        self.stats.produced += 1


def old_serve_batch(pair, core, batch):
    """The batch loop as one ``hold.busy(cost)`` generator per item. The
    real hold's opening slice has consumed its wake and context-switch
    cost, so a fresh hold with none pending slices the same way."""
    hold = CoreHold(core, pair.owner, 0.0, 0.0)
    cfg = pair.config
    for t in batch:
        yield from hold.busy(cfg.service_time_s * pair.service_scale)
        now = pair.env.now
        pair.stats.consumed += 1
        pair.stats.record_latency(
            now - t, cfg.max_response_latency_s, now_s=now
        )
        pair.in_flight -= 1


# -- one run ------------------------------------------------------------------


def _run(impl, trace, n_pairs, buffer_size, policy):
    params = StandardParams(
        duration_s=trace.duration_s, seed=5, replicates=1, background=False
    )
    rig = runner.Rig.build(params, 0)
    traces = [trace] * n_pairs
    cores = [runner.CONSUMER_CORE]
    if impl == "PBPL":
        config = params.pbpl_config(buffer_size, overflow_policy=policy)
        system = PBPLSystem(rig.env, rig.machine, traces, config, consumer_cores=cores)
    elif impl == "EDF":
        system = EDFBatchSystem(
            rig.env, rig.machine, traces, params.pc_config(buffer_size), cores
        )
    else:
        system = MultiPairSystem(
            rig.env, rig.machine, impl, traces, params.pc_config(buffer_size),
            consumer_cores=cores,
        )
    system.start()
    rig.env.run(until=params.duration_s)
    stats = [dataclasses.asdict(pair.stats) for pair in system.pairs]
    metrics = runner._fill_metrics(
        impl,
        params,
        0,
        rig,
        system.aggregate_stats(),
        n_consumers=n_pairs,
        buffer_size=buffer_size,
        average_buffer=system.average_buffer_capacity(),
    )
    events = rig.env.events_processed
    rig.env.close()
    return stats, events, metrics


@st.composite
def traces(draw):
    """Arrival times with runs of equal timestamps (bursts)."""
    gaps = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.sampled_from([1e-6, 2e-5, 1e-4]),
                st.floats(1e-5, 3e-3),
            ),
            min_size=1,
            max_size=120,
        )
    )
    times, now = [], draw(st.floats(0.0, 1e-3))
    for gap in gaps:
        now += gap
        times.append(now)
    return Trace(times, duration_s=times[-1] + draw(st.floats(1e-3, 0.03)))


IMPLS = ["BW", "Yield", "Mutex", "Sem", "BP", "PBP", "SPBP", "PBPL", "EDF"]


@pytest.mark.parametrize("impl", IMPLS)
@given(
    trace=traces(),
    n_pairs=st.integers(1, 3),
    buffer_size=st.integers(1, 4),
    policy=st.sampled_from(OVERFLOW_POLICIES),
)
@settings(max_examples=25, deadline=None)
def test_try_deliver_and_shared_batch_loop_match_the_generator_route(
    impl, trace, n_pairs, buffer_size, policy
):
    if impl in ("BW", "Yield"):
        n_pairs = 1  # a spinner holds its core: other pairs would starve
    if impl != "PBPL":
        policy = "block"  # the baselines only back-pressure
    new = _run(impl, trace, n_pairs, buffer_size, policy)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(base.Producer, "process", old_producer_process)
        patch.setattr(single, "serve_batch", old_serve_batch)
        patch.setattr(consumer_module, "serve_batch", old_serve_batch)
        old = _run(impl, trace, n_pairs, buffer_size, policy)
    assert new[0] == old[0]  # PairStats, pair by pair
    assert new[1] == old[1]  # events_processed
    assert new[2] == old[2]  # RunMetrics
    assert new[2].produced > 0
