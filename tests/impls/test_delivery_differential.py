"""The run's one arrival stream, every implementation's ``try_deliver``
and the shared batch loop hold to the per-producer route they replaced.

That route is written out below: one producer process per source,
pacing its trace with a Timeout per arrival; one delivery generator per
arrival (``yield from deliver(t)`` in the producer); and one
``hold.busy(cost)`` generator per served item in the BP/PBP/SPBP/PBPL
batch loops. Random traces for 1-5 pairs, drawn from one pool of
timestamps so that bursts land on the same instant across pairs, go
through buffers of 1-4 items (so deliveries block often), for PBPL
under each overflow policy, for EDF and for both pipeline systems. Both
routes must give equal per-pair ``PairStats`` and equal ``RunMetrics``.

``events_processed`` must be equal too, once three named counts are
taken out. Producer processes finishing: a per-producer process ends
when its trace does, while the stream's helpers end when they hand
their producer back. Stream idle wake-ups: a helper that hands a
producer to a stream holding none wakes it with one event. Process
starts: a helper started inside the stream's step has no Initialize
event, and every other producer process starts with one, on both
routes.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers import OVERFLOW_POLICIES
from repro.core import consumer as consumer_module
from repro.core.system import PBPLSystem
from repro.cpu.core import CoreHold
from repro.harness import runner
from repro.harness.params import StandardParams
from repro.impls import single
from repro.impls.edf import EDFBatchSystem
from repro.impls.multi import MultiPairSystem
from repro.pipeline import BaselinePipelineSystem, PipelineSystem
from repro.pipeline.topology import AGGREGATE, Edge, Stage, Topology
from repro.sim import Environment, Event
from repro.sim.arrivals import ArrivalStream
from repro.sim.events import Process
from repro.workloads.trace import Trace

# -- the per-producer route ---------------------------------------------------


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
    "MutexCondvar": _deliver_mutex,
    "SemaphorePair": _deliver_sem,
    "BatchProcessing": _deliver_batch,
    "PeriodicBatch": _deliver_batch,
    "SignalPeriodicBatch": _deliver_batch,
    "LatchingConsumer": _deliver_pbpl,
    "_EDFPair": _deliver_edf,
}


def _old_deliver(pair):
    """The delivery generator of ``pair``'s class or nearest base."""
    for cls in type(pair).__mro__:
        if cls.__name__ in OLD_DELIVER:
            return OLD_DELIVER[cls.__name__]
    raise KeyError(type(pair).__name__)


def producer_process(env, times, pair, stats):
    """One source's own process, pacing its trace by Timeouts."""
    deliver = _old_deliver(pair)
    for t in times.tolist():
        if env.now < t:
            yield env.timeout(t - env.now)
        yield from deliver(pair, t)
        stats.produced += 1


def per_producer_add(self, times, deliver, stats, name):
    """``ArrivalStream.add`` as one producer process per source."""
    self.env.process(
        producer_process(self.env, times, deliver.__self__, stats), name=name
    )


def old_serve_batch(pair, core, batch):
    """The batch loop as one ``hold.busy(cost)`` generator per item. The
    real hold's opening slice has consumed its wake and context-switch
    cost, so a fresh hold with none pending slices the same way."""
    hold = CoreHold(core, pair.owner, 0.0, 0.0)
    cfg = pair.config
    item_cost_s = getattr(pair, "_item_cost_s", None)
    for t in batch:
        cost = (
            cfg.service_time_s * pair.service_scale
            if item_cost_s is None
            else item_cost_s(t)
        )
        yield from hold.busy(cost)
        now = pair.env.now
        pair.stats.consumed += 1
        pair.stats.record_latency(
            now - t, cfg.max_response_latency_s, now_s=now
        )
        pair.in_flight -= 1


# -- one run ------------------------------------------------------------------

#: Two sources fanning into one sink: two producers into one buffer.
FAN_IN = Topology(
    name="fan-in",
    stages=(
        Stage("left", "source"),
        Stage("right", "source"),
        Stage("sink", "sink"),
    ),
    edges=(Edge("left", "sink"), Edge("right", "sink")),
)

#: The pipeline cases: one source fanning out, two sources fanning in.
TOPOLOGIES = {"aggregate": AGGREGATE, "fan-in": FAN_IN}


def _system(env, machine, impl, traces, buffer_size, policy, params, topology):
    cores = [runner.CONSUMER_CORE]
    if topology is not None:
        n_sources = len(topology.sources())
        if impl == "PBPL":
            return PipelineSystem(
                env, machine, topology, traces[:n_sources],
                params.pbpl_config(buffer_size, overflow_policy=policy),
                consumer_cores=cores,
            )
        return BaselinePipelineSystem(
            env, machine, impl, topology, traces[:n_sources],
            params.pc_config(buffer_size), consumer_cores=cores,
        )
    if impl == "PBPL":
        config = params.pbpl_config(buffer_size, overflow_policy=policy)
        return PBPLSystem(env, machine, traces, config, consumer_cores=cores)
    if impl == "EDF":
        return EDFBatchSystem(
            env, machine, traces, params.pc_config(buffer_size), cores
        )
    return MultiPairSystem(
        env, machine, impl, traces, params.pc_config(buffer_size),
        consumer_cores=cores,
    )


def _run(impl, traces, buffer_size, policy, topology=None):
    """One run: ``(PairStats dicts, events_processed, RunMetrics,
    the counts events_processed may differ by)``."""
    counts = Counter()
    process = Environment.process
    process_now = Environment.process_now
    resume = Process._resume
    finish = Process._finish
    finished = []

    def counting_process(self, generator, name=None):
        if name is not None and name.endswith("-producer"):
            counts["producer processes started with Initialize"] += 1
        return process(self, generator, name)

    def counting_process_now(self, generator, name=None):
        counts["process starts without Initialize"] += 1
        return process_now(self, generator, name)

    def counting_resume(self, event):
        # A dispatched plain Event resuming the stream is an idle wake.
        if (
            self.name == "arrivals"
            and type(event) is Event
            and event.callbacks is None
        ):
            counts["stream idle wake-ups"] += 1
        return resume(self, event)

    def recording_finish(self, *args):
        finished.append(self)
        return finish(self, *args)

    duration_s = max(trace.duration_s for trace in traces)
    params = StandardParams(
        duration_s=duration_s, seed=5, replicates=1, background=False
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Environment, "process", counting_process)
        patch.setattr(Environment, "process_now", counting_process_now)
        patch.setattr(Process, "_resume", counting_resume)
        patch.setattr(Process, "_finish", recording_finish)
        rig = runner.Rig.build(params, 0)
        system = _system(
            rig.env, rig.machine, impl, traces, buffer_size, policy, params,
            topology,
        )
        system.start()
        rig.env.run(until=duration_s)
    # A finished process's end is an event once it is dispatched.
    counts["producer processes finished"] = sum(
        p.processed for p in finished if p.name.endswith("-producer")
    )
    # The stream itself starts without Initialize, and never ends.
    counts["process starts without Initialize"] -= 1
    stats = [dataclasses.asdict(pair.stats) for pair in system.pairs]
    metrics = runner._fill_metrics(
        impl,
        params,
        0,
        rig,
        system.aggregate_stats(),
        n_consumers=len(system.pairs),
        buffer_size=buffer_size,
        average_buffer=system.average_buffer_capacity(),
    )
    events = rig.env.events_processed
    rig.env.close()
    return stats, events, metrics, counts


def _run_both(impl, traces, buffer_size, policy, topology=None):
    new = _run(impl, traces, buffer_size, policy, topology)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ArrivalStream, "add", per_producer_add)
        patch.setattr(single, "serve_batch", old_serve_batch)
        patch.setattr(consumer_module, "serve_batch", old_serve_batch)
        old = _run(impl, traces, buffer_size, policy, topology)
    return new, old


def _assert_same(new, old):
    assert new[0] == old[0]  # PairStats, pair by pair
    assert new[2] == old[2]  # RunMetrics
    assert new[2].produced > 0
    new_counts, old_counts = new[3], old[3]
    assert old_counts["process starts without Initialize"] == 0
    assert old_counts["stream idle wake-ups"] == 0
    assert (
        new_counts["producer processes started with Initialize"]
        == old_counts["producer processes started with Initialize"]
    )
    named = {
        "events_processed": new[1],
        "- producer processes finished": -new_counts["producer processes finished"],
        "- stream idle wake-ups": -new_counts["stream idle wake-ups"],
    }
    reference = {
        "events_processed": old[1],
        "- producer processes finished": -old_counts["producer processes finished"],
    }
    assert sum(named.values()) == sum(reference.values()), (named, reference)


@st.composite
def pair_traces(draw, max_pairs=5):
    """1-5 traces, each a draw from one pool of arrival times with runs
    of equal timestamps, so bursts land on one instant across pairs."""
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
    pool, now = [], draw(st.floats(0.0, 1e-3))
    for gap in gaps:
        now += gap
        pool.append(now)
    duration_s = pool[-1] + draw(st.floats(1e-3, 0.03))
    traces = []
    for _ in range(draw(st.integers(1, max_pairs))):
        keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
        times = [t for t, k in zip(pool, keep) if k] or pool
        traces.append(Trace(times, duration_s=duration_s))
    return traces


IMPLS = ["BW", "Yield", "Mutex", "Sem", "BP", "PBP", "SPBP", "PBPL", "EDF"]


@pytest.mark.parametrize("impl", IMPLS)
@given(
    traces=pair_traces(),
    buffer_size=st.integers(1, 4),
    policy=st.sampled_from(OVERFLOW_POLICIES),
)
@settings(max_examples=25, deadline=None)
def test_try_deliver_and_shared_batch_loop_match_the_generator_route(
    impl, traces, buffer_size, policy
):
    if impl in ("BW", "Yield"):
        traces = traces[:1]  # a spinner holds its core: other pairs would starve
    if impl != "PBPL":
        policy = "block"  # the baselines only back-pressure
    _assert_same(*_run_both(impl, traces, buffer_size, policy))


@pytest.mark.parametrize(
    "times, helpers",
    [
        # Delivered by the producer's first step, on its start helper.
        ([0.0, 0.0], 0),
        # Delivered by the stream, which hands the second to a helper.
        ([1e-3, 1e-3], 1),
    ],
)
def test_mutex_delivery_that_waits_takes_the_lock_on_its_own_process(
    times, helpers
):
    """Mutex, 1 pair, buffer 1, two arrivals at one instant: the second
    finds the buffer full, and the lock its blocked path waits with must
    be the waiting process's (without that: ``SimulationError: wait()
    requires holding the mutex``)."""
    traces = [Trace(times, duration_s=0.01)]
    new, old = _run_both("Mutex", traces, buffer_size=1, policy="block")
    _assert_same(new, old)
    assert new[0][0]["overflows"] == 1
    assert new[3]["process starts without Initialize"] == helpers


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("impl", ["Mutex", "Sem", "BP", "SPBP", "PBPL"])
@given(
    traces=pair_traces(max_pairs=2),
    buffer_size=st.integers(1, 4),
    policy=st.sampled_from(OVERFLOW_POLICIES),
)
@settings(max_examples=10, deadline=None)
def test_pipeline_arrivals_match_the_per_producer_route(
    impl, topology, traces, buffer_size, policy
):
    if impl != "PBPL":
        policy = "block"
    traces = (traces * 2)[:2]
    _assert_same(
        *_run_both(impl, traces, buffer_size, policy, TOPOLOGIES[topology])
    )
