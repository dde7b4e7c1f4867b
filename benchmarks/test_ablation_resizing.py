"""Ablation — dynamic buffer resizing (design choice, paper §V-C).

Resizing exists for *heterogeneous* consumers: "the unused space in the
buffer is granted to consumers suffering from a high production rate,
so that they can maintain their latching duties". Under a homogeneous
load every consumer wants the same thing and the pool has no slack to
move around — so this ablation uses the workload the mechanism is for:
one hot stream next to cool ones. With resizing frozen, the hot
consumer overflows its fixed B0 constantly; elastic walls let it borrow
what its neighbours never use.
"""

from repro.buffers import GlobalBufferPool  # noqa: F401  (doc pointer)
from repro.core import PBPLConfig, PBPLSystem
from repro.harness import render_table
from repro.harness.runner import CONSUMER_CORE, Rig
from repro.workloads import mmpp_trace, poisson_trace


def run_variant(params, enable_resizing, replicate):
    rig = Rig.build(params, replicate)
    duration = params.duration_s
    streams = rig.streams
    traces = [
        # The hot stream: bursts far beyond B0 per slot.
        mmpp_trace([2500.0, 12000.0], [0.4, 0.2], duration, streams.stream("hot")),
        poisson_trace(400.0, duration, streams.stream("cool-1")),
        poisson_trace(300.0, duration, streams.stream("cool-2")),
        poisson_trace(100.0, duration, streams.stream("cool-3")),
        poisson_trace(50.0, duration, streams.stream("cool-4")),
    ]
    system = PBPLSystem(
        rig.env,
        rig.machine,
        traces,
        params.pbpl_config(enable_resizing=enable_resizing),
        consumer_cores=[CONSUMER_CORE],
    ).start()
    rig.env.run(until=duration)
    agg = system.aggregate_stats()
    return {
        "overflow": agg.overflow_wakeups,
        "scheduled": agg.scheduled_wakeups,
        "avg_buffer": system.average_buffer_capacity(),
        "hot_buffer": system.consumers[0].average_buffer_capacity(),
        "core_wakeups": rig.machine.core(CONSUMER_CORE).total_wakeups / duration,
    }


def average(dicts):
    keys = dicts[0].keys()
    return {k: sum(d[k] for d in dicts) / len(dicts) for k in keys}


def test_ablation_resizing(bench_params, save_result):
    on = average(
        [run_variant(bench_params, True, r) for r in range(bench_params.replicates)]
    )
    off = average(
        [run_variant(bench_params, False, r) for r in range(bench_params.replicates)]
    )
    table = render_table(
        ["variant", "overflow wakeups", "hot buffer", "avg buffer", "core wakeups/s"],
        [
            (
                "resizing ON",
                f"{on['overflow']:.0f}",
                f"{on['hot_buffer']:.1f}",
                f"{on['avg_buffer']:.1f}",
                f"{on['core_wakeups']:.0f}",
            ),
            (
                "resizing OFF",
                f"{off['overflow']:.0f}",
                f"{off['hot_buffer']:.1f}",
                f"{off['avg_buffer']:.1f}",
                f"{off['core_wakeups']:.0f}",
            ),
        ],
        title="Ablation — dynamic buffer resizing (1 hot + 4 cool streams)",
    )
    save_result("ablation_resizing", table)

    # The hot consumer borrows beyond its base allocation…
    assert on["hot_buffer"] > bench_params.buffer_size
    # …which absorbs bursts that frozen buffers pay for in overflows…
    assert on["overflow"] < off["overflow"]
    # …and in total core wakeups.
    assert on["core_wakeups"] < off["core_wakeups"] * 1.02
