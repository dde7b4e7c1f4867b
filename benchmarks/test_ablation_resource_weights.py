"""Extension bench — the §VIII resource-aware generalisation's Pareto front.

The paper closes by asking for "a generic resource-aware
producer-consumer algorithm, where power, memory, CPU overhead,
throughput, timing, constraints, etc., need to be taken into account
simultaneously". `repro.core.resource_aware` builds it; this bench
walks the power↔latency exchange axis and prints the front an operator
would tune against. Expected shape: latency falls and power rises
monotonically(-ish) with latency emphasis, with pure power weighting
(emphasis 0) identical to stock PBPL.
"""

from repro.core import ResourceAwareSystem, pareto_weights
from repro.harness import render_table
from repro.harness.runner import CONSUMER_CORE, Rig
from repro.impls import phase_shifted_traces

EMPHASES = (0.0, 0.25, 0.5, 0.75, 1.0)


def run_point(params, emphasis, replicate):
    rig = Rig.build(params, replicate)
    traces = phase_shifted_traces(params.trace(rig.streams), 5)
    from repro.core import ResourceAwareConfig

    config = ResourceAwareConfig(
        buffer_size=params.buffer_size,
        slot_size_s=params.slot_size_s,
        max_response_latency_s=params.max_response_latency_s,
        batch_period_s=params.slot_size_s,
        weights=pareto_weights(emphasis),
    )
    system = ResourceAwareSystem(
        rig.env, rig.machine, traces, config, consumer_cores=[CONSUMER_CORE]
    ).start()
    rig.env.run(until=params.duration_s)
    measured_w, _ = rig.measure_power_w(params.duration_s)
    agg = system.aggregate_stats()
    return {
        "power_w": measured_w,
        "mean_latency_s": agg.mean_latency_s,
        "wakeups": rig.machine.core(CONSUMER_CORE).total_wakeups
        / params.duration_s,
    }


def average(points):
    keys = points[0].keys()
    return {k: sum(p[k] for p in points) / len(points) for k in keys}


def test_resource_aware_pareto_front(bench_params, save_result):
    front = {
        e: average(
            [run_point(bench_params, e, r) for r in range(bench_params.replicates)]
        )
        for e in EMPHASES
    }
    rows = [
        (
            f"{e:.2f}",
            f"{p['power_w'] * 1000:.1f}",
            f"{p['mean_latency_s'] * 1000:.2f}",
            f"{p['wakeups']:.0f}",
        )
        for e, p in front.items()
    ]
    table = render_table(
        ["latency emphasis", "power mW", "mean latency ms", "wakeups/s"],
        rows,
        title="Extension — resource-aware Pareto front (5 consumers)",
    )
    save_result("ablation_resource_weights", table)

    # End-to-end: full latency emphasis cuts mean latency substantially…
    assert front[1.0]["mean_latency_s"] < 0.75 * front[0.0]["mean_latency_s"]
    # …monotonically along the axis (at endpoint/midpoint granularity)…
    assert (
        front[1.0]["mean_latency_s"]
        <= front[0.5]["mean_latency_s"]
        <= front[0.0]["mean_latency_s"]
    )
    # …and, the notable finding: at the calibrated slot size the wakeup/
    # power bill stays within a few percent — *latching absorbs the cost
    # of earlier drains* because they are shared. The trade-off is real
    # (it appears at fine slot grids, cf. the slot-size ablation), but
    # group latching pays most of it.
    assert abs(front[1.0]["power_w"] / front[0.0]["power_w"] - 1) < 0.05
    assert front[1.0]["wakeups"] < front[0.0]["wakeups"] * 1.25
