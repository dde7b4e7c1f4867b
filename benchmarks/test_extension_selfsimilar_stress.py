"""Extension bench — does PBPL survive self-similar traffic?

The paper's workload is a real web log; real web traffic is self-
similar (burstiness that refuses to average out), which is the worst
case for PBPL's moving-average rate prediction. This bench swaps the
standard macro-bursty trace for superposed Pareto ON/OFF sources
(Hurst ≈ 0.8, `repro.workloads.selfsimilar`) and re-runs the Figure 9
comparison.

Expected shape: everything gets worse in absolute terms (more overflow
wakes for every batcher), but the *ordering* of the paper's Figure 9
survives — PBPL still beats BP and Mutex on wakeup events and power.
"""

from repro.core import PBPLSystem
from repro.harness import render_table
from repro.harness.runner import CONSUMER_CORE, Rig
from repro.impls import MultiPairSystem, phase_shifted_traces
from repro.workloads import pareto_onoff_trace

N_CONSUMERS = 5


def run_point(params, kind, replicate):
    rig = Rig.build(params, replicate)
    base = pareto_onoff_trace(
        params.mean_rate_per_s,
        params.duration_s,
        rig.streams.stream("selfsimilar"),
    )
    traces = phase_shifted_traces(base, N_CONSUMERS)
    if kind == "PBPL":
        system = PBPLSystem(
            rig.env, rig.machine, traces, params.pbpl_config(),
            consumer_cores=[CONSUMER_CORE],
        ).start()
    else:
        system = MultiPairSystem(
            rig.env, rig.machine, kind, traces, params.pc_config(),
            consumer_cores=[CONSUMER_CORE],
        ).start()
    rig.env.run(until=params.duration_s)
    measured_w, _ = rig.measure_power_w(params.duration_s)
    agg = system.aggregate_stats()
    return {
        "power_w": measured_w,
        "wakeups": rig.machine.core(CONSUMER_CORE).total_wakeups
        / params.duration_s,
        "consumed": agg.consumed,
        "overflow": agg.overflow_wakeups,
        "scheduled": agg.scheduled_wakeups,
    }


def average(points):
    return {k: sum(p[k] for p in points) / len(points) for k in points[0]}


def test_selfsimilar_stress(bench_params, save_result):
    results = {
        kind: average(
            [run_point(bench_params, kind, r) for r in range(bench_params.replicates)]
        )
        for kind in ("Mutex", "BP", "PBPL")
    }
    rows = [
        (
            kind,
            f"{p['wakeups']:.0f}",
            f"{p['power_w'] * 1000:.1f}",
            f"{p['overflow']:.0f}",
            f"{p['consumed']:.0f}",
        )
        for kind, p in results.items()
    ]
    table = render_table(
        ["impl", "wakeups/s", "power mW", "overflow wakes", "items"],
        rows,
        title="Extension — Figure 9 under self-similar (Pareto ON/OFF, "
        "H≈0.8) traffic",
    )
    save_result("extension_selfsimilar_stress", table)

    # The Figure 9 ordering survives heavy-tailed traffic.
    assert results["PBPL"]["wakeups"] < results["BP"]["wakeups"]
    assert results["PBPL"]["wakeups"] < results["Mutex"]["wakeups"] / 5
    assert results["PBPL"]["power_w"] < results["BP"]["power_w"] * 1.02
    assert results["PBPL"]["power_w"] < results["Mutex"]["power_w"]
    # And the workload genuinely stresses prediction: PBPL's overflow
    # share is materially above its share on the standard trace (~38%).
    pbpl = results["PBPL"]
    share = pbpl["overflow"] / (pbpl["overflow"] + pbpl["scheduled"])
    assert share > 0.25
