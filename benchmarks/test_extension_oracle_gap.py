"""Extension bench — PBPL vs an online EDF baseline vs the clairvoyant
optimum of the paper's objective (Eq. 4).

The paper never measures how close PBPL gets to the *minimum possible*
number of wakeups. Here we compute that minimum exactly (offline
interval piercing over the same traces, deadlines and buffers — see
``repro.core.oracle``) and place two online algorithms against it:

* **PBPL** — the paper's contribution (prediction + slots + latching);
* **EDF**  — a prediction-free earliest-deadline batcher with shared
  drains (``repro.impls.edf``), the baseline the paper omits.

Expected shape: oracle ≤ both online algorithms; both land within a
small multiple of the optimum; EDF — with no prediction machinery at
all — is competitive with PBPL, which is an honest data point about how
much of PBPL's design the slot/prediction machinery actually carries.
"""

from repro.core import PBPLSystem, optimal_wakeups
from repro.harness import render_table
from repro.harness.runner import CONSUMER_CORE, Rig
from repro.impls import EDFBatchSystem, phase_shifted_traces

N_CONSUMERS = 5


def run_point(params, kind, replicate):
    rig = Rig.build(params, replicate)
    traces = phase_shifted_traces(params.trace(rig.streams), N_CONSUMERS)
    if kind == "PBPL":
        system = PBPLSystem(
            rig.env,
            rig.machine,
            traces,
            params.pbpl_config(),
            consumer_cores=[CONSUMER_CORE],
        ).start()
    elif kind == "EDF":
        system = EDFBatchSystem(
            rig.env,
            rig.machine,
            traces,
            params.pc_config(),
            consumer_cores=[CONSUMER_CORE],
        ).start()
    else:  # the clairvoyant bound needs no simulation at all
        result = optimal_wakeups(
            traces, params.max_response_latency_s, params.buffer_size
        )
        return {
            "wakeups_per_s": result.wakeups / params.duration_s,
            "power_mw": float("nan"),
            "consumed": result.total_items,
        }
    rig.env.run(until=params.duration_s)
    measured_w, _ = rig.measure_power_w(params.duration_s)
    agg = system.aggregate_stats()
    return {
        "wakeups_per_s": rig.machine.core(CONSUMER_CORE).total_wakeups
        / params.duration_s,
        "power_mw": measured_w * 1000,
        "consumed": agg.consumed,
    }


def average(points):
    return {k: sum(p[k] for p in points) / len(points) for k in points[0]}


def test_oracle_gap(bench_params, save_result):
    results = {
        kind: average(
            [run_point(bench_params, kind, r) for r in range(bench_params.replicates)]
        )
        for kind in ("oracle", "PBPL", "EDF")
    }
    oracle_w = results["oracle"]["wakeups_per_s"]
    rows = [
        (
            kind,
            f"{p['wakeups_per_s']:.0f}",
            f"{p['wakeups_per_s'] / oracle_w:.2f}x"
            if oracle_w
            else "n/a",
            "-" if kind == "oracle" else f"{p['power_mw']:.1f}",
        )
        for kind, p in results.items()
    ]
    table = render_table(
        ["algorithm", "wakeups/s", "vs optimum", "power mW"],
        rows,
        title=f"Extension — distance from the Eq. 4 optimum "
        f"({N_CONSUMERS} consumers, buffer {bench_params.buffer_size}, "
        f"L = {bench_params.max_response_latency_s * 1000:g} ms)",
    )
    save_result("extension_oracle_gap", table)

    # The bound is a bound.
    assert results["PBPL"]["wakeups_per_s"] >= oracle_w * 0.999
    assert results["EDF"]["wakeups_per_s"] >= oracle_w * 0.999
    # Both online algorithms stay within a small multiple of optimal.
    assert results["PBPL"]["wakeups_per_s"] < 6 * oracle_w
    assert results["EDF"]["wakeups_per_s"] < 6 * oracle_w
    # Both actually do the work.
    assert results["PBPL"]["consumed"] > 0
    assert results["EDF"]["consumed"] > 0
