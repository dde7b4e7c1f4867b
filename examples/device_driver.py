#!/usr/bin/env python
"""Device-driver scenario: interrupt coalescing as producer-consumer.

The paper's first motivating domain (§I): "operating systems primitives
… consume data received from I/O devices, e.g., in device drivers". A
NIC raising one interrupt per packet is exactly the Mutex pattern (one
wakeup per item); hardware interrupt *coalescing* is the BP pattern
(wake when the ring fills); and a driver using timer-based NAPI-style
polling with a deadline is PBPL's territory.

This example models three devices of one embedded box — a NIC, an SSD
completion queue, and a sensor hub — each with its own event rate and
its own latency budget, and shows the per-device energy bill with the
paper's attribution question: *which driver is burning the battery?*
(`repro.power.attribution` answers it.)

Run:  python examples/device_driver.py
"""

from repro.core import PBPLConfig, PBPLSystem
from repro.cpu import Machine
from repro.impls import MultiPairSystem, PCConfig
from repro.power import EnergyAttributor, EnergyLedger, PowerModel
from repro.sim import Environment, RandomStreams
from repro.workloads import mmpp_trace, poisson_trace

DURATION_S = 3.0

DEVICES = ("nic-rx", "ssd-cq", "sensor-hub")


def build_event_streams(streams: RandomStreams):
    return [
        # NIC: bursty packet arrivals (flows come and go).
        mmpp_trace([800.0, 6000.0], [0.3, 0.1], DURATION_S, streams.stream("nic")),
        # SSD completions: moderate, fairly steady.
        poisson_trace(900.0, DURATION_S, streams.stream("ssd")),
        # Sensor hub: slow periodic-ish telemetry.
        poisson_trace(60.0, DURATION_S, streams.stream("sensors")),
    ]


def run(kind: str):
    env = Environment()
    streams = RandomStreams(seed=33)
    machine = Machine(env, n_cores=2, streams=streams)
    model = PowerModel()
    ledger = EnergyLedger(env, model)
    machine.add_listener(ledger)
    for core in machine.cores:
        ledger.watch(core)
    attributor = ledger.add_sink(EnergyAttributor(ledger))
    machine.add_listener(attributor)

    traces = build_event_streams(streams)
    common = dict(
        buffer_size=32,
        service_time_s=5e-6,  # per-event driver work
        max_response_latency_s=20e-3,  # I/O completion budget
    )
    if kind == "PBPL":
        system = PBPLSystem(
            env, machine, traces, PBPLConfig(slot_size_s=2.5e-3, **common)
        ).start()
    else:
        system = MultiPairSystem(env, machine, kind, traces, PCConfig(**common)).start()
    env.run(until=DURATION_S)
    ledger.settle()
    report = attributor.report()
    agg = system.aggregate_stats()
    per_device = {
        device: report.power_w(f"consumer-{i}") * 1000
        for i, device in enumerate(DEVICES)
    }
    return {
        "total_mw": ledger.average_power_w(DURATION_S) * 1000,
        "per_device_mw": per_device,
        "wakeups": machine.core(0).total_wakeups / DURATION_S,
        "handled": agg.consumed,
        "p99_ms": agg.latency_percentile(99) * 1000,
    }


def main() -> None:
    print("embedded box, three device event queues, one isolated CPU core\n")
    header = (
        f"{'driver model':<22}{'total mW':>10}{'wakeups/s':>11}"
        f"{'p99 ms':>8}  per-device mW"
    )
    print(header)
    print("-" * (len(header) + 18))
    rows = {}
    for kind, label in (
        ("Mutex", "irq-per-event (Mutex)"),
        ("BP", "ring-full coalesce (BP)"),
        ("PBPL", "deadline poll (PBPL)"),
    ):
        r = run(kind)
        rows[kind] = r
        devices = "  ".join(
            f"{d}={mw:.1f}" for d, mw in r["per_device_mw"].items()
        )
        print(
            f"{label:<22}{r['total_mw']:>10.1f}{r['wakeups']:>11.0f}"
            f"{r['p99_ms']:>8.2f}  {devices}"
        )
    print()
    nic_share = rows["Mutex"]["per_device_mw"]["nic-rx"]
    print(
        f"under irq-per-event, the NIC alone bills {nic_share:.0f} mW of CPU "
        "power —\nthe attribution the kernel's powertop shows, reproduced "
        "per consumer.\nPBPL keeps every completion within its 20 ms budget "
        f"(p99 {rows['PBPL']['p99_ms']:.1f} ms) at a fraction of the wakeups."
    )


if __name__ == "__main__":
    main()
