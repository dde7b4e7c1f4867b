"""Ablation — slot size Δ (design choice, paper §V-A).

"Achieving this objective for an appropriately sized Δ would result in
a decrease in the number of wakeups." This bench shows what
"appropriately sized" means — the wakeups/power curve is U-shaped in Δ:

* too fine a grid lets the greedy per-item cost ρ (Eq. 8) latch onto
  very-near slots — cheap per item, but each early drain shrinks the
  sized buffer and forces another wake soon (a genuine second-order
  blind spot of Eq. 8 that the paper's coarse default Δ hides);
* too coarse a grid floors latency and converts bursts into overflow
  wakes;
* the calibrated default sits near the knee.
"""

from repro.harness import CellSpec, render_table
from repro.metrics import summarise

SLOTS_MS = (1.0, 2.5, 5.0, 10.0, 20.0)


def run_variant(grid, slot_ms):
    spec = CellSpec.make("PBPL", pbpl_overrides={"slot_size_s": slot_ms * 1e-3})
    return summarise(grid.run([spec]))


def test_ablation_slot_size(grid, save_result):
    results = {ms: run_variant(grid, ms) for ms in SLOTS_MS}
    rows = [
        (
            f"Δ = {ms:g} ms",
            f"{s.mean('core_wakeups_per_s'):.0f}",
            f"{s.mean('power_w') * 1000:.1f}",
            f"{s.mean('p99_latency_s') * 1000:.1f}",
            f"{s.mean('overflow_wakeups'):.0f}",
        )
        for ms, s in results.items()
    ]
    table = render_table(
        ["slot size", "core wakeups/s", "power mW", "p99 latency ms", "overflows"],
        rows,
        title="Ablation — slot size Δ (5 consumers, buffer 25)",
    )
    save_result("ablation_slot_size", table)

    # The U-shape: both extremes wake (and draw) more than the middle.
    mid = min(results[ms].mean("core_wakeups_per_s") for ms in (5.0, 10.0))
    assert results[1.0].mean("core_wakeups_per_s") > 2 * mid
    assert results[20.0].mean("core_wakeups_per_s") > mid
    mid_power = min(results[ms].mean("power_w") for ms in (5.0, 10.0))
    assert results[1.0].mean("power_w") > mid_power
    assert results[20.0].mean("power_w") > mid_power
    # The deadline bound holds at every Δ (p99 within L = 40 ms).
    for ms, s in results.items():
        assert s.mean("p99_latency_s") < 40e-3, ms
