"""Ablation — what does latching itself buy? (design choice, paper §V-A)

PBPL with latching disabled still batches on the slot grid and still
resizes buffers; it just reserves its "ideal" slot blindly instead of
preferring already-reserved slots through the ρ comparison (Eq. 8).

Finding (visible in the table): at the calibrated slot size much of the
alignment comes from the grid itself — consumers' ideal slots often
coincide — but explicit latching still trims core wakeups and converts
overflows into shared drains (a latched consumer drains *earlier* than
its fill horizon, so bursts land in emptier buffers).
"""

from repro.harness import CellSpec, render_table
from repro.metrics import summarise


def run_variant(grid, enable_latching):
    spec = CellSpec.make("PBPL", pbpl_overrides={"enable_latching": enable_latching})
    return summarise(grid.run([spec]))


def test_ablation_latching(grid, save_result):
    on, off = run_variant(grid, True), run_variant(grid, False)
    table = render_table(
        ["variant", "sched wakeups", "overflow wakeups", "core wakeups/s", "power mW"],
        [
            (
                "latching ON",
                f"{on.mean('scheduled_wakeups'):.0f}",
                f"{on.mean('overflow_wakeups'):.0f}",
                f"{on.mean('core_wakeups_per_s'):.0f}",
                f"{on.mean('power_w') * 1000:.1f}",
            ),
            (
                "latching OFF",
                f"{off.mean('scheduled_wakeups'):.0f}",
                f"{off.mean('overflow_wakeups'):.0f}",
                f"{off.mean('core_wakeups_per_s'):.0f}",
                f"{off.mean('power_w') * 1000:.1f}",
            ),
        ],
        title="Ablation — consumer latching (5 consumers, buffer 25)",
    )
    save_result("ablation_latching", table)

    # Latching shares wakeups: fewer core wakeup events with it on.
    assert on.mean("core_wakeups_per_s") < off.mean("core_wakeups_per_s")
    # Early shared drains also absorb bursts: fewer overflow wakes.
    assert on.mean("overflow_wakeups") < off.mean("overflow_wakeups")
    # And it does not cost power.
    assert on.mean("power_w") <= off.mean("power_w") * 1.02
