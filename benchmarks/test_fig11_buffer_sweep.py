"""Figure 11 — BP vs PBPL across buffer sizes 25/50/100.

Paper shape asserted:
* both implementations' wakeups and power fall as buffers grow (bigger
  batches, fewer drains);
* the two implementations become more similar at large buffers ("due to
  the saturation of these implementations at a higher buffer size,
  rendering them more similar in their operation") — asserted on the
  wakeup axis, where the convergence is unambiguous;
* PBPL stays at or below BP's power everywhere.
"""

from repro.harness import run_buffer_sweep

SIZES = (25, 50, 100)


def test_fig11_buffer_sweep(grid, save_result):
    result = run_buffer_sweep(grid, sizes=SIZES)
    save_result("fig11_buffer_sweep", result.render())

    for name in ("BP", "PBPL"):
        wakeups = [
            result.cells[b].summaries[name].mean("core_wakeups_per_s")
            for b in SIZES
        ]
        power = [result.cells[b].summaries[name].mean("power_w") for b in SIZES]
        # Monotone decrease in both metrics with buffer size.
        assert wakeups[0] > wakeups[1] > wakeups[2], name
        assert power[0] > power[1] > power[2], name

    # Convergence: the absolute wakeup gap shrinks as buffers grow.
    def wakeup_gap(b):
        c = result.cells[b].summaries
        return abs(
            c["BP"].mean("core_wakeups_per_s")
            - c["PBPL"].mean("core_wakeups_per_s")
        )

    assert wakeup_gap(100) < wakeup_gap(25)

    # PBPL never loses on power.
    for b in SIZES:
        c = result.cells[b].summaries
        assert c["PBPL"].mean("power_w") <= c["BP"].mean("power_w") * 1.02, b
