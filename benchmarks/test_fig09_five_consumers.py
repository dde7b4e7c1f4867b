"""Figure 9 — Mutex/Sem/BP/PBPL at 5 consumers, buffer 25.

Paper shape asserted:
* wakeups/s directly tracks power across the four implementations;
* PBPL has the fewest wakeup events and the lowest power;
* PBPL beats Mutex by a wide margin (paper: −39.5 % wakeups, −20 %
  power; our isolated-mechanism model exaggerates the Mutex side) and
  BP by a moderate one (paper: −37.8 % wakeups, −7.4 % power — both
  reproduced within a few points).
"""

from repro.harness import run_multi_comparison
from repro.metrics import pearson


def test_fig09_five_consumers(grid, save_result):
    result = run_multi_comparison(grid, n_consumers=5)
    save_result("fig09_five_consumers", result.render())
    s = result.summaries

    # Wakeups ↔ power move together across the four implementations.
    names = list(result.implementations)
    wakeups = [s[n].mean("core_wakeups_per_s") for n in names]
    power = [s[n].mean("power_w") for n in names]
    assert pearson(wakeups, power) > 0.9

    # PBPL wins on both axes.
    for other in ("Mutex", "Sem", "BP"):
        assert s["PBPL"].mean("core_wakeups_per_s") < s[other].mean(
            "core_wakeups_per_s"
        ), other
        assert s["PBPL"].mean("power_w") < s[other].mean("power_w"), other

    # Factors: ≥30% fewer wakeup events than Mutex (paper: 39.5%) and
    # ≥20% fewer than BP (paper: 37.8%).
    assert result.reduction_pct("core_wakeups_per_s", "Mutex", "PBPL") < -30
    assert result.reduction_pct("core_wakeups_per_s", "BP", "PBPL") < -20
    # Power vs BP lands near the paper's -7.4%.
    assert -20 < result.reduction_pct("power_w", "BP", "PBPL") < 0
