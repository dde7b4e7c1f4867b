"""§VI-C in-text scalars ("Table S1") — PBPL's internal wakeup accounting.

The paper reports, averaged over its runs: PBPL scores 5160 scheduled
wakeups and 1626 buffer overflows versus BP's 9290 overflow-only
wakeups — a 25 % total reduction and an 82.5 % overflow-conversion
rate — and, with a 50-slot allocation, an average buffer size of 43.

Shape asserted (at the paper's evaluation buffer size, B0 = 25, where
the comparison is meaningful; the average-buffer metric uses B0 = 50
like the paper's quote):
* scheduled wakeups dominate overflows for PBPL (paper: 76 % / 24 %);
* PBPL's total batch wakeups undercut BP's overflow-only total
  (paper: −25 %);
* a majority of BP's overflows are converted/eliminated (paper: 82.5 %);
* the average dynamic buffer sits below, but near, the allocation.
"""

from repro.harness import run_wakeup_accounting


def test_scalar_wakeup_accounting(grid, save_result):
    acc25 = run_wakeup_accounting(grid, buffer_size=25)
    acc50 = run_wakeup_accounting(grid, buffer_size=50)
    save_result(
        "scalars_wakeup_accounting",
        acc25.render() + "\n\n" + acc50.render(),
    )

    # Scheduled wakeups dominate (paper: 5160 vs 1626 → 76%/24%).
    assert acc25.pbpl.mean("scheduled_wakeups") > acc25.pbpl.mean(
        "overflow_wakeups"
    )

    # Total batch wakeups: PBPL < BP (paper: -25%).
    assert acc25.total_reduction_pct < -10

    # Overflow conversion: most of BP's overflows disappear (paper: 82.5%).
    assert acc25.overflow_conversion_pct > 50

    # Average buffer below but near the allocation (paper: 43/50 = 0.86).
    ratio = acc50.pbpl.mean("average_buffer_size") / 50
    assert 0.6 < ratio <= 1.0
