"""Figure 4 — power (log-scale bars) for the seven implementations,
plus the §III-C correlation/significance analysis.

Paper shape asserted:
* BW draws the most by a wide margin; Yield sits at or below BW;
* every batch implementation beats Mutex and Sem (paper: batch saves up
  to 80 % vs BW and ~33 % vs Mutex — our isolated-mechanism model gives
  larger factors, same ordering);
* across the blocking five, wakeups/s correlates strongly and
  positively with power, and the paper's H0 ("wakeups have a
  significant effect on power") is accepted at 99 %.

The table itself is saved once, as ``fig03_fig04_profile.txt``, by the
Figure 3 test.
"""


def test_fig04_power_ordering_and_stats(profile_study):
    result = profile_study
    s = result.summaries

    power = {name: s[name].mean("power_w") for name in s}

    # BW is the ceiling; batch is the floor.
    assert power["BW"] >= power["Yield"]
    assert power["BW"] > 2 * power["Mutex"]
    for batch in ("BP", "PBP", "SPBP"):
        assert power[batch] < power["Mutex"], batch
        assert power[batch] < power["Sem"], batch

    # Paper: batch up to -80% vs BW; ≥ -33% vs Mutex (ours exceeds both).
    assert result.power_reduction_pct("BW", "SPBP") < -70
    assert result.power_reduction_pct("Mutex", "SPBP") < -25

    # Mutex slightly above Sem (condvar overhead vs bare semaphores).
    assert power["Mutex"] >= power["Sem"]

    # §III-C statistics.
    assert result.corr_wakeups_power_blocking > 0.5  # paper: +74%
    assert result.significance.significant(0.99)  # paper: accepted at 99%
