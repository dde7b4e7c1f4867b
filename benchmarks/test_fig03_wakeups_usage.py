"""Figure 3 — wakeups/s vs usage (ms/s) for the seven implementations.

Paper shape asserted:
* BW/Yield burn ~1000 ms/s of CPU but almost never wake the scheduler;
* the blocking five use little CPU but wake constantly — per item for
  Mutex/Sem, per batch for BP/PBP/SPBP;
* the batch family has an order of magnitude fewer wakeups than
  Mutex/Sem;
* PBP's nanosleep jitter causes more unscheduled (overflow) wakeups
  than SPBP's accurate signals — the paper's stated mechanism for the
  PBP→SPBP improvement.
"""


def test_fig03_wakeups_vs_usage(profile_study, save_result):
    result = profile_study
    save_result("fig03_fig04_profile", result.render())
    s = result.summaries

    # Spinners: full usage, no scheduler wakeups.
    for name in ("BW", "Yield"):
        assert s[name].mean("usage_ms_per_s") > 900, name
        assert s[name].mean("wakeups_per_s") < 1, name

    # Blocking five: light usage (same work, no spinning).
    for name in ("Mutex", "Sem", "BP", "PBP", "SPBP"):
        assert s[name].mean("usage_ms_per_s") < 200, name

    # Per-item wakers vs batch wakers: ≥5× gap.
    for per_item in ("Mutex", "Sem"):
        for batch in ("BP", "PBP", "SPBP"):
            assert (
                s[per_item].mean("wakeups_per_s")
                > 5 * s[batch].mean("wakeups_per_s")
            ), (per_item, batch)

    # Jitter → overflow wakeups: PBP suffers more than SPBP.
    pbp_overflow = sum(
        r.overflow_wakeups for r in result.runs if r.implementation == "PBP"
    )
    spbp_overflow = sum(
        r.overflow_wakeups for r in result.runs if r.implementation == "SPBP"
    )
    assert pbp_overflow > spbp_overflow
