"""Exporter: OpenMetrics text, parse round-trip, drift diffs."""

import pytest

from repro.telemetry import (
    MetricsParseError,
    MetricsRegistry,
    diff_openmetrics,
    parse_openmetrics,
    to_openmetrics,
)


def _registry():
    r = MetricsRegistry(const_labels={"impl": "PBPL"})
    r.counter("wakeups_total", help="Wakeups.", kind="slot").inc(3)
    r.gauge("buffer_capacity", help="Slots.", consumer="c0").set(16)
    h = r.histogram("batch_items", buckets=(1, 4), help="Batch sizes.")
    for v in (1, 2, 9):
        h.observe(v)
    return r


def test_openmetrics_shape():
    text = to_openmetrics(_registry().snapshot())
    lines = text.splitlines()
    assert lines[-1] == "# EOF"
    assert text.endswith("# EOF\n")
    assert "# HELP repro_wakeups_total Wakeups." in lines
    assert "# TYPE repro_wakeups_total counter" in lines
    assert 'repro_wakeups_total{impl="PBPL",kind="slot"} 3' in lines
    assert 'repro_buffer_capacity{consumer="c0",impl="PBPL"} 16' in lines
    # Histogram buckets are cumulative with le labels plus sum/count.
    assert 'repro_batch_items_bucket{impl="PBPL",le="1.0"} 1' in lines
    assert 'repro_batch_items_bucket{impl="PBPL",le="4.0"} 2' in lines
    assert 'repro_batch_items_bucket{impl="PBPL",le="+Inf"} 3' in lines
    assert 'repro_batch_items_sum{impl="PBPL"} 12.0' in lines
    assert 'repro_batch_items_count{impl="PBPL"} 3' in lines


def test_openmetrics_parse_round_trip():
    text = to_openmetrics(_registry().snapshot())
    samples = parse_openmetrics(text)
    assert samples['repro_wakeups_total{impl="PBPL",kind="slot"}'] == 3.0
    assert samples['repro_batch_items_bucket{impl="PBPL",le="+Inf"}'] == 3.0


def test_parse_rejects_garbage():
    with pytest.raises(MetricsParseError):
        parse_openmetrics("repro_x this is not a number\n# EOF\n")


def test_diff_identical_is_clean():
    text = to_openmetrics(_registry().snapshot())
    diff = diff_openmetrics(text, text)
    assert not diff.drifted
    assert "identical" in diff.render()


def test_diff_reports_drift_and_missing_series():
    a = _registry()
    b = _registry()
    b.counter("wakeups_total", kind="slot").inc(2)
    b.counter("overflows_total").inc()
    diff = diff_openmetrics(
        to_openmetrics(a.snapshot()), to_openmetrics(b.snapshot())
    )
    assert diff.drifted
    rendered = diff.render()
    assert "wakeups_total" in rendered
    assert "overflows_total" in rendered


def test_diff_thresholds_absorb_small_drift():
    a = _registry()
    b = _registry()
    b.counter("wakeups_total", kind="slot").inc(1)  # 3 -> 4
    a_text = to_openmetrics(a.snapshot())
    b_text = to_openmetrics(b.snapshot())
    assert diff_openmetrics(a_text, b_text).drifted
    assert not diff_openmetrics(a_text, b_text, abs_tol=1.0).drifted
    assert not diff_openmetrics(a_text, b_text, rel_tol=0.5).drifted


def test_exported_floats_are_repr_exact():
    r = MetricsRegistry()
    r.counter("energy_joules_total").inc(0.1 + 0.2)
    text = to_openmetrics(r.snapshot())
    assert f"repro_energy_joules_total {repr(0.1 + 0.2)}" in text
