"""Exporter: OpenMetrics text, one unique sample per line."""

from repro.telemetry import MetricsRegistry, to_openmetrics


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


def test_every_sample_is_one_unique_line(metered_snapshot):
    """One sample per line, each ``name{labels}`` key once: what lets a
    byte compare of the golden name the first sample that moved."""
    lines = to_openmetrics(metered_snapshot).splitlines()
    assert lines[-1] == "# EOF"
    samples = [line for line in lines if not line.startswith("#")]
    keys = [line.rsplit(" ", 1)[0] for line in samples]
    assert samples and len(set(keys)) == len(keys)
    for line in samples:
        float(line.rsplit(" ", 1)[1])  # every value is a number


def test_exported_floats_are_repr_exact():
    r = MetricsRegistry()
    r.counter("energy_joules_total").inc(0.1 + 0.2)
    text = to_openmetrics(r.snapshot())
    assert f"repro_energy_joules_total {repr(0.1 + 0.2)}" in text
