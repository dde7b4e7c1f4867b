"""Registry semantics: label keying, const labels, snapshot queries."""

import pytest

from repro.telemetry import MetricsRegistry


def test_same_name_and_labels_share_one_instrument():
    r = MetricsRegistry()
    a = r.counter("wakeups_total", core=0)
    b = r.counter("wakeups_total", core=0)
    c = r.counter("wakeups_total", core=1)
    assert a is b
    assert a is not c


def test_label_order_is_irrelevant():
    r = MetricsRegistry()
    a = r.counter("slots_fired_total", core=0, kind="slot")
    b = r.counter("slots_fired_total", kind="slot", core=0)
    assert a is b


def test_kind_conflict_rejected():
    r = MetricsRegistry()
    r.counter("wakeups_total")
    with pytest.raises(ValueError):
        r.gauge("wakeups_total")


def test_histogram_bucket_conflict_rejected():
    r = MetricsRegistry()
    r.histogram("batch_items", buckets=(1, 2))
    with pytest.raises(ValueError):
        r.histogram("batch_items", buckets=(1, 4))


def test_invalid_names_and_labels_rejected():
    r = MetricsRegistry()
    with pytest.raises(ValueError):
        r.counter("Bad-Name")
    with pytest.raises(ValueError):
        r.counter("wakeups_total", **{"Bad-Label": 1})


def test_const_labels_merge_into_every_series():
    r = MetricsRegistry(const_labels={"impl": "PBPL"})
    r.counter("wakeups_total", core=0).inc(2)
    snap = r.snapshot()
    assert snap.value("wakeups_total", impl="PBPL", core=0) == 2


def test_snapshot_is_decoupled_from_live_registry():
    r = MetricsRegistry()
    c = r.counter("overflows_total")
    c.inc()
    snap = r.snapshot()
    c.inc(10)
    assert snap.value("overflows_total") == 1
    assert r.snapshot().value("overflows_total") == 11


def test_total_sums_over_label_subsets():
    r = MetricsRegistry()
    r.counter("core_wakeups_total", core=0).inc(3)
    r.counter("core_wakeups_total", core=1).inc(4)
    snap = r.snapshot()
    assert snap.total("core_wakeups_total") == 7
    assert snap.total("core_wakeups_total", core=1) == 4
    with pytest.raises(KeyError):
        snap.total("core_wakeups_total", core=9)


def test_total_rejects_histograms():
    r = MetricsRegistry()
    r.histogram("batch_items", buckets=(1,)).observe(1)
    with pytest.raises(ValueError):
        r.snapshot().total("batch_items")


def test_delta_counters_histograms_subtract_gauges_sample():
    r = MetricsRegistry()
    c = r.counter("items_consumed_total")
    g = r.gauge("buffer_capacity")
    h = r.histogram("batch_items", buckets=(1, 4))
    c.inc(5)
    g.set(16)
    h.observe(2)
    first = r.snapshot()
    c.inc(3)
    g.set(32)
    h.observe(8)
    second = r.snapshot()
    d = second.delta(first)
    assert d.value("items_consumed_total") == 3
    assert d.value("buffer_capacity") == 32  # gauges keep the sampled value
    hist = d.value("batch_items")
    assert hist.count == 1 and hist.sum == 8.0


def test_views_read_the_model_at_each_snapshot():
    model = {"consumed": 0, "capacity": 25}
    r = MetricsRegistry(const_labels={"impl": "PBPL"})
    r.counter("items_consumed_total", read=lambda: model["consumed"], consumer="c0")
    r.gauge("buffer_capacity", read=lambda: model["capacity"], consumer="c0")
    before = r.snapshot()
    model.update(consumed=7, capacity=12)
    after = r.snapshot()
    assert before.value("items_consumed_total", impl="PBPL", consumer="c0") == 0
    assert after.value("items_consumed_total", impl="PBPL", consumer="c0") == 7
    frame = after.delta(before)
    assert frame.value("items_consumed_total", impl="PBPL", consumer="c0") == 7
    assert frame.value("buffer_capacity", impl="PBPL", consumer="c0") == 12
    # One origin per series: a second registration of a view is refused.
    with pytest.raises(ValueError):
        r.counter("items_consumed_total", read=lambda: 0, consumer="c0")


def test_null_registry_drops_views():
    from repro.telemetry import NULL_REGISTRY

    NULL_REGISTRY.counter("items_consumed_total", read=lambda: 1 / 0)
    assert NULL_REGISTRY.snapshot().families == []
