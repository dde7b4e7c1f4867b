"""The ``metrics_overhead`` gate behind ``repro metrics overhead``."""

import pytest

from repro.cli import main
from repro.harness import overhead


def _measured(frac, null_events=100, active_events=100):
    return lambda: {
        "pairs": 15,
        "null_events": null_events,
        "active_events": active_events,
        "overhead_frac": frac,
        "tolerance": overhead.METRICS_OVERHEAD_TOLERANCE,
    }


def test_gate_passes_below_tolerance(monkeypatch, capsys):
    monkeypatch.setattr(overhead, "measure_metrics_overhead", _measured(0.05))
    assert main(["metrics", "overhead"]) == 0
    out = capsys.readouterr().out
    assert "+5.0%" in out and "tolerance 15%" in out


@pytest.mark.parametrize(
    "measured, message",
    [
        (_measured(0.16), "+16.0% exceeds the 15% tolerance"),
        (_measured(0.01, active_events=101), "changed the event count"),
    ],
    ids=["above-tolerance", "event-count-differs"],
)
def test_gate_fails(monkeypatch, capsys, measured, message):
    monkeypatch.setattr(overhead, "measure_metrics_overhead", measured)
    assert main(["metrics", "overhead"]) == 1
    assert message in capsys.readouterr().err


def test_live_registry_adds_no_events():
    # The ratio is the cost of instrumentation only if both smokes run
    # the same workload event for event.
    m = overhead.measure_metrics_overhead(pairs=2)
    assert m["pairs"] == 2
    assert m["null_events"] == m["active_events"] > 0
    assert m["tolerance"] == 0.15
