"""OpenMetrics artifacts are byte-identical however the work is laid
out: same text across repeat runs in-process and across worker counts
in the chaos matrix (serialisation order must not leak into exports)."""

import pytest

from repro.faults import SMOKE_SCENARIOS, run_chaos
from repro.telemetry import MetricsRegistry, to_openmetrics
from repro.trace import record_run

from tests.telemetry.conftest import SPEC


def _snapshot_text():
    registry = MetricsRegistry(
        const_labels={"impl": SPEC["impl"], "scenario": SPEC["scenario"]}
    )
    record_run(
        SPEC["impl"],
        SPEC["scenario"],
        duration_s=SPEC["duration_s"],
        n_consumers=SPEC["n_consumers"],
        seed=SPEC["seed"],
        metrics=registry,
    )
    return to_openmetrics(registry.snapshot())


def test_exports_are_byte_identical_across_runs():
    assert _snapshot_text() == _snapshot_text()


@pytest.mark.slow
def test_chaos_artifacts_byte_identical_across_jobs():
    """The per-scenario .prom artifacts come back identical whether the
    matrix ran serially or across worker processes."""
    kwargs = dict(
        seed=2014,
        duration_s=0.3,
        n_consumers=3,
        collect_metrics=True,
    )
    serial = run_chaos(SMOKE_SCENARIOS, jobs=1, **kwargs)
    parallel = run_chaos(SMOKE_SCENARIOS, jobs=2, **kwargs)
    assert set(serial.metrics_artifacts) == {s.name for s in SMOKE_SCENARIOS}
    assert serial.metrics_artifacts == parallel.metrics_artifacts
    for text in serial.metrics_artifacts.values():
        assert text.endswith("# EOF\n")
