"""Tests for the sanity-check suite and CSV export."""

import pytest

from repro.harness import (
    StandardParams,
    dual_spin_ceiling_w,
    run_multi,
    run_sanity_checks,
    run_single_pair,
    runs_from_csv,
    runs_to_csv,
)
from repro.metrics import RunMetrics


@pytest.fixture(scope="module")
def params():
    return StandardParams(duration_s=1.0, replicates=1, seed=13)


@pytest.fixture(scope="module")
def some_runs(params):
    return [
        run_single_pair("Sem", params, 0),
        run_single_pair("BP", params, 0),
        run_multi("PBPL", 2, params, 0),
    ]


# -- sanity checks --------------------------------------------------------------


def test_dual_spin_ceiling_is_large(params):
    ceiling = dual_spin_ceiling_w(params)
    # Two spinning A15-class cores: multiple watts above baseline.
    assert ceiling > 2.0


def test_sanity_report_passes_on_healthy_runs(some_runs, params):
    report = run_sanity_checks(some_runs, params)
    assert report.all_passed, report.render()
    assert len(report.checks) == 4


def test_sanity_report_render(some_runs, params):
    text = run_sanity_checks(some_runs, params).render()
    assert "PASS" in text
    assert "dual-spin ceiling" in text


def test_sanity_detects_impossible_power(params, some_runs):
    bogus = RunMetrics(
        implementation="Bogus",
        n_consumers=1,
        buffer_size=25,
        replicate=0,
        duration_s=1.0,
        power_w=100.0,  # above any ceiling
        power_true_w=100.0,
        wakeups_per_s=1.0,
        core_wakeups_per_s=1.0,
        usage_ms_per_s=1.0,
    )
    report = run_sanity_checks(list(some_runs) + [bogus], params)
    assert not report.all_passed
    failing = {c.name for c in report.checks if not c.passed}
    assert "dual-spin ceiling" in failing


def test_sanity_detects_negative_extra_power(params, some_runs):
    bogus = RunMetrics(
        implementation="Bogus",
        n_consumers=1,
        buffer_size=25,
        replicate=0,
        duration_s=1.0,
        power_w=-0.5,
        power_true_w=-0.5,
        wakeups_per_s=1.0,
        core_wakeups_per_s=1.0,
        usage_ms_per_s=1.0,
    )
    report = run_sanity_checks(list(some_runs) + [bogus], params)
    failing = {c.name for c in report.checks if not c.passed}
    assert "idle floor" in failing


# -- export ---------------------------------------------------------------------


def test_csv_roundtrip(tmp_path, some_runs):
    path = tmp_path / "runs.csv"
    runs_to_csv(some_runs, path)
    back = runs_from_csv(path)
    assert back == list(some_runs)


def test_csv_missing_columns_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("implementation,power_w\nBP,0.1\n")
    with pytest.raises(ValueError, match="missing columns"):
        runs_from_csv(path)
