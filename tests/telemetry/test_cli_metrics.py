"""The `repro metrics` command group, end to end and in-process."""

import pytest

from repro.cli import main
from repro.telemetry import parse_openmetrics

FAST = ["--duration", "0.2", "--consumers", "2", "--seed", "7"]


def test_snapshot_writes_openmetrics_and_reconciles(capsys, tmp_path):
    out = tmp_path / "m.prom"
    assert main(["metrics", "snapshot", *FAST, "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.endswith("# EOF\n")
    samples = parse_openmetrics(text)
    assert any(k.startswith("repro_wakeups_total") for k in samples)
    console = capsys.readouterr().out
    assert "OK" in console and "FAIL" not in console


def test_snapshot_to_stdout(capsys):
    assert main(["metrics", "snapshot", *FAST, "-o", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("# EOF\n")
    assert "OK" in captured.err  # reconciliation table goes to stderr


def test_snapshot_baseline_impl_reconciles_energy(capsys, tmp_path):
    out = tmp_path / "m.prom"
    code = main(
        ["metrics", "snapshot", "--impl", "BP", *FAST, "-o", str(out)]
    )
    assert code == 0
    assert "energy_joules_total" in capsys.readouterr().out


def test_diff_clean_and_drifted(capsys, tmp_path):
    a = tmp_path / "a.prom"
    b = tmp_path / "b.prom"
    a.write_text("m_total 1\n# EOF\n", encoding="utf-8")
    b.write_text("m_total 1\n# EOF\n", encoding="utf-8")
    assert main(["metrics", "diff", str(a), str(b)]) == 0
    b.write_text("m_total 5\n# EOF\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["metrics", "diff", str(a), str(b)]) == 1
    assert "m_total" in capsys.readouterr().out
    # Thresholds absorb the drift.
    assert main(["metrics", "diff", str(a), str(b), "--threshold-abs", "10"]) == 0


def test_diff_missing_file_exits_two(tmp_path):
    a = tmp_path / "a.prom"
    a.write_text("# EOF\n", encoding="utf-8")
    assert main(["metrics", "diff", str(a), str(tmp_path / "nope.prom")]) == 2


def test_profile_prints_hotspot_table(capsys):
    assert main(["metrics", "profile", *FAST, "--top", "4"]) == 0
    out = capsys.readouterr().out
    assert "kernel self-profile" in out
    assert "dispatches" in out


def test_bless_then_diff_round_trip(capsys, tmp_path):
    assert main(["metrics", "bless", "--out-dir", str(tmp_path)]) == 0
    golden = tmp_path / "pbpl_smoke.metrics.prom"
    assert golden.exists()
    capsys.readouterr()
    # The default snapshot spec is the golden spec: a fresh snapshot
    # must diff clean against a fresh bless.
    snap = tmp_path / "fresh.prom"
    assert main(["metrics", "snapshot", "-o", str(snap)]) == 0
    assert main(["metrics", "diff", str(golden), str(snap)]) == 0
