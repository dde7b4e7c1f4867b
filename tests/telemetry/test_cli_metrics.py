"""The `repro metrics` command group, end to end and in-process."""

from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).resolve().parents[2] / "results/golden/pbpl_smoke.metrics.prom"

FAST = ["--duration", "0.2", "--consumers", "2", "--seed", "7"]


def test_snapshot_writes_openmetrics_and_reconciles(capsys, tmp_path):
    out = tmp_path / "m.prom"
    assert main(["metrics", "snapshot", *FAST, "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.endswith("# EOF\n")
    assert any(line.startswith("repro_wakeups_total{") for line in text.splitlines())
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


def test_profile_prints_hotspot_table(capsys):
    assert main(["metrics", "profile", *FAST, "--top", "4"]) == 0
    out = capsys.readouterr().out
    assert "kernel self-profile" in out
    assert "dispatches" in out


def test_default_snapshot_is_the_metrics_golden(tmp_path):
    """The snapshot defaults are the pbpl_smoke golden's run, so a
    default snapshot reproduces the committed golden byte for byte."""
    snap = tmp_path / "fresh.prom"
    assert main(["metrics", "snapshot", "-o", str(snap)]) == 0
    assert snap.read_bytes() == GOLDEN.read_bytes()
