"""Tests for the command-line interface (in-process, short runs)."""

import pytest

from repro.cli import main


COMMON = ["--duration", "0.8", "--replicates", "1", "--seed", "3"]


def test_fig9_runs_and_prints(capsys, tmp_path):
    out_file = tmp_path / "fig9.txt"
    csv_file = tmp_path / "fig9.csv"
    code = main(
        ["fig9", "--consumers", "2", *COMMON, "--out", str(out_file), "--csv", str(csv_file)]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "Figure 9" in captured
    assert "PBPL" in captured
    assert out_file.exists()
    assert "implementation" in csv_file.read_text().splitlines()[0]


def test_accounting_runs(capsys):
    assert main(["accounting", *COMMON]) == 0
    assert "wakeup accounting" in capsys.readouterr().out


def test_sanity_passes(capsys):
    assert main(["sanity", *COMMON]) == 0
    assert "PASS" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["nope"])


def test_bad_counts_rejected():
    with pytest.raises(SystemExit):
        main(["fig10", "--counts", "a,b"])


@pytest.mark.parametrize(
    "argv",
    [
        ["fig9", "--consumers", "0"],
        ["fig9", "--buffer", "0"],
        ["fig9", "--duration", "-1"],
        ["fig9", "--replicates", "0"],
        ["fig9", "--rate", "nan"],
        ["fig9", "--jobs", "0"],
        ["accounting", "--buffer", "-3"],
        ["chaos", "--consumers", "0"],
        ["trace", "record", "--duration", "-1"],
        ["trace", "record", "--capacity", "0"],
        ["metrics", "snapshot", "--duration", "inf"],
        ["metrics", "profile", "--consumers", "two"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_non_positive_number_fails_by_name(argv, capsys):
    """A bad count or duration exits 2 at parse time, naming the flag,
    before any run starts."""
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: expected a positive" in err


@pytest.mark.slow
def test_fig10_tiny_grid(capsys):
    assert main(["fig10", "--counts", "2,3", *COMMON]) == 0
    out = capsys.readouterr().out
    assert "2 consumers" in out and "3 consumers" in out


def test_chaos_smoke_runs_and_passes(capsys, tmp_path):
    out_file = tmp_path / "resilience.md"
    code = main(
        [
            "chaos",
            "--smoke",
            "--consumers",
            "2",
            *COMMON,
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "# Resilience report" in captured
    assert "| combined |" in captured
    assert out_file.exists()


def test_chaos_json_mode(capsys):
    import json

    code = main(["chaos", "--smoke", "--consumers", "2", "--json", *COMMON])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert {s["scenario"] for s in payload["scenarios"]} == {
        "clean",
        "lost-signals",
        "combined",
    }


def test_chaos_json_mode_exits_one_on_a_failing_scenario(capsys, monkeypatch):
    """The --json runs are CI's resilience gate: a failing report must
    make them exit non-zero, not only print the verdict."""
    import json

    import repro.faults
    from repro.faults import ChaosReport
    from repro.metrics.resilience import ResilienceMetrics

    leaked = ResilienceMetrics(
        scenario="clean",
        duration_s=0.8,
        max_response_latency_s=0.01,
        slot_size_s=0.01,
        produced=10,
        consumed=7,
    )
    assert leaked.verdict == "LEAKED"

    def failing_run_chaos(scenarios, *, seed, duration_s, n_consumers, **_kw):
        return ChaosReport(seed, duration_s, n_consumers, results=[leaked])

    monkeypatch.setattr(repro.faults, "run_chaos", failing_run_chaos)
    code = main(["chaos", "--smoke", "--consumers", "2", "--json", *COMMON])
    assert code == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["passed"] is False
    assert "resilience violations in: clean" in captured.err


def test_chaos_reports_are_seed_deterministic(capsys):
    args = ["chaos", "--smoke", "--consumers", "2", "--json", *COMMON]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_sanity_json_mode(capsys):
    import json

    assert main(["sanity", "--json", *COMMON]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 4


def test_chaos_baselines_table(capsys):
    code = main(
        ["chaos", "--smoke", "--baselines", "--consumers", "2",
         "--duration", "0.5", "--replicates", "1", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "## Baseline degradation" in out
    for impl in ("Mutex", "Sem", "BP", "SPBP"):
        assert f"| {impl} |" in out
    assert "## Worst consumer per scenario" in out


def test_trace_record_writes_perfetto_json(capsys, tmp_path):
    import json

    out = tmp_path / "trace.json"
    text = tmp_path / "trace.txt"
    code = main(
        ["trace", "record", "--duration", "0.3", "--impl", "PBPL",
         "--scenario", "clean", "-o", str(out), "--text", str(text)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]
    assert text.read_text().splitlines()
    printed = capsys.readouterr().out
    assert "events" in printed and "diff" in printed


def _rejected_choice(argv, capsys, tmp_path):
    """Run ``argv``; assert a parse-time exit 2 and return stderr."""
    with pytest.raises(SystemExit) as exc_info:
        main([*argv, "-o", str(tmp_path / "t.out")])
    assert exc_info.value.code == 2
    return capsys.readouterr().err


def test_trace_record_rejects_unknown_scenario(capsys, tmp_path):
    err = _rejected_choice(["trace", "record", "--scenario", "nope"], capsys, tmp_path)
    assert "argument --scenario: invalid choice: 'nope'" in err
    assert "'pipeline-burst'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["metrics", "snapshot", "--scenario", "nope"],
        ["trace", "record", "--impl", "Nope"],
        ["metrics", "snapshot", "--impl", "Nope"],
    ],
    ids=" ".join,
)
def test_unknown_impl_or_scenario_fails_by_name(argv, capsys, tmp_path):
    """An unknown implementation or scenario exits 2 at parse time, names
    the flag and lists every valid choice, PBPL included."""
    err = _rejected_choice(argv, capsys, tmp_path)
    assert f"argument {argv[-2]}: invalid choice: '{argv[-1]}'" in err
    assert ("'PBPL'" if argv[-2] == "--impl" else "'webserver'") in err


def test_trace_smoke_gate(capsys, tmp_path):
    artifact = tmp_path / "smoke.json"
    code = main(["trace", "--smoke", "-o", str(artifact)])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace smoke: OK" in out
    assert artifact.exists()


def test_trace_without_subcommand_or_smoke_errors(capsys):
    assert main(["trace"]) == 2
    assert "choose a subcommand" in capsys.readouterr().err


RECORD_SHORT = ["trace", "record", "--duration", "0.2", "--consumers", "2",
                "--scenario", "clean"]


def test_trace_record_stream_writes_jsonl(capsys, tmp_path):
    from repro.trace import read_trace

    out = tmp_path / "t.jsonl"
    assert main([*RECORD_SHORT, "--stream", "-o", str(out)]) == 0
    events, reader = read_trace(out)
    assert events
    assert reader.header["schema_version"] == "1.0"
    assert reader.meta["impl"] == "PBPL"
    assert reader.footer["events"] == len(events)
    assert "streamed" in capsys.readouterr().out


def test_trace_record_stream_survives_ring_overflow(capsys, tmp_path):
    from repro.trace import read_trace

    out = tmp_path / "o.jsonl"
    assert main([*RECORD_SHORT, "--stream", "--capacity", "50",
                 "-o", str(out)]) == 0
    events, reader = read_trace(out)
    assert len(events) > 50  # more than the ring could hold
    assert reader.footer["dropped"] > 0
    assert "dropped" in capsys.readouterr().out


def test_trace_record_to_stdout_keeps_pipe_clean(capsys):
    import json

    assert main([*RECORD_SHORT, "-o", "-"]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout is exactly the trace JSON
    assert "events" in captured.err  # summary moved to stderr


def test_trace_record_stream_to_stdout(capsys):
    import json

    assert main([*RECORD_SHORT, "--stream", "-o", "-"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "repro.trace"
    assert "footer" in json.loads(lines[-1])
    assert "streamed" in captured.err


def test_trace_record_rejects_unwritable_dir_before_running(capsys, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "t.json"
    assert main([*RECORD_SHORT, "-o", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "does not exist" in err


def test_trace_report_unreadable_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not a trace\n")
    with pytest.raises(SystemExit) as exc_info:
        main(["trace", "report", str(bad)])
    assert exc_info.value.code == 2
    assert "not a repro.trace JSONL trace" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc_info:
        main(["trace", "report", str(tmp_path / "nope.jsonl")])
    assert exc_info.value.code == 2


def test_trace_report_renders_flamegraph(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    report = tmp_path / "report.txt"
    assert main([*RECORD_SHORT, "--stream", "-o", str(trace)]) == 0
    capsys.readouterr()
    assert main(["trace", "report", str(trace), "--top", "5",
                 "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "trace report — PBPL × clean" in out
    assert "self ms" in out and "joules" in out
    assert "top wakeup causes" in out
    assert "ledger total" in out
    assert "trace report — PBPL × clean" in report.read_text()


def test_trace_report_window(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    assert main([*RECORD_SHORT, "--stream", "-o", str(trace)]) == 0
    capsys.readouterr()
    assert main(
        ["trace", "report", str(trace), "--from", "0.1", "--to", "0.2"]
    ) == 0
    out = capsys.readouterr().out
    assert "[0.1, 0.2)s" in out
    # Windowed totals cannot reconcile against the full-run ledger.
    assert "ledger total" not in out


def test_trace_report_rejects_empty_window(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    assert main([*RECORD_SHORT, "--stream", "-o", str(trace)]) == 0
    capsys.readouterr()
    assert main(
        ["trace", "report", str(trace), "--from", "0.2", "--to", "0.1"]
    ) == 2
    assert "--to must be after --from" in capsys.readouterr().err


def test_chaos_scenario_filter(capsys):
    assert (
        main(
            ["chaos", "--scenarios", "clean,burst", "--duration", "0.4",
             "--consumers", "2"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "| clean |" in out and "| burst |" in out
    assert "| stall |" not in out


def test_chaos_rejects_unknown_scenario_name(capsys):
    assert main(["chaos", "--scenarios", "no-such-fault"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
