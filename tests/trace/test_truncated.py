"""Truncated-trace handling: killed runs fail loudly, not with tracebacks."""

import pytest

from repro.cli import main
from repro.trace import (
    TraceReader,
    TraceSchemaError,
    TraceTruncatedError,
    to_jsonl,
)
from repro.trace.tracer import TraceEvent


def _events(n=3):
    return [
        TraceEvent(
            ts_s=0.1 * i,
            dur_s=None,
            phase="i",
            category="event",
            track="core0",
            name="slot",
            seq=i,
            args={},
        )
        for i in range(n)
    ]


@pytest.fixture
def healthy_trace(tmp_path):
    path = tmp_path / "healthy.jsonl"
    path.write_text(to_jsonl(_events(), meta={"seed": 2014}))
    return path


def test_half_written_final_line_raises_truncated(tmp_path, healthy_trace):
    text = healthy_trace.read_text()
    cut = tmp_path / "cut.jsonl"
    cut.write_text(text[: len(text) - 15])  # knife through the footer line
    with pytest.raises(TraceTruncatedError, match="truncated trace"):
        TraceReader(cut).read()


def test_midfile_garbage_is_schema_error_not_truncation(tmp_path, healthy_trace):
    lines = healthy_trace.read_text().splitlines()
    lines[2] = '{"broken'
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceSchemaError) as exc_info:
        TraceReader(bad).read()
    assert not isinstance(exc_info.value, TraceTruncatedError)


def test_footerless_trace_reads_but_reports_no_footer(tmp_path, healthy_trace):
    lines = healthy_trace.read_text().splitlines()
    assert "footer" in lines[-1]
    headless = tmp_path / "nofooter.jsonl"
    headless.write_text("\n".join(lines[:-1]) + "\n")
    reader = TraceReader(headless)
    assert len(reader.read()) == 3
    assert reader.footer is None


def test_report_of_healthy_trace_exits_zero(healthy_trace, capsys):
    assert main(["trace", "report", str(healthy_trace)]) == 0
    assert "trace report" in capsys.readouterr().out


def test_report_rejects_half_written_trace_with_exit_two(
    tmp_path, healthy_trace, capsys
):
    text = healthy_trace.read_text()
    cut = tmp_path / "cut.jsonl"
    cut.write_text(text[: len(text) - 15])
    with pytest.raises(SystemExit) as exc_info:
        main(["trace", "report", str(cut)])
    assert exc_info.value.code == 2
    assert "truncated trace" in capsys.readouterr().err
