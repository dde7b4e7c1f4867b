"""`repro lint` end to end: exit codes, output formats, names generation."""

import json
import re

from repro.analysis.rules_trace import write_names_module
from repro.cli import main
from repro.trace import REGISTERED_NAMES


def _write(tmp_path, rel, source):
    path = tmp_path / "repro" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def test_clean_tree_exits_zero(tmp_path, capsys):
    _write(tmp_path, "core/ok.py", "x = 1\n")
    assert main(["lint", str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_finding_exits_one_with_location(tmp_path, capsys):
    path = _write(tmp_path, "core/bad.py", "import time\nt = time.time()\n")
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"{path}:2:" in out
    assert "DET001" in out


def test_json_format(tmp_path, capsys):
    _write(tmp_path, "core/bad.py", "import random\nx = random.random()\n")
    assert main(["lint", str(tmp_path), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.lint/3"
    assert doc["findings"][0]["code"] == "DET003"


def test_missing_path_exits_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_parse_error_exits_two(tmp_path, capsys):
    _write(tmp_path, "core/broken.py", "def f(:\n")
    assert main(["lint", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"broken\.py:1: parse error: ", err)


def test_parse_error_still_reports_other_files(tmp_path, capsys):
    """One unparseable file must not mute findings elsewhere."""
    _write(tmp_path, "core/broken.py", "def f(:\n")
    _write(tmp_path, "core/bad.py", "import time\nt = time.time()\n")
    assert main(["lint", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "parse error" in captured.err
    assert "DET001" in captured.out


def test_write_names_generates_registry(tmp_path, capsys):
    _write(
        tmp_path,
        "core/emitter.py",
        "def emit(tracer):\n"
        "    tracer.instant('core0', 'alpha')\n"
        "    tracer.counter('core0', 'beta', 1.0)\n",
    )
    out = tmp_path / "names.py"
    assert write_names_module([tmp_path], out) == {"alpha", "beta"}
    text = out.read_text(encoding="utf-8")
    assert "REGISTERED_NAMES" in text
    assert '"alpha"' in text and '"beta"' in text


def test_shipped_tree_is_clean_and_names_current(capsys):
    """The acceptance gate: `repro lint src` exits 0 on the real tree,
    and the generated registry matches the tracer call sites."""
    from pathlib import Path

    from repro.analysis.rules_trace import collect_trace_names

    src = Path(__file__).resolve().parents[2] / "src"
    assert main(["lint", str(src)]) == 0
    assert collect_trace_names([src]) == set(REGISTERED_NAMES)
