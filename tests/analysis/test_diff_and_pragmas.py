"""Suppression pragmas: comma lists, coverage records, unused reports."""

import json

from repro.analysis.engine import analyze
from repro.analysis.registry import parse_pragmas
from repro.cli import main


def test_pragma_comma_list_suppresses_multiple_codes(lint_snippet):
    findings = lint_snippet(
        "import time\n"
        "import random\n"
        "t = time.time()  # repro: allow[DET001,DET003] -- both on one line\n"
        "r = random.random()  # repro: allow[DET003, DET001] -- spaces fine\n"
    )
    assert findings == []


def test_pragma_records_track_coverage():
    pragmas = parse_pragmas(
        [
            "# repro: allow[DET001,LAYER001] -- own line",
            "x = 1",
            "y = 2  # repro: allow[DET003] -- trailing",
        ]
    )
    assert pragmas[0]["codes"] == ["DET001", "LAYER001"]
    assert pragmas[0]["covers"] == [1, 2]
    assert pragmas[1]["covers"] == [3]


def test_unused_suppressions_reported_in_json(tmp_path):
    root = tmp_path / "repro" / "core"
    root.mkdir(parents=True)
    (root / "mixed.py").write_text(
        "import time\n"
        "t = time.time()  # repro: allow[DET001] -- used\n"
        "# repro: allow[DET003,LAYER001] -- nothing here triggers these\n"
        "x = 1\n",
        encoding="utf-8",
    )
    result = analyze([tmp_path])
    assert result.findings == []
    assert len(result.unused_suppressions) == 1
    entry = result.unused_suppressions[0]
    assert entry["line"] == 3
    assert entry["codes"] == ["DET003", "LAYER001"]


def test_unused_suppressions_in_cli_json(tmp_path, capsys):
    root = tmp_path / "repro" / "core"
    root.mkdir(parents=True)
    (root / "stale.py").write_text(
        "# repro: allow[DET001] -- stale\nx = 1\n", encoding="utf-8"
    )
    assert main(["lint", str(tmp_path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["unused_suppressions"] == [
        {
            "codes": ["DET001"],
            "line": 1,
            "path": str(root / "stale.py"),
        }
    ]


def test_shipped_tree_has_no_unused_suppressions():
    """Every pragma in src/ still earns its keep."""
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    result = analyze([src])
    assert result.unused_suppressions == []
