"""The goldens in ``results/golden/`` are byte-identical to a fresh
``repro bless``.

The check is a byte compare: a JSONL trace holds one event per line and
an OpenMetrics snapshot one sample per line, so a failure names the
first line that moved. After an intentional behaviour change, run
``repro bless`` and commit the new goldens with the reason.
"""

import difflib
import itertools
from pathlib import Path

import pytest

from repro.cli import GOLDENS, main
from repro.trace import read_trace

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "results" / "golden"
COMMITTED = sorted(p.name for p in GOLDEN_DIR.iterdir())


@pytest.fixture(scope="module")
def fresh_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fresh")
    assert main(["bless", "--out-dir", str(out)]) == 0
    return out


def _first_difference(committed: Path, fresh: Path, lines: int = 8) -> str:
    diff = difflib.unified_diff(
        committed.read_text(encoding="utf-8").splitlines(keepends=True),
        fresh.read_text(encoding="utf-8").splitlines(keepends=True),
        str(committed),
        str(fresh),
        n=0,
    )
    return "".join(itertools.islice(diff, lines))


def test_bless_writes_exactly_the_committed_files(fresh_dir):
    assert sorted(p.name for p in fresh_dir.iterdir()) == COMMITTED
    assert len(COMMITTED) == len(GOLDENS) + 1  # pbpl_smoke adds its .prom


@pytest.mark.parametrize("name", COMMITTED)
def test_committed_golden_matches_fresh_bless(fresh_dir, name):
    committed, fresh = GOLDEN_DIR / name, fresh_dir / name
    assert fresh.read_bytes() == committed.read_bytes(), (
        f"{name} drifted from the committed golden; if the change is "
        f"intended, run `repro bless` and commit it:\n"
        + _first_difference(committed, fresh)
    )


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_trace_header_records_the_run_spec(fresh_dir, name):
    _events, reader = read_trace(fresh_dir / f"{name}.trace.jsonl")
    spec = {k: v for k, v in GOLDENS[name].items() if k != "metrics"}
    assert reader.meta == spec
    assert reader.footer["events"] > 0


def test_bless_into_missing_directory_exits_two(tmp_path, capsys):
    assert main(["bless", "--out-dir", str(tmp_path / "nope")]) == 2
    assert "does not exist" in capsys.readouterr().err
