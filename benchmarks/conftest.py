"""Shared fixtures for the figure-reproduction benchmarks.

Every benchmark regenerates one of the paper's figures/tables: it runs
its experiments, prints the text figure (also saved under ``results/``
and into its block in EXPERIMENTS.md), and asserts the paper's
qualitative shape. The §VI figures, the §VI-C scalars and the PBPL
ablations at the Figure 9 cell read one session grid, so each cell is
simulated once per session. Wall time is measured by ``bench/``, not
here.

Run:  pytest benchmarks -s
"""

import re
from pathlib import Path

import pytest

from repro.harness import ExperimentGrid, StandardParams

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "results"
EXPERIMENTS_MD = ROOT / "EXPERIMENTS.md"


@pytest.fixture(scope="session")
def bench_params() -> StandardParams:
    """The paper-shaped parameter set used by every figure benchmark."""
    return StandardParams(duration_s=3.0, replicates=3)


@pytest.fixture(scope="session")
def grid(bench_params) -> ExperimentGrid:
    """The §VI run plan shared by every benchmark on ``bench_params``."""
    return ExperimentGrid(bench_params)


def write_block(doc: str, name: str, text: str) -> str:
    """``doc`` with the fenced block between its two
    ``<!-- results/<name>.txt -->`` markers replaced by ``text``."""
    marker = f"<!-- results/{name}.txt -->"
    pattern = re.compile(re.escape(marker) + r"\n.*?" + re.escape(marker), re.S)
    block = f"{marker}\n```\n{text}\n```\n{marker}"
    return pattern.sub(lambda _: block, doc)


@pytest.fixture(scope="session")
def save_result():
    """Print a rendered figure and persist it under results/ and, where
    EXPERIMENTS.md has markers for it, into that document."""

    def _save(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        doc = EXPERIMENTS_MD.read_text(encoding="utf-8")
        updated = write_block(doc, name, text)
        if updated != doc:
            EXPERIMENTS_MD.write_text(updated, encoding="utf-8")
        print(f"\n{text}\n[saved to results/{name}.txt]")

    return _save


@pytest.fixture(scope="session")
def profile_study(bench_params):
    """The §III study runs once; Figures 3 and 4 both read from it."""
    from repro.harness import run_profile_study

    return run_profile_study(bench_params)
