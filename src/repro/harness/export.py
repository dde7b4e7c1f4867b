"""Export experiment results to CSV.

The figure renderers produce human-readable tables; downstream analysis
(spreadsheets, plotting, regression dashboards) wants machine-readable
rows. One :class:`~repro.metrics.run.RunMetrics` maps to one row;
reading back reconstructs the dataclasses, so archived experiment grids
re-summarise without re-simulation.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, fields
from pathlib import Path
from typing import List, Sequence, Union

from repro.metrics.run import RunMetrics

_FIELDS = [f.name for f in fields(RunMetrics)]


def runs_to_csv(runs: Sequence[RunMetrics], path: Union[str, Path]) -> None:
    """Write one CSV row per run (header included)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_FIELDS)
        writer.writeheader()
        for run in runs:
            writer.writerow(asdict(run))


def runs_from_csv(path: Union[str, Path]) -> List[RunMetrics]:
    """Read runs written by :func:`runs_to_csv`."""
    out: List[RunMetrics] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(_FIELDS) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        for row in reader:
            out.append(_coerce(row))
    return out


def _coerce(row: dict) -> RunMetrics:
    kwargs = {}
    for f in fields(RunMetrics):
        raw = row[f.name]
        if f.type in ("int", int):
            kwargs[f.name] = int(float(raw))
        elif f.type in ("float", float):
            kwargs[f.name] = float(raw)
        else:
            kwargs[f.name] = raw
    return RunMetrics(**kwargs)
