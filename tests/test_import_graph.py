"""The import graph stays light: no entry point pulls in scipy.

scipy is only a test oracle for ``repro.metrics.stats``. Importing it
would add most of a second to every run's start-up, so a stray import
anywhere under these entry points fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.harness.experiments",
    "repro.faults.chaos",
    "repro.trace",
    "repro.telemetry",
)


def test_entry_points_do_not_import_scipy():
    code = (
        "import importlib, sys\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
