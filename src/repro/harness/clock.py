"""Wall-clock shim — the only module allowed to read host time.

Virtual (simulated) time always comes from ``Environment.now``; nothing
in the kernel or harness may consult the host clock directly, because a
wall-clock read is the classic way nondeterminism sneaks into "pure"
runs. The measurement harness still legitimately needs host time for
*meta*-measurements — benchmark wall times, report section runtimes —
so those reads are funnelled through this module, which the DET001
lint rule allowlists by name.
"""

from __future__ import annotations

import time as _time


def perf_counter() -> float:
    """Monotonic high-resolution host timer (seconds)."""
    return _time.perf_counter()
