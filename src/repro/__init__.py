"""repro — reproduction of "Power-efficient Multiple Producer-Consumer"
(Medhat, Bonakdarpour, Fischmeister; IPDPS 2014).

Layered as the paper's system is:

* :mod:`repro.sim` — discrete-event simulation kernel (processes,
  events, semaphores/mutexes/condvars);
* :mod:`repro.cpu` — the simulated multicore board (cores, C-states,
  DVFS, timers);
* :mod:`repro.power` — energy model + the paper's two instruments
  (PowerTop analogue, shunt-resistor scope analogue);
* :mod:`repro.buffers` — the one bounded FIFO every implementation
  buffers into, and the global elastic pool;
* :mod:`repro.workloads` — web-log-like trace generation;
* :mod:`repro.impls` — the §III study set (BW, Yield, Mutex, Sem, BP,
  PBP, SPBP) and multi-pair assembly;
* :mod:`repro.core` — **PBPL**, the paper's contribution (slot track,
  core managers, rate prediction, latching, dynamic buffer resizing);
* :mod:`repro.metrics` / :mod:`repro.harness` — measurements,
  statistics, and one runner per paper figure;
* :mod:`repro.faults` — fault injection and the chaos resilience
  matrix (PBPL and baselines);
* :mod:`repro.trace` — event-trace observability: spans/instants/
  counters with virtual-time stamps, Chrome/Perfetto export, and
  trace-driven power attribution.

Quickstart::

    from repro.harness import StandardParams, run_multi_comparison

    result = run_multi_comparison(StandardParams(duration_s=2.0, replicates=2))
    print(result.render())
"""

from repro._version import __version__
from repro.core import PBPLConfig, PBPLSystem
from repro.harness import (
    StandardParams,
    run_buffer_sweep,
    run_consumer_scaling,
    run_multi_comparison,
    run_profile_study,
    run_wakeup_accounting,
)
from repro.impls import MultiPairSystem, PCConfig

__all__ = [
    "MultiPairSystem",
    "PBPLConfig",
    "PBPLSystem",
    "PCConfig",
    "StandardParams",
    "__version__",
    "run_buffer_sweep",
    "run_consumer_scaling",
    "run_multi_comparison",
    "run_profile_study",
    "run_wakeup_accounting",
]
