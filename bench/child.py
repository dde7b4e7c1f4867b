"""One benchmark operation: a single workload run in a fresh interpreter.

``bench/run.py`` starts this script once per operation, one child at a
time, and reads the JSON object it prints as its last stdout line::

    PYTHONPATH=src python bench/child.py --workload fig9_cell --seed 2014 [--trace|--setup-only]

The clock starts before ``import repro``. Set-up is the imports plus
synthesis of the base traces the workload will ask ``base_trace`` for;
``wall_s`` is the workload call alone. Outputs are digested and checked
after the clock stops. With ``--setup-only`` the child stops after
set-up and reports only that.

A ``Pacer`` runs through set-up and, untraced, through the call. It
also reports their times scaled to a steady machine speed:
``scaled_setup_s`` and ``scaled_wall_s``.

With ``--trace`` the workload call runs under ``cProfile`` and the child
also reports per-layer self time (package layers of ``src/repro``) and
calls into each layer from outside it.
"""

import gc
import signal
import time

#: Dicts the yardstick kernel builds, and the kernel's time on the
#: reference machine (2-vCPU Intel Xeon VM, Python 3.11) at its fastest.
YARDSTICK_ITEMS = 22000
YARDSTICK_S = 0.005

#: Host seconds between yardstick runs while a pacer is on.
PACE_S = 0.1


def yardstick() -> None:
    """A fixed pure-Python kernel: dict and tuple churn, ~5 ms when quiet.

    Of the kernels tried (a heap-driven event loop, pointer chasing
    over 300k objects, a mix), this one's slowdowns tracked the
    workloads' best. The collector is paused, so the heap the workload
    has built does not change the kernel's cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        keep = []
        for j in range(YARDSTICK_ITEMS):
            keep.append({"k": j, "v": (j, j + 1.0)})
            if len(keep) > 512:
                keep = keep[256:]
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Times the yardstick every ``PACE_S`` host seconds, from a timer
    signal, between ``start()`` and ``stop()``, and once at each end.

    The host is shared: other tenants' load slows all code on it by up
    to 2x, in spells of a fraction of a second to minutes. A stretch of
    work between two yardstick runs, scaled by ``YARDSTICK_S`` over the
    mean of their times, reads close to what it takes at a steady speed.
    ``wall_s`` sums the stretches unscaled, ``scaled_s`` scaled; both
    leave the yardstick's own time out.
    """

    def __init__(self) -> None:
        self.runs = []  # (start, end) of each yardstick run, host clock
        self._busy = False
        self._previous = None

    def _run(self, *_signal) -> None:
        if self._busy:  # a tick that lands inside a run is dropped
            return
        self._busy = True
        start = time.perf_counter()
        yardstick()
        self.runs.append((start, time.perf_counter()))
        self._busy = False

    def start(self) -> "Pacer":
        self._run()
        self._previous = signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, PACE_S, PACE_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._run()
        signal.signal(signal.SIGALRM, self._previous)

    def _stretches(self):
        for (a0, a1), (b0, b1) in zip(self.runs, self.runs[1:]):
            yield b0 - a1, ((a1 - a0) + (b1 - b0)) / 2

    @property
    def wall_s(self) -> float:
        return sum(work for work, _ in self._stretches())

    @property
    def scaled_s(self) -> float:
        return sum(work * YARDSTICK_S / pace for work, pace in self._stretches())

    @property
    def yardstick_s(self) -> list:
        return [end - start for start, end in self.runs]


_SETUP = Pacer().start()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import weakref  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import repro  # noqa: E402
from repro.faults.chaos import DEFAULT_SCENARIOS, run_chaos  # noqa: E402
from repro.harness.experiments import (  # noqa: E402
    run_buffer_sweep,
    run_multi_comparison,
)
from repro.harness.params import StandardParams  # noqa: E402
from repro.harness.runner import base_trace  # noqa: E402
from repro.telemetry import (  # noqa: E402
    MetricsRegistry,
    reconcile_core_wakeups,
    reconcile_energy,
    to_openmetrics,
)
from repro.trace import record_run, to_chrome_json, to_jsonl  # noqa: E402

_T_IMPORTED = time.perf_counter()

#: Package layers of ``src/repro`` that per-layer metrics are kept for.
LAYERS = (
    "sim", "buffers", "core", "cpu", "power", "impls", "workloads",
    "metrics", "telemetry", "trace", "faults", "pipeline", "harness",
)

#: Where the observed workload spills its JSONL traces (inside the
#: checkout: the benchmark reads and writes nothing outside it).
SPILL_DIR = Path(__file__).resolve().parent / "out"

OBSERVED_SCENARIOS = ("webserver", "combined", "pipeline-burst")


# -- workloads ----------------------------------------------------------------
#
# Each workload is (prepare, call, finish). ``prepare(seed)`` is set-up
# and returns the call's argument; ``call(arg)`` is the timed operation;
# ``finish(result, hasher)`` feeds the simulated output to the digest and
# returns (simulated counts, problems found in the output).


def _figure_params(seed: int) -> StandardParams:
    params = StandardParams(duration_s=3.0, replicates=3, seed=seed)
    for replicate in range(params.replicates):
        base_trace(params, replicate)
    return params


def _runs_finish(runs, hasher):
    hasher.update(
        json.dumps([asdict(r) for r in runs], sort_keys=True).encode()
    )
    problems = [
        f"{r.implementation} x{r.n_consumers} b{r.buffer_size} "
        f"r{r.replicate}: consumed {r.consumed} + dropped {r.items_dropped} "
        f"vs produced {r.produced}"
        for r in runs
        if not 0 < r.consumed + r.items_dropped <= r.produced
    ]
    counts = {
        "consumer_core_wakeups": sum(
            round(r.core_wakeups_per_s * r.duration_s) for r in runs
        ),
        "core.scheduled_wakeups": sum(r.scheduled_wakeups for r in runs),
        "core.overflow_wakeups": sum(r.overflow_wakeups for r in runs),
        "buffers.items_consumed": sum(r.consumed for r in runs),
        "buffers.items_shed": sum(r.items_dropped for r in runs),
        "trace.events_recorded": 0,
        "telemetry.series": 0,
    }
    return counts, problems


def _fig9_call(params):
    return run_multi_comparison(params, n_consumers=5, jobs=1).runs


def _fig11_call(params):
    sweep = run_buffer_sweep(params, sizes=(25, 50, 100), n_consumers=5, jobs=1)
    return [run for size in sweep.sizes for run in sweep.cells[size].runs]


def _chaos_prepare(seed: int) -> int:
    base_trace(StandardParams(duration_s=3.0, seed=seed), 0)
    return seed


def _chaos_call(seed: int):
    return run_chaos(
        DEFAULT_SCENARIOS, seed=seed, duration_s=3.0, n_consumers=4, jobs=1
    )


def _chaos_finish(report, hasher):
    hasher.update(report.to_json().encode())
    rows = report.results
    counts = {
        "consumer_core_wakeups": 0,  # chaos rows do not report core wakeups
        "core.scheduled_wakeups": sum(r.scheduled_wakeups for r in rows),
        "core.overflow_wakeups": sum(r.overflow_wakeups for r in rows),
        "buffers.items_consumed": sum(r.consumed for r in rows),
        "buffers.items_shed": sum(r.items_shed for r in rows),
        "trace.events_recorded": 0,
        "telemetry.series": 0,
    }
    # Only lost items (LEAKED) make the output wrong. A missed L + Δ
    # bound (VIOLATED) is what the algorithm does on that seed: core-kill
    # misses it on ~10% of seeds (883, 901, ...). It stays in the digest.
    problems = [
        f"chaos {r.scenario}: {r.verdict}" for r in rows if not r.conservation_ok
    ]
    return counts, problems


def _observed_prepare(seed: int) -> int:
    return seed


def _observed_call(seed: int):
    SPILL_DIR.mkdir(parents=True, exist_ok=True)
    spill = Path(tempfile.mkdtemp(dir=SPILL_DIR))
    kept = []
    for scenario in OBSERVED_SCENARIOS:
        # Each scenario starts from a collected heap, as it would in its
        # own `repro trace record` process. Without this, peak RSS jumps
        # between ~168 and ~180 MiB from seed to seed with collector
        # timing alone; with it, seeds stay within 2%. Costs ~0.1 s.
        gc.collect()
        registry = MetricsRegistry(
            const_labels={"impl": "PBPL", "scenario": scenario}
        )
        run = record_run(
            "PBPL",
            scenario,
            duration_s=6.0,
            n_consumers=5,
            seed=seed,
            metrics=registry,
            window_s=0.1,
        )
        snapshot = registry.snapshot()
        prom = to_openmetrics(snapshot)
        jsonl = spill / f"{scenario}.jsonl"
        jsonl.write_text(to_jsonl(run.tracer), encoding="utf-8")
        chrome_bytes = len(to_chrome_json(run.tracer))
        kept.append(
            (
                scenario, snapshot, prom, jsonl, chrome_bytes, run.stats,
                run.ledger_total_j, run.consumer_core_wakeups,
                len(run.tracer) + run.tracer.dropped_events,
            )
        )
    return spill, kept


def _observed_finish(result, hasher):
    spill, kept = result
    counts = dict.fromkeys(
        (
            "consumer_core_wakeups",
            "core.scheduled_wakeups", "core.overflow_wakeups",
            "buffers.items_consumed", "buffers.items_shed",
            "trace.events_recorded", "telemetry.series",
        ),
        0,
    )
    problems = []
    for (scenario, snapshot, prom, jsonl, chrome_bytes, stats, ledger_j,
         core_wakeups, recorded) in kept:
        hasher.update(prom.encode())
        hasher.update(jsonl.read_bytes())
        jsonl.unlink()
        # reconcile_counters is left out: items_consumed_total trails
        # PairStats.consumed by one item on some seeds (e.g. 101, 102),
        # and pipelines' stage stalls count in PairStats.overflows only.
        checks = reconcile_energy(snapshot, ledger_j) + reconcile_core_wakeups(
            snapshot, 0, core_wakeups
        )
        problems += [f"{scenario}: {c.name}" for c in checks if not c.ok]
        if not prom.endswith("# EOF\n") or chrome_bytes == 0:
            problems.append(f"{scenario}: empty or unterminated export")
        counts["consumer_core_wakeups"] += core_wakeups
        counts["core.scheduled_wakeups"] += stats.scheduled_wakeups
        counts["core.overflow_wakeups"] += stats.overflow_wakeups
        counts["buffers.items_consumed"] += stats.consumed
        counts["buffers.items_shed"] += stats.items_shed
        counts["trace.events_recorded"] += recorded
        counts["telemetry.series"] += sum(
            len(series) for _, _, _, series in snapshot.families
        )
    spill.rmdir()
    return counts, problems


WORKLOADS = {
    "fig9_cell": (_figure_params, _fig9_call, _runs_finish),
    "fig11_sweep": (_figure_params, _fig11_call, _runs_finish),
    "chaos_matrix": (_chaos_prepare, _chaos_call, _chaos_finish),
    "observed_pbpl": (_observed_prepare, _observed_call, _observed_finish),
}


# -- simulated counts -----------------------------------------------------------


class SimCounter:
    """Counts events and core wakeups over every simulated rig, while
    installed (``with SimCounter() as sim:``).

    Wraps ``Environment.run`` (summing ``events_processed`` deltas) and
    ``Machine.__init__`` (weakly remembering each machine under an index
    that is never reused). After every ``run`` returns, the wakeup
    totals of that environment's machines are re-read, so the last
    reading of each machine is its lifetime total and no rig is kept
    alive past its owner.
    """

    def __init__(self) -> None:
        self.events = 0
        self._index = itertools.count()
        self._machines = []  # (weakref to machine, index)
        self._wakeups = {}  # index -> last total_wakeups seen
        self._restore = None

    def __enter__(self) -> "SimCounter":
        from repro.cpu.machine import Machine
        from repro.sim.environment import Environment

        counter = self
        run, init = Environment.run, Machine.__init__

        def counted_run(env, until=None):
            before = env.events_processed
            try:
                return run(env, until)
            finally:
                counter.events += env.events_processed - before
                counter._read_machines(env)

        def counted_init(machine, *args, **kwargs):
            init(machine, *args, **kwargs)
            counter._machines.append((weakref.ref(machine), next(counter._index)))

        def restore():
            Environment.run, Machine.__init__ = run, init

        Environment.run = counted_run
        Machine.__init__ = counted_init
        self._restore = restore
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _read_machines(self, env) -> None:
        live = []
        for ref, index in self._machines:
            machine = ref()
            if machine is None:
                continue
            live.append((ref, index))
            if machine.env is env:
                self._wakeups[index] = machine.total_wakeups
        self._machines = live

    @property
    def core_wakeups(self) -> int:
        return sum(self._wakeups.values())


# -- per-layer attribution of a cProfile run -----------------------------------


def _layer_of(filename: str, src: str, bench: str):
    """The owning layer of a code file, or None for code outside both the
    package and the benchmark (stdlib, numpy, C builtins)."""
    if filename.startswith(src):
        head, sep, _ = filename[len(src):].partition("/")
        return head if sep and head in LAYERS else "other"
    if filename.startswith(bench):
        return "bench"
    return None


def _is_public(name: str) -> bool:
    """Public names and dunders; not ``_private`` nor ``<genexpr>`` etc."""
    return name[:1] not in ("_", "<") or (
        name.startswith("__") and name.endswith("__")
    )


def attribute_layers(stats: dict) -> dict:
    """Roll a ``pstats.Stats(...).stats`` table up to package layers.

    A function's self time belongs to its layer. Self time of code
    outside the package (C builtins, stdlib, numpy) is charged to its
    callers in proportion to the time each call edge spent there,
    transitively, so every second lands on the layer that asked for it.

    ``calls_in`` counts calls into a layer's public functions (dunders
    included) made directly from another layer or from the benchmark;
    calls arriving through builtins or stdlib frames are not counted.
    """
    src = os.path.dirname(repro.__file__) + "/"
    bench = os.path.dirname(os.path.abspath(__file__)) + "/"
    layer = {func: _layer_of(func[0], src, bench) for func in stats}
    owners: dict = {}

    def owner(func, visiting=frozenset()):
        if layer.get(func) is not None:
            return {layer[func]: 1.0}
        if func in owners:
            return owners[func]
        if func in visiting or func not in stats:
            return {"other": 1.0}
        callers = {c: e for c, e in stats[func][4].items() if c != func}
        weights = {c: edge[3] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: edge[0] for c, edge in callers.items()}
            total = sum(weights.values())
        if total <= 0:
            return {"other": 1.0}
        share: dict = {}
        for caller, weight in weights.items():
            for name, part in owner(caller, visiting | {func}).items():
                share[name] = share.get(name, 0.0) + part * weight / total
        owners[func] = share
        return share

    self_s = dict.fromkeys(LAYERS + ("bench", "other"), 0.0)
    calls_in = dict.fromkeys(LAYERS, 0)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        for name, part in owner(func).items():
            self_s[name] += tt * part
        home = layer.get(func)
        if home in calls_in and _is_public(func[2]):
            calls_in[home] += sum(
                edge[0]
                for caller, edge in callers.items()
                if layer.get(caller) not in (None, home)
            )
    return {"self_s": self_s, "calls_in": calls_in}


# -- the operation --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    prepare, call, finish = WORKLOADS[args.workload]
    arg = prepare(args.seed)
    gc.collect()
    t_ready = time.perf_counter()
    _SETUP.stop()
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": _SETUP.wall_s,
        "scaled_setup_s": _SETUP.scaled_s,
        # The two parts of set-up, yardstick runs included: the imports,
        # then trace synthesis, argument parsing and one full collection.
        "import_s": _T_IMPORTED - _T0,
        "trace_synthesis_s": t_ready - _T_IMPORTED,
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    with SimCounter() as sim:
        if args.trace:
            # No pacer: the yardstick would land in the profile.
            import cProfile
            import pstats

            profile = cProfile.Profile()
            t_call = time.perf_counter()
            profile.enable()
            result = call(arg)
            profile.disable()
            wall_s = time.perf_counter() - t_call
        else:
            pacer = Pacer().start()
            result = call(arg)
            pacer.stop()
            wall_s = pacer.wall_s
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    hasher = hashlib.sha256()
    counts, problems = finish(result, hasher)
    counts["sim.events"] = sim.events
    counts["cpu.core_wakeups"] = sim.core_wakeups
    if sim.core_wakeups < counts["consumer_core_wakeups"]:
        problems.append(
            f"cpu.core_wakeups {sim.core_wakeups} is below the "
            f"{counts['consumer_core_wakeups']} consumer-core wakeups "
            "in the outputs"
        )
    out.update(
        digest=hasher.hexdigest(),
        problems=problems,
        wall_s=wall_s,
        peak_rss_mb=peak_rss_kib / 1024.0,
        counts=counts,
    )
    if args.trace:
        out["layers"] = attribute_layers(pstats.Stats(profile).stats)
    else:
        out.update(scaled_wall_s=pacer.scaled_s, yardstick_s=pacer.yardstick_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
