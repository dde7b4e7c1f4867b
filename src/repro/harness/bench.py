"""The ``repro bench`` performance trajectory.

Two complementary benchmark suites, serialised as JSON at the repo root
so the numbers live in version control and CI can refuse silent
regressions:

* **kernel** (``BENCH_kernel.json``) — events/sec micro-benchmarks of
  the DES kernel: a pure timer storm (queue + dispatch overhead and
  nothing else), the PBPL smoke run (the blessed golden-trace
  configuration, end-to-end through slots, prediction and power
  accounting), and a migration smoke (a mid-run core kill with
  consumer re-homing on a 3-core rig).
* **harness** (``BENCH_harness.json``) — wall-clock of the chaos
  scenario matrix at ``jobs=1`` vs ``jobs=N`` through the
  :class:`~repro.harness.parallel.ParallelExecutor`, including the
  byte-identity check between the two reports.

Events/sec comes from :attr:`Environment.events_processed` over the
best wall-clock of ``repeats`` runs (best-of, not mean: scheduling
noise only ever adds time). The regression gate compares events/sec
ratios against a committed baseline file and fails on >20 % drops —
absolute numbers differ across machines, but a ratio against a
baseline measured *on the same runner earlier in the same job* is
meaningful.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.harness.clock import perf_counter, utc_stamp

from repro._version import __version__
from repro.core.system import PBPLSystem
from repro.harness.params import StandardParams
from repro.harness.parallel import resolve_jobs
from repro.harness.runner import CONSUMER_CORE, Rig, base_trace
from repro.impls.multi import phase_shifted_traces
from repro.sim.environment import Environment

#: Schema tags written into the JSON artifacts.
KERNEL_SCHEMA = "repro.bench.kernel/1"
HARNESS_SCHEMA = "repro.bench.harness/1"

#: Allowed events/sec drop before the baseline gate fails (20 %).
REGRESSION_TOLERANCE = 0.20

#: Allowed slowdown of the PBPL smoke with an *active* metrics registry
#: vs the NullRegistry default — the "disabled telemetry is free,
#: enabled telemetry is cheap" contract, enforced by ``repro bench``.
#: Re-based from 5 % to 15 % with the batched-kernel speedups (DESIGN.md
#: §13), two effects stacked: (1) the absolute instrumentation cost is
#: unchanged (~0.3 µs per event of pre-bound counter calls), but the
#: kernel around it got ~1.8× faster, so the same tax is mechanically
#: a larger *fraction* — typical measurement is ~8 %; (2) the paired
#: median estimator still moves ±3–4 points run-to-run under sustained
#: load on a shared 1-cpu runner. 15 % = typical + noise margin: it
#: never flakes on a healthy tree, and still fails if a change doubles
#: the per-event tax. A ratio gate that never moves would punish
#: kernel speedups.
METRICS_OVERHEAD_TOLERANCE = 0.15


# -- kernel micro-benchmarks -----------------------------------------------------


def _timeout_storm(until_s: float, n_processes: int = 50) -> Tuple[float, int]:
    """Pure kernel load: ``n_processes`` free-running tickers.

    Nothing but ``env.timeout`` and generator resumption — isolates the
    heap/dispatch/Timeout fast path from the simulation proper.
    """

    def ticker(env: Environment, period: float):
        while True:
            yield env.timeout(period)

    env = Environment()
    for i in range(n_processes):
        # Co-prime-ish periods so events spread over the heap instead of
        # all landing on one timestamp.
        env.process(ticker(env, 1e-3 * (1.0 + (i % 7) / 7.0)))
    start = perf_counter()
    env.run(until=until_s)
    wall = perf_counter() - start
    return wall, env.events_processed


def _dispatch_batch(until_s: float, n_processes: int = 1000) -> Tuple[float, int]:
    """Worst-case same-timestamp fan-out: ``n_processes`` tickers all
    latched on one shared period.

    Every tick, every process fires at the *same* timestamp, so the
    queue holds ``n_processes`` entries tied on ``when`` and must
    dispatch them in (priority, eid) order. This is the shape of a wide
    PBPL rig (1k consumers waking on one slot boundary) distilled to
    pure kernel work — a stress row for the event queue's tie-breaking.
    """

    def ticker(env: Environment, period: float):
        while True:
            yield env.timeout(period)

    env = Environment()
    for _ in range(n_processes):
        env.process(ticker(env, 1e-3))
    start = perf_counter()
    env.run(until=until_s)
    wall = perf_counter() - start
    return wall, env.events_processed


def _pbpl_smoke(duration_s: float, seed: int = 2014, n_consumers: int = 3
                ) -> Tuple[float, int]:
    """One golden-configuration PBPL run; returns (wall, events)."""
    params = StandardParams(duration_s=duration_s, seed=seed)
    rig = Rig.build(params, 0)
    traces = phase_shifted_traces(base_trace(params, 0), n_consumers)
    PBPLSystem(
        rig.env,
        rig.machine,
        traces,
        params.pbpl_config(),
        consumer_cores=[CONSUMER_CORE],
    ).start()
    start = perf_counter()
    rig.env.run(until=params.duration_s)
    wall = perf_counter() - start
    return wall, rig.env.events_processed


def _pbpl_metrics_smoke(duration_s: float, seed: int = 2014, n_consumers: int = 3
                        ) -> Tuple[float, int]:
    """The PBPL smoke with an *active* metrics registry; (wall, events).

    Identical wiring to :func:`_pbpl_smoke` plus a live
    :class:`~repro.telemetry.registry.MetricsRegistry` threaded through
    the system and a :class:`~repro.telemetry.collectors.PowerCollector`
    view of the energy ledger — the full instrumented hot path, no windows
    (window flushes would add events and change the workload). The
    events/sec ratio against the null run is the ``metrics_overhead``
    gate.
    """
    from repro.telemetry.collectors import PowerCollector
    from repro.telemetry.registry import MetricsRegistry

    params = StandardParams(duration_s=duration_s, seed=seed)
    rig = Rig.build(params, 0)
    registry = MetricsRegistry()
    collector = rig.ledger.add_sink(PowerCollector(registry))
    traces = phase_shifted_traces(base_trace(params, 0), n_consumers)
    PBPLSystem(
        rig.env,
        rig.machine,
        traces,
        params.pbpl_config(),
        consumer_cores=[CONSUMER_CORE],
        metrics=registry,
    ).start()
    start = perf_counter()
    rig.env.run(until=params.duration_s)
    wall = perf_counter() - start
    rig.ledger.remove_sink(collector)
    return wall, rig.env.events_processed


def _migration_smoke(duration_s: float, seed: int = 2014, n_consumers: int = 4
                     ) -> Tuple[float, int]:
    """A core-kill run on a 3-core rig; returns (wall, events).

    Exercises the whole recovery path — fail-stop teardown, consumer
    re-homing, re-reservation on the survivor — so migration-cost
    regressions show up in the trajectory next to the clean smoke.
    """
    from repro.faults.injectors import RuntimeInjector
    from repro.faults.spec import CoreFailure, FaultPlan

    params = StandardParams(duration_s=duration_s, seed=seed)
    rig = Rig.build(params, 0, n_cores=3)
    traces = phase_shifted_traces(base_trace(params, 0), n_consumers)
    system = PBPLSystem(
        rig.env,
        rig.machine,
        traces,
        params.pbpl_config(overflow_policy="block", harden_predictor=True),
        consumer_cores=[0, 2],
    ).start()
    plan = FaultPlan(
        [CoreFailure(start_s=0.35 * duration_s, duration_s=0.65 * duration_s, core=2)]
    )
    RuntimeInjector(rig.env, system, plan).start()
    start = perf_counter()
    rig.env.run(until=params.duration_s)
    wall = perf_counter() - start
    return wall, rig.env.events_processed


def _pipeline_smoke(duration_s: float, seed: int = 2014) -> Tuple[float, int]:
    """One PBPL run of the 3-stage telemetry pipeline; (wall, events).

    End-to-end through the stage subsystem — forwarding, cross-stage
    latch alignment, the edge workload synthesis — so pipeline-path
    regressions land in the trajectory next to the pair smokes.
    """
    from repro.pipeline import STOCK_TOPOLOGIES, PipelineSystem
    from repro.workloads.edge import edge_telemetry_trace

    params = StandardParams(duration_s=duration_s, seed=seed)
    rig = Rig.build(params, 0)
    topology = STOCK_TOPOLOGIES["telemetry"]
    feed = edge_telemetry_trace(
        params.mean_rate_per_s, duration_s, rig.streams.stream("edge")
    )
    traces = phase_shifted_traces(feed, len(topology.sources()))
    PipelineSystem(
        rig.env,
        rig.machine,
        topology,
        traces,
        params.pbpl_config(),
        consumer_cores=[CONSUMER_CORE],
    ).start()
    start = perf_counter()
    rig.env.run(until=params.duration_s)
    wall = perf_counter() - start
    return wall, rig.env.events_processed


def _best_of(fn, repeats: int) -> Dict[str, float]:
    """Run ``fn`` ``repeats`` times; report the best wall-clock."""
    walls: List[float] = []
    events = 0
    for _ in range(repeats):
        wall, events = fn()
        walls.append(wall)
    best = min(walls)
    return {
        "repeats": repeats,
        "events": events,
        "best_wall_s": best,
        "events_per_s": events / best if best > 0 else 0.0,
    }


def bench_kernel(quick: bool = False) -> dict:
    """Run the kernel micro-benchmarks; returns the JSON-able payload."""
    smoke_duration = 0.3 if quick else 1.0
    storm_until = 0.5 if quick else 2.0
    repeats = 3 if quick else 5
    benchmarks = {
        "timeout_storm": {
            "until_s": storm_until,
            **_best_of(lambda: _timeout_storm(storm_until), repeats),
        },
        "dispatch_batch": {
            "until_s": storm_until,
            **_best_of(lambda: _dispatch_batch(storm_until), repeats),
        },
        "pbpl_smoke": {
            "duration_s": smoke_duration,
            **_best_of(lambda: _pbpl_smoke(smoke_duration), repeats),
        },
        "metrics_smoke": {
            "duration_s": smoke_duration,
            **_best_of(lambda: _pbpl_metrics_smoke(smoke_duration), repeats),
        },
        "migration_smoke": {
            "duration_s": smoke_duration,
            **_best_of(lambda: _migration_smoke(smoke_duration), repeats),
        },
        "pipeline_smoke": {
            "duration_s": smoke_duration,
            **_best_of(lambda: _pipeline_smoke(smoke_duration), repeats),
        },
    }
    return {
        "schema": KERNEL_SCHEMA,
        **_environment_block(quick),
        "benchmarks": benchmarks,
        # 15 pairs ~= 0.6 s in quick mode: a single pair's overhead
        # swings by +-5 points on a shared box, so the median needs a
        # real sample to hold the gate verdict stable run-to-run.
        "metrics_overhead": _measure_metrics_overhead(
            smoke_duration, max(3 * repeats, 15)
        ),
    }


def _measure_metrics_overhead(duration_s: float, repeats: int) -> dict:
    """Paired null-vs-active measurement for the ``metrics_overhead`` gate.

    The null and active smokes run *interleaved* (null, active, null,
    active, ...) rather than as two independent best-of blocks: on a
    noisy shared container the machine's speed drifts between blocks by
    more than the tolerance, so only a paired design can resolve the
    ratio. The gate statistic is the *median of per-pair overheads* —
    each pair runs back-to-back so its walls share the machine's
    momentary speed and the ratio cancels drift, and the median
    discards the odd pair where a scheduler hiccup landed on one side
    only. (A ratio of best-of walls, the previous estimator, let one
    lucky null draw against an unlucky active draw swing the result by
    ±5 points run to run.) Two further noise controls: the pair order
    alternates (null-first, active-first, ...) so drift *within* a
    pair cancels across the sample instead of biasing one side, and
    the collector runs with the cyclic GC paused (collected between
    pairs) so a generational sweep cannot land inside one 20 ms wall.
    Same workload, same event count — the ratio isolates the cost of
    live instrumentation (`repro bench` fails above tolerance).
    """
    pair_overheads: List[float] = []
    null_walls: List[float] = []
    active_walls: List[float] = []
    null_events = active_events = 0
    for i in range(repeats):
        first, second = (
            (_pbpl_smoke, _pbpl_metrics_smoke)
            if i % 2 == 0
            else (_pbpl_metrics_smoke, _pbpl_smoke)
        )
        gc.collect()
        gc.disable()
        try:
            first_wall, first_events = first(duration_s)
            second_wall, second_events = second(duration_s)
        finally:
            gc.enable()
        if i % 2 == 0:
            null_wall, null_events = first_wall, first_events
            active_wall, active_events = second_wall, second_events
        else:
            active_wall, active_events = first_wall, first_events
            null_wall, null_events = second_wall, second_events
        null_walls.append(null_wall)
        active_walls.append(active_wall)
        if active_wall > 0:
            pair_overheads.append(1.0 - null_wall / active_wall)
    overhead = statistics.median(pair_overheads) if pair_overheads else 0.0
    null_rate = null_events / statistics.median(null_walls)
    active_rate = active_events / statistics.median(active_walls)
    return {
        "repeats": repeats,
        "null_events_per_s": null_rate,
        "active_events_per_s": active_rate,
        "overhead_frac": overhead,
        "tolerance": METRICS_OVERHEAD_TOLERANCE,
    }


# -- harness benchmark -----------------------------------------------------------


def bench_harness(quick: bool = False, jobs: Optional[int] = None) -> dict:
    """Time the chaos matrix serial vs parallel; verify byte-identity."""
    from repro.faults.chaos import DEFAULT_SCENARIOS, SMOKE_SCENARIOS, run_chaos

    scenarios = SMOKE_SCENARIOS if quick else DEFAULT_SCENARIOS
    duration_s = 0.5 if quick else 1.0
    n_consumers = 3
    if jobs is None:
        jobs = resolve_jobs(None)
        if jobs == 1:
            jobs = min(4, os.cpu_count() or 1)

    def timed(n: int) -> Tuple[float, str]:
        start = perf_counter()
        report = run_chaos(
            scenarios,
            seed=2014,
            duration_s=duration_s,
            n_consumers=n_consumers,
            jobs=n,
        )
        return perf_counter() - start, report.to_json()

    serial_wall, serial_json = timed(1)
    if jobs > 1:
        parallel_wall, parallel_json = timed(jobs)
        identical = serial_json == parallel_json
    else:
        parallel_wall, identical = serial_wall, True
    return {
        "schema": HARNESS_SCHEMA,
        **_environment_block(quick),
        "chaos_matrix": {
            "scenarios": [s.name for s in scenarios],
            "duration_s": duration_s,
            "n_consumers": n_consumers,
            "jobs": jobs,
            "serial_wall_s": serial_wall,
            "parallel_wall_s": parallel_wall,
            "speedup": serial_wall / parallel_wall if parallel_wall > 0 else 0.0,
            "byte_identical": identical,
        },
    }


def _environment_block(quick: bool) -> dict:
    from repro._compiled import kernel_backend

    return {
        "repro_version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "quick": quick,
        # pure-python vs compiled (mypyc) — rows from the two backends
        # pair up on the benchmark name but must never be conflated.
        "kernel_backend": kernel_backend(),
    }


# -- persistence & the regression gate -------------------------------------------


def write_bench_files(
    kernel: dict, harness: dict, out_dir: Path
) -> Tuple[Path, Path]:
    """Write ``BENCH_kernel.json`` + ``BENCH_harness.json`` under
    ``out_dir``; returns the two paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    kernel_path = out_dir / "BENCH_kernel.json"
    harness_path = out_dir / "BENCH_harness.json"
    kernel_path.write_text(
        json.dumps(kernel, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    harness_path.write_text(
        json.dumps(harness, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return kernel_path, harness_path


def check_regressions(
    kernel: dict, baseline_path: Path, tolerance: float = REGRESSION_TOLERANCE
) -> List[str]:
    """Compare kernel events/sec against a committed baseline file.

    Returns human-readable failure strings for every benchmark whose
    events/sec dropped more than ``tolerance`` below the baseline.
    Benchmarks present on only one side are ignored (new benchmarks
    must not fail the gate on their first run).
    """
    try:
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return [f"baseline {baseline_path} not found"]
    except json.JSONDecodeError as exc:
        return [f"baseline {baseline_path} unreadable: {exc}"]
    failures = []
    base_benchmarks = baseline.get("benchmarks", {})
    for name, current in kernel.get("benchmarks", {}).items():
        base = base_benchmarks.get(name)
        if not base:
            continue
        base_rate = base.get("events_per_s", 0.0)
        cur_rate = current.get("events_per_s", 0.0)
        if base_rate <= 0:
            continue
        ratio = cur_rate / base_rate
        if ratio < 1.0 - tolerance:
            failures.append(
                f"{name}: {cur_rate:,.0f} events/s is "
                f"{(1.0 - ratio) * 100:.1f}% below baseline "
                f"{base_rate:,.0f} (tolerance {tolerance * 100:.0f}%)"
            )
    return failures


# -- bench history (per-commit trajectory) ----------------------------------------

#: One JSON object per line; the file accumulates across commits so the
#: events/sec trajectory can be plotted over time (ROADMAP "Bench history").
HISTORY_SCHEMA = "repro.bench.history/1"
DEFAULT_HISTORY_PATH = Path("results/bench_history.jsonl")


def _git_sha() -> str:
    """Short SHA of HEAD, or ``"unknown"`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def history_entry(kernel: dict, harness: dict) -> dict:
    """Condense one bench invocation into a history snapshot."""
    cm = harness["chaos_matrix"]
    return {
        "schema": HISTORY_SCHEMA,
        "recorded_at": utc_stamp(),
        "repro_version": kernel["repro_version"],
        "git_sha": _git_sha(),
        "quick": bool(kernel.get("quick")),
        "python": kernel["python"],
        "kernel_backend": kernel.get("kernel_backend", "pure-python"),
        "events_per_s": {
            name: b["events_per_s"] for name, b in kernel["benchmarks"].items()
        },
        "metrics_overhead_frac": kernel.get("metrics_overhead", {}).get(
            "overhead_frac"
        ),
        "chaos_jobs": cm["jobs"],
        "chaos_speedup": cm["speedup"],
    }


def read_history(path: Path = DEFAULT_HISTORY_PATH) -> List[dict]:
    """Parse the history file; unparseable lines (e.g. a truncated tail
    from a killed run) are skipped rather than fatal."""
    if not path.exists():
        return []
    entries: List[dict] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and doc.get("schema") == HISTORY_SCHEMA:
            entries.append(doc)
    return entries


def append_history(
    kernel: dict, harness: dict, path: Path = DEFAULT_HISTORY_PATH
) -> dict:
    """Append this invocation's snapshot, keyed on (version, sha, quick,
    kernel backend).

    Re-running bench on the same commit replaces that commit's entry
    instead of duplicating it, so the file stays one line per commit —
    except that pure-python and compiled runs of the same commit coexist
    as a pair (that pairing *is* the compiled-build trajectory).
    """
    entry = history_entry(kernel, harness)
    key = (
        entry["repro_version"],
        entry["git_sha"],
        entry["quick"],
        entry["kernel_backend"],
    )
    entries = [
        e
        for e in read_history(path)
        if (
            e.get("repro_version"),
            e.get("git_sha"),
            e.get("quick"),
            e.get("kernel_backend", "pure-python"),
        )
        != key
    ]
    entries.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries),
        encoding="utf-8",
    )
    return entry


def render_history(entries: List[dict]) -> str:
    """Terminal table of the events/sec trajectory."""
    if not entries:
        return "bench history: empty (run `repro bench` to record a snapshot)"
    bench_names = sorted({n for e in entries for n in e.get("events_per_s", {})})
    header = (
        f"{'recorded_at (UTC)':<21}{'version':<10}{'sha':<9}{'quick':<7}"
        + "".join(f"{name + ' ev/s':>20}" for name in bench_names)
        + f"{'chaos speedup':>15}"
    )
    lines = [
        f"bench history — {len(entries)} "
        f"entr{'y' if len(entries) == 1 else 'ies'}",
        "",
        header,
    ]
    for e in entries:
        rates = e.get("events_per_s", {})
        lines.append(
            f"{e.get('recorded_at', '?'):<21}"
            f"{e.get('repro_version', '?'):<10}"
            f"{e.get('git_sha', '?'):<9}"
            f"{'yes' if e.get('quick') else 'no':<7}"
            + "".join(
                f"{rates[name]:>20,.0f}" if name in rates else f"{'—':>20}"
                for name in bench_names
            )
            + f"{e.get('chaos_speedup', 0.0):>14.2f}x"
        )
    return "\n".join(lines)


def render_summary(kernel: dict, harness: dict) -> str:
    """Terminal summary of one bench invocation."""
    lines = [
        f"repro bench — v{kernel['repro_version']}, "
        f"python {kernel['python']}, {kernel['cpu_count']} cpu, "
        f"{kernel.get('kernel_backend', 'pure-python')} kernel"
        + (" (quick)" if kernel.get("quick") else ""),
        "",
    ]
    for name, b in kernel["benchmarks"].items():
        lines.append(
            f"  kernel/{name:<14} {b['events_per_s']:>12,.0f} events/s "
            f"({b['events']} events, best of {b['repeats']}: "
            f"{b['best_wall_s'] * 1000:.1f} ms)"
        )
    mo = kernel.get("metrics_overhead")
    if mo:
        lines.append(
            f"  kernel/metrics_overhead  {mo['overhead_frac'] * 100:+.1f}% "
            f"active vs null registry "
            f"(tolerance {mo['tolerance'] * 100:.0f}%)"
        )
    cm = harness["chaos_matrix"]
    lines += [
        "",
        f"  harness/chaos     serial {cm['serial_wall_s']:.2f}s, "
        f"jobs={cm['jobs']} {cm['parallel_wall_s']:.2f}s "
        f"({cm['speedup']:.2f}x, byte-identical: "
        f"{'yes' if cm['byte_identical'] else 'NO'})",
    ]
    return "\n".join(lines)
