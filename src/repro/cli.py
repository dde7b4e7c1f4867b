"""Command-line interface: regenerate the paper's figures from a shell.

Installed as the ``repro`` console script (also ``python -m repro``)::

    repro fig9                      # Figure 9 (5 consumers, buffer 25)
    repro fig10 --counts 2,5,10    # Figure 10 (consumer scaling)
    repro fig11 --sizes 25,50,100  # Figure 11 (buffer sweep)
    repro profile                   # Figures 3 & 4 (the §III study)
    repro accounting                # §VI-C wakeup accounting scalars
    repro sanity                    # the paper's §III-C1 rig checks
    repro chaos                     # fault-injection resilience matrix
    repro chaos --baselines         # ... plus Mutex/Sem/BP/SPBP degradation
    repro chaos --jobs 4            # dispatch runs across 4 worker processes
    repro chaos --scenarios core-kill,cascade  # just these scenarios
    repro trace record -o t.json    # record an event trace (Perfetto JSON)
    repro trace record --stream -o t.jsonl  # spill-to-disk JSONL (full fidelity)
    repro trace diff a.jsonl b.jsonl  # structural diff: slots/latching/energy
    repro trace report t.jsonl      # terminal flamegraph (self time, joules)
    repro trace report t.jsonl --from 0.3 --to 0.6  # window the report
    repro trace bless               # regenerate the golden trace matrix
    repro trace --smoke             # CI gate: validate + reconcile a trace
    repro metrics snapshot          # OpenMetrics snapshot + reconciliation
    repro metrics diff a.prom b.prom   # exit 1 on drift — the CI gate
    repro metrics profile           # deterministic kernel self-profile
    repro metrics bless             # regenerate the golden metrics snapshot
    repro metrics overhead          # exit 1 if a live registry costs > 15 %

Common options (figures): ``--duration``, ``--replicates``, ``--seed``,
``--csv FILE`` (raw per-run metrics), ``--out FILE`` (the text figure),
``--jobs N`` (parallel run dispatch; also honours ``$REPRO_JOBS``).

Wall time, set-up time and memory of the figure-level workloads are
measured by ``python bench/run.py``, not by this CLI.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.harness import (
    PIPELINE_IMPLEMENTATIONS,
    PIPELINE_TOPOLOGIES,
    StandardParams,
    WorkerCrashError,
    run_buffer_sweep,
    run_consumer_scaling,
    run_multi_comparison,
    run_pipeline_study,
    run_profile_study,
    run_sanity_checks,
    run_single_pair,
    run_wakeup_accounting,
    runs_to_csv,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--duration", type=float, default=3.0, help="simulated seconds per run"
    )
    parser.add_argument(
        "--replicates", type=int, default=3, help="replicates per cell"
    )
    parser.add_argument("--seed", type=int, default=2014, help="experiment seed")
    parser.add_argument(
        "--rate", type=float, default=2200.0, help="mean items/s per producer"
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="also write the text figure here"
    )
    parser.add_argument(
        "--csv", type=Path, default=None, help="export raw per-run metrics as CSV"
    )


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for run dispatch (default: $REPRO_JOBS or 1; "
        "output is byte-identical for any value)",
    )


def _params(args: argparse.Namespace) -> StandardParams:
    return StandardParams(
        duration_s=args.duration,
        replicates=args.replicates,
        seed=args.seed,
        mean_rate_per_s=args.rate,
    )


def _ints(text: str) -> List[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text!r}")


def _emit(args: argparse.Namespace, text: str, runs=None) -> None:
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n", encoding="utf-8")
    if args.csv is not None and runs is not None:
        runs_to_csv(runs, args.csv)


def _write_metrics_artifacts(directory: Path, artifacts, info=sys.stdout) -> None:
    """Write one ``<scenario>.prom`` OpenMetrics file per collected
    snapshot (the per-scenario artifacts CI uploads)."""
    directory.mkdir(parents=True, exist_ok=True)
    for name in sorted(artifacts):
        path = directory / f"{name}.prom"
        path.write_text(artifacts[name], encoding="utf-8")
    print(
        f"metrics: wrote {len(artifacts)} OpenMetrics artifact(s) to {directory}",
        file=info,
    )


# -- figure commands -------------------------------------------------------------


def cmd_profile(args: argparse.Namespace) -> int:
    result = run_profile_study(_params(args), jobs=args.jobs)
    _emit(args, result.render(), result.runs)
    return 0


def cmd_fig9(args: argparse.Namespace) -> int:
    result = run_multi_comparison(
        _params(args),
        n_consumers=args.consumers,
        buffer_size=args.buffer,
        jobs=args.jobs,
    )
    _emit(args, result.render(), result.runs)
    return 0


def cmd_fig10(args: argparse.Namespace) -> int:
    result = run_consumer_scaling(_params(args), counts=args.counts, jobs=args.jobs)
    runs = [r for cell in result.cells.values() for r in cell.runs]
    _emit(args, result.render(), runs)
    return 0


def cmd_fig11(args: argparse.Namespace) -> int:
    result = run_buffer_sweep(_params(args), sizes=args.sizes, jobs=args.jobs)
    runs = [r for cell in result.cells.values() for r in cell.runs]
    _emit(args, result.render(), runs)
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    params = _params(args)
    if args.quick:
        params = StandardParams(
            duration_s=2.0,
            replicates=1,
            seed=args.seed,
            mean_rate_per_s=args.rate,
        )
    result = run_pipeline_study(
        params,
        jobs=args.jobs,
        implementations=tuple(args.impls),
        topologies=tuple(args.topologies),
    )
    _emit(args, result.render(), result.runs)
    if args.metrics_dir is not None:
        _pipeline_metrics_pass(args, params)
    return 0


def _pipeline_metrics_pass(args: argparse.Namespace, params) -> None:
    """Re-run each pipeline chaos scenario whose topology is in the
    study with a live registry attached and drop per-scenario
    OpenMetrics artifacts next to the report."""
    from repro.faults import DEFAULT_SCENARIOS
    from repro.faults.chaos import run_scenario
    from repro.telemetry import MetricsRegistry, to_openmetrics

    wanted = set(args.topologies)
    artifacts = {}
    for scenario in DEFAULT_SCENARIOS:
        if scenario.topology not in wanted:
            continue
        registry = MetricsRegistry(
            const_labels={"impl": "PBPL", "scenario": scenario.name}
        )
        # Pipeline scenarios size themselves from the topology's stage
        # DAG; the n_consumers knob only shapes non-topology runs.
        run_scenario(scenario, params, n_consumers=4, metrics=registry)
        artifacts[scenario.name] = to_openmetrics(registry.snapshot())
    _write_metrics_artifacts(args.metrics_dir, artifacts)


def cmd_accounting(args: argparse.Namespace) -> int:
    result = run_wakeup_accounting(
        _params(args), buffer_size=args.buffer, jobs=args.jobs
    )
    _emit(args, result.render())
    return 0


def cmd_sanity(args: argparse.Namespace) -> int:
    params = _params(args)
    runs = [
        run_single_pair(name, params, rep)
        for name in ("Mutex", "BP", "SPBP")
        for rep in range(params.replicates)
    ]
    report = run_sanity_checks(runs, params)
    _emit(args, report.to_json() if args.json else report.render(), runs)
    if not report.all_passed:
        for check in report.failures:
            print(f"sanity: FAIL {check.name}: {check.detail}", file=sys.stderr)
        return 1
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the fault-injection scenario matrix and print the resilience
    report; exit non-zero if any scenario leaked items or broke the
    latency bound without shedding."""
    from repro.faults import DEFAULT_SCENARIOS, SMOKE_SCENARIOS, run_chaos
    from repro.faults.chaos import BASELINE_IMPLS

    scenarios = SMOKE_SCENARIOS if args.smoke else DEFAULT_SCENARIOS
    if args.scenarios:
        by_name = {s.name: s for s in DEFAULT_SCENARIOS}
        unknown = [n for n in args.scenarios if n not in by_name]
        if unknown:
            print(
                f"chaos: unknown scenario(s): {', '.join(unknown)} "
                f"(choose from {', '.join(by_name)})",
                file=sys.stderr,
            )
            return 2
        scenarios = tuple(by_name[n] for n in args.scenarios)
    report = run_chaos(
        scenarios,
        seed=args.seed,
        duration_s=args.duration,
        n_consumers=args.consumers,
        baseline_impls=BASELINE_IMPLS if args.baselines else (),
        progress=(None if args.json else (lambda m: print(m, flush=True))),
        jobs=args.jobs,
        collect_metrics=args.metrics_dir is not None,
    )
    _emit(args, report.to_json() if args.json else report.render())
    if args.metrics_dir is not None:
        _write_metrics_artifacts(
            args.metrics_dir,
            report.metrics_artifacts,
            info=sys.stderr if args.json else sys.stdout,
        )
    rc = 0
    if not report.passed:
        bad = [r.scenario for r in report.results if r.verdict not in ("OK", "SHED")]
        print(f"chaos: resilience violations in: {', '.join(bad)}", file=sys.stderr)
        rc = 1
    if args.sanitize:
        impls = ("PBPL",) + (BASELINE_IMPLS if args.baselines else ())
        rc = max(rc, _chaos_sanitize_pass(scenarios, impls, args, report))
    return rc


def _chaos_sanitize_pass(scenarios, impls, args: argparse.Namespace, report) -> int:
    """Re-run each scenario × implementation serially under the
    simultaneity sanitizer.

    A separate pass on purpose: the sanitizing environment records call
    sites per scheduled event, which is too slow for the scored matrix
    and is jobs-agnostic (probes are per-process state). Each sanitized
    run must also score exactly what its plain run in ``report`` did:
    its loop never advances the clock in place, so this checks
    ``Environment.try_advance`` end to end.
    """
    import json

    from repro.analysis.sanitizer import sanitize_scenario
    from repro.harness.params import StandardParams

    params = StandardParams(duration_s=args.duration, seed=args.seed)
    info = sys.stderr if args.json else sys.stdout
    races = mismatches = 0
    # The report holds each scenario's PBPL result in ``results`` and
    # its baseline results, in ``impls`` order, in ``baselines``.
    pbpl_runs, baseline_runs = iter(report.results), iter(report.baselines)
    for scenario in scenarios:
        for impl in impls:
            plain = next(pbpl_runs if impl == "PBPL" else baseline_runs)
            label = scenario.name if impl == "PBPL" else f"{scenario.name} × {impl}"
            result = sanitize_scenario(
                scenario, params, n_consumers=args.consumers, impl=impl
            )
            if json.dumps(result.scored.to_dict(), sort_keys=True) != json.dumps(
                plain.to_dict(), sort_keys=True
            ):
                mismatches += 1
                print(
                    f"sanitize: {label}: scored differently from the plain run",
                    file=sys.stderr,
                )
            status = "clean" if result.ok else f"{len(result.races)} RACE(S)"
            print(
                f"sanitize: {label}: {status} "
                f"({result.events_seen} events, "
                f"{result.contended_groups} same-timestamp groups)",
                file=info,
                flush=True,
            )
            if not result.ok:
                races += len(result.races)
                for race in result.races:
                    print(race.render(), file=sys.stderr)
    if races:
        print(f"chaos --sanitize: {races} simultaneity race(s)", file=sys.stderr)
    return 1 if races or mismatches else 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis of the source tree: determinism (DET, including
    the cross-function taint pass), scheduling-tie hazards (SCHED),
    layer boundaries (LAYER, direct and transitive), float order
    (FLOAT), kernel purity (PURE) and registered trace and metric
    names (TRACE, METRIC). ``--write-names`` regenerates the two name
    tables instead.
    Exit 0 = clean, 1 = unsuppressed findings, 2 = unreadable input."""
    from repro.analysis.engine import run

    return run([Path(p) for p in args.paths], args.format, args.write_names)


def cmd_all(args: argparse.Namespace) -> int:
    """Regenerate the whole evaluation as one markdown report."""
    from repro.harness.report import build_full_report

    report = build_full_report(_params(args), progress=lambda m: print(m, flush=True))
    text = report.render()
    out = args.out or Path("REPORT.md")
    out.write_text(text + "\n", encoding="utf-8")
    print(f"\nwrote {out} ({report.total_runtime_s:.0f}s of experiments)")
    return 0


# -- trace commands ----------------------------------------------------------------


def _check_writable(path: Path) -> Optional[str]:
    """Why ``path`` cannot be written, or None if it can.

    Called *before* a recording run, so a typo'd output directory fails
    in milliseconds instead of after the whole simulation.
    """
    import os

    parent = path.parent if str(path.parent) else Path(".")
    if not parent.is_dir():
        return f"output directory {parent} does not exist"
    if not os.access(parent, os.W_OK):
        return f"output directory {parent} is not writable"
    if path.exists() and not os.access(path, os.W_OK):
        return f"output file {path} is not writable"
    return None


def cmd_trace_record(args: argparse.Namespace) -> int:
    """Run one implementation/scenario with the event tracer attached
    and export the trace.

    Default output is Chrome/Perfetto JSON; ``--stream`` switches to the
    incremental JSONL format (written during the run, before ring
    eviction — the full-fidelity path for long runs). ``-o -`` emits the
    trace to stdout (run summary moves to stderr so pipes stay clean).
    """
    from repro.trace import (
        StreamingTraceWriter,
        TraceQuery,
        record_run,
        reconcile,
        to_chrome_json,
        to_text_timeline,
        trace_energy_j,
    )

    to_stdout = str(args.output) == "-"
    if not to_stdout:
        problem = _check_writable(args.output)
        if problem is None and args.text is not None:
            problem = _check_writable(args.text)
        if problem is not None:
            print(f"trace record: {problem}", file=sys.stderr)
            return 2
    info = sys.stderr if to_stdout else sys.stdout
    if args.rotate_mb is not None and not args.stream:
        print(
            "trace record: --rotate-mb only applies to --stream output",
            file=sys.stderr,
        )
        return 2

    writer = None
    if args.stream:
        meta = dict(
            impl=args.impl,
            scenario=args.scenario,
            seed=args.seed,
            duration_s=args.duration,
            n_consumers=args.consumers,
            capacity=args.capacity,
        )
        if args.rotate_mb is not None and to_stdout:
            print(
                "trace record: --rotate-mb needs a file output "
                "(rotation renames the active file)",
                file=sys.stderr,
            )
            return 2
        writer = StreamingTraceWriter(
            sys.stdout if to_stdout else args.output,
            meta=meta,
            rotate_bytes=(
                int(args.rotate_mb * 1024 * 1024)
                if args.rotate_mb is not None
                else None
            ),
        )
    run = record_run(
        args.impl,
        args.scenario,
        duration_s=args.duration,
        n_consumers=args.consumers,
        seed=args.seed,
        capacity=args.capacity,
        stream=writer,
    )
    query = TraceQuery(run.tracer)
    if writer is not None:
        streamed = writer.events_written
        writer.close(
            dropped=run.tracer.dropped_events,
            ledger_total_j=run.ledger_total_j,
        )
    elif to_stdout:
        print(to_chrome_json(run.tracer))
    else:
        args.output.write_text(to_chrome_json(run.tracer), encoding="utf-8")
    if args.text is not None:
        args.text.write_text(to_text_timeline(run.tracer), encoding="utf-8")
    diff = reconcile(query, run.ledger_total_j)
    print(
        f"{run.impl} × {run.scenario}: {len(run.tracer.events)} events "
        f"on {len(run.tracer.tracks())} tracks "
        f"({run.tracer.dropped_events} dropped), "
        f"{run.duration_s:g}s simulated",
        file=info,
    )
    print(
        f"energy: ledger {run.ledger_total_j:.6f} J, "
        f"trace {trace_energy_j(query):.6f} J (diff {diff:.2e})",
        file=info,
    )
    if writer is not None:
        where = "stdout" if to_stdout else str(args.output)
        print(
            f"streamed {streamed} events to {where} (JSONL, full fidelity "
            f"even past the {args.capacity}-event ring)",
            file=info,
        )
        if writer.segments_rotated:
            print(
                f"rotated {writer.segments_rotated} gzip segment(s) "
                f"({where}.1.gz ...); `repro trace` reads the sequence "
                f"transparently",
                file=info,
            )
    elif not to_stdout:
        print(
            f"wrote {args.output} — open in https://ui.perfetto.dev "
            f"or chrome://tracing",
            file=info,
        )
    if args.text is not None:
        print(f"wrote {args.text}", file=info)
    return 0


#: The primary golden-trace recording spec (kept by name for backward
#: compatibility; one entry of :data:`GOLDEN_SPECS`). Short enough to
#: run in seconds, long enough to exercise latching, resizing and both
#: cores.
GOLDEN_SPEC = dict(
    impl="PBPL",
    scenario="webserver",
    duration_s=0.3,
    n_consumers=3,
    seed=2014,
)

#: The golden-trace matrix: what `repro trace bless` records and what
#: the CI trace-regression job re-records to diff against. Beyond the
#: PBPL webserver smoke, a chaos scenario (fault spans, degradation
#: under stress) and a baseline implementation (power listener + fault
#: timeline only) are pinned, so drift in any of the three surfaces.
GOLDEN_SPECS = {
    "pbpl_smoke": GOLDEN_SPEC,
    "chaos_combined": dict(
        impl="PBPL",
        scenario="combined",
        duration_s=0.3,
        n_consumers=3,
        seed=2014,
    ),
    "mutex_smoke": dict(
        impl="Mutex",
        scenario="webserver",
        duration_s=0.3,
        n_consumers=3,
        seed=2014,
    ),
    "pipeline_telemetry": dict(
        impl="PBPL",
        scenario="pipeline-clean",
        duration_s=0.3,
        n_consumers=3,  # overridden by the topology's consumer stages
        seed=2014,
    ),
    "pipeline_burst": dict(
        impl="PBPL",
        scenario="pipeline-burst",
        duration_s=0.3,
        n_consumers=3,  # overridden by the topology's consumer stages
        seed=2014,
    ),
}

#: Where the blessed golden traces live in the repository.
GOLDEN_DIR = Path("results/golden")


def golden_path(name: str, directory: Path = GOLDEN_DIR) -> Path:
    return directory / f"{name}.trace.jsonl"


#: Backward-compatible alias for the primary golden's location.
GOLDEN_TRACE_PATH = golden_path("pbpl_smoke")


def _record_golden(output: Path, spec: Optional[dict] = None) -> None:
    """Record one golden spec's run as streaming JSONL at ``output``."""
    from repro.trace import StreamingTraceWriter, record_run

    spec = spec or GOLDEN_SPEC
    writer = StreamingTraceWriter(output, meta=dict(spec))
    run = record_run(
        spec["impl"],
        spec["scenario"],
        duration_s=spec["duration_s"],
        n_consumers=spec["n_consumers"],
        seed=spec["seed"],
        stream=writer,
    )
    writer.close(
        dropped=run.tracer.dropped_events, ledger_total_j=run.ledger_total_j
    )


def cmd_trace_bless(args: argparse.Namespace) -> int:
    """Regenerate the golden trace(s) the CI regression gate diffs
    against.

    Run after an *intentional* behaviour change, commit the result, and
    explain the drift in the PR — that is the whole review story the
    diff gate enforces. Default blesses the full matrix into
    ``results/golden/``; ``--name`` picks one golden, and ``-o``
    (single golden only) or ``--out-dir`` redirect the output — the CI
    job uses ``--out-dir`` to record fresh traces next to the committed
    ones."""
    names = list(GOLDEN_SPECS) if args.name == "all" else [args.name]
    if args.output is not None and len(names) != 1:
        print(
            "trace bless: -o/--output needs --name NAME (a single golden); "
            "use --out-dir to redirect the whole matrix",
            file=sys.stderr,
        )
        return 2
    for name in names:
        out = (
            args.output
            if args.output is not None
            else golden_path(name, args.out_dir)
        )
        problem = _check_writable(out)
        if problem is not None:
            print(f"trace bless: {problem}", file=sys.stderr)
            return 2
        _record_golden(out, GOLDEN_SPECS[name])
        spec = ", ".join(f"{k}={v}" for k, v in GOLDEN_SPECS[name].items())
        print(f"blessed {out} ({spec})")
    print("commit these files; `repro trace diff` gates CI against them")
    return 0


def _load_jsonl_events(path: Path, require_footer: bool = False):
    """Events from a JSONL trace; unreadable input exits 2 cleanly.

    ``require_footer`` additionally treats a trace whose footer record
    is missing (the writing run was killed after its last complete
    event line) as truncated.
    """
    from repro.trace import TraceReader, TraceSchemaError, TraceTruncatedError

    try:
        reader = TraceReader(path)
        events = reader.read()
    except FileNotFoundError:
        print(f"trace: {path}: no such file", file=sys.stderr)
        raise SystemExit(2) from None
    except TraceTruncatedError as exc:
        print(f"trace: truncated trace: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    except TraceSchemaError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if require_footer and reader.footer is None:
        print(
            f"trace: {path}: truncated trace — no footer record (was the "
            f"writing run killed?)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return events, reader


def cmd_trace_diff(args: argparse.Namespace) -> int:
    """Structurally diff two JSONL traces; non-zero exit on drift.

    Reports which consumers lost/gained latching, which reserved slots
    appeared/disappeared, and how energy moved between phases (deltas
    above ``--threshold-j``). Exit 0 = no drift, 1 = drift (the CI
    gate), 2 = unreadable input."""
    import json as json_mod

    from repro.trace import diff_events

    events_a, _ = _load_jsonl_events(args.trace_a, require_footer=True)
    events_b, _ = _load_jsonl_events(args.trace_b, require_footer=True)
    diff = diff_events(
        events_a, events_b, energy_threshold_j=args.threshold_j
    )
    if args.json:
        print(json_mod.dumps(diff.to_dict(), sort_keys=True, indent=2))
    else:
        print(diff.render())
    if not diff.is_empty and not args.json:
        print(
            "trace diff: drift detected — if intentional, re-bless the "
            "golden (`repro trace bless`) and commit it",
            file=sys.stderr,
        )
    return 0 if diff.is_empty else 1


def _window_events(events, from_s: Optional[float], to_s: Optional[float]):
    """Clip a trace to ``[from_s, to_s)``.

    Thin alias for :func:`repro.trace.intervals.clip_events` — the same
    interval arithmetic windowed metrics aggregation uses, so the trace
    report and the telemetry windows can never disagree about edges.
    """
    from repro.trace import clip_events

    return clip_events(events, from_s, to_s)


def cmd_trace_report(args: argparse.Namespace) -> int:
    """Render the per-track self-time/joules flamegraph of a JSONL
    trace in the terminal — no browser, no Perfetto. ``--from``/``--to``
    restrict the report to a time window (seconds)."""
    from repro.trace import render_report

    if (
        args.from_s is not None
        and args.to_s is not None
        and args.to_s <= args.from_s
    ):
        print("trace report: --to must be after --from", file=sys.stderr)
        return 2
    events, reader = _load_jsonl_events(args.file)
    meta = reader.meta
    title_bits = [
        str(meta.get("impl", "?")),
        "×",
        str(meta.get("scenario", "?")),
    ]
    if "duration_s" in meta:
        title_bits.append(f"{meta['duration_s']:g}s")
    windowed = args.from_s is not None or args.to_s is not None
    if windowed:
        events = _window_events(events, args.from_s, args.to_s)
        lo = "0" if args.from_s is None else f"{args.from_s:g}"
        hi = "end" if args.to_s is None else f"{args.to_s:g}"
        title_bits.append(f"[{lo}, {hi})s")
    title = f"trace report — {' '.join(title_bits)}, {len(events)} events"
    text = render_report(events, top=args.top, title=title)
    if not windowed and reader.footer and "ledger_total_j" in reader.footer:
        text += f"\n\nledger total: {reader.footer['ledger_total_j']:.6f} J"
    _emit_simple(args, text)
    return 0


def _emit_simple(args: argparse.Namespace, text: str) -> None:
    print(text)
    if getattr(args, "out", None) is not None:
        args.out.write_text(text + "\n", encoding="utf-8")


#: Reconciliation tolerance the smoke gate holds trace energy to.
SMOKE_ENERGY_TOL_J = 1e-9


def cmd_trace_smoke(args: argparse.Namespace) -> int:
    """CI gate: record short traces, validate the Chrome JSON against
    the trace-event schema, and reconcile trace energy with the ledger."""
    from repro.trace import (
        TraceQuery,
        record_run,
        reconcile,
        to_chrome_json,
        validate_chrome_trace,
    )

    failures: List[str] = []
    artifact_written = False
    for impl, scenario in (("PBPL", "webserver"), ("SPBP", "lost-signals")):
        run = record_run(impl, scenario, duration_s=0.5)
        label = f"{impl} × {scenario}"
        payload = to_chrome_json(run.tracer)
        errors = validate_chrome_trace(payload)
        diff = reconcile(TraceQuery(run.tracer), run.ledger_total_j)
        if not run.tracer.events:
            failures.append(f"{label}: empty trace")
        if run.tracer.dropped_events:
            failures.append(f"{label}: {run.tracer.dropped_events} events dropped")
        failures.extend(f"{label}: {e}" for e in errors)
        if diff > SMOKE_ENERGY_TOL_J:
            failures.append(
                f"{label}: energy reconciliation off by {diff:.3e} J "
                f"(tolerance {SMOKE_ENERGY_TOL_J:g})"
            )
        print(
            f"trace smoke: {label} — {len(run.tracer.events)} events, "
            f"{len(errors)} schema errors, energy diff {diff:.2e} J"
        )
        if not artifact_written:
            args.output.write_text(payload, encoding="utf-8")
            print(f"trace smoke: artifact {args.output}")
            artifact_written = True
    if failures:
        for f in failures:
            print(f"trace smoke: FAIL {f}", file=sys.stderr)
        return 1
    print("trace smoke: OK")
    return 0


# -- metrics commands --------------------------------------------------------------

#: Where the blessed golden metrics snapshot lives (diffed by the CI
#: ``metrics-smoke`` job; re-bless with ``repro metrics bless``).
def metrics_golden_path(directory: Path = GOLDEN_DIR) -> Path:
    return directory / "pbpl_smoke.metrics.prom"


def _metrics_record(args: argparse.Namespace, profiler=None):
    """Run the requested impl × scenario with a live registry attached;
    returns ``(run, registry)``."""
    from repro.telemetry import MetricsRegistry
    from repro.trace import record_run

    registry = MetricsRegistry(
        const_labels={"impl": args.impl, "scenario": args.scenario}
    )
    run = record_run(
        args.impl,
        args.scenario,
        duration_s=args.duration,
        n_consumers=args.consumers,
        seed=args.seed,
        metrics=registry,
        profiler=profiler,
    )
    return run, registry


def _reconcile_run(run, snapshot) -> List:
    """The registry's live folds held to the run's ground truth: joules
    to the power ledger, core wakeups to the consumer core's own count.
    (Every other series is a view of a model count, equal by
    construction.)"""
    from repro.harness.runner import CONSUMER_CORE
    from repro.telemetry import reconcile_core_wakeups, reconcile_energy

    return reconcile_energy(snapshot, run.ledger_total_j) + reconcile_core_wakeups(
        snapshot, CONSUMER_CORE, run.consumer_core_wakeups
    )


def cmd_metrics_snapshot(args: argparse.Namespace) -> int:
    """Run one impl × scenario with the registry attached, export the
    snapshot as OpenMetrics text, and reconcile it against the run's
    ground truth — exit 1 when energy drifts off the ledger or core
    wakeups off the core's own count."""
    from repro.telemetry import render_checks, to_openmetrics

    to_stdout = str(args.output) == "-"
    if not to_stdout:
        problem = _check_writable(args.output)
        if problem is not None:
            print(f"metrics snapshot: {problem}", file=sys.stderr)
            return 2
    info = sys.stderr if to_stdout else sys.stdout
    run, registry = _metrics_record(args)
    snapshot = registry.snapshot()
    payload = to_openmetrics(snapshot)
    if to_stdout:
        sys.stdout.write(payload)
    else:
        args.output.write_text(payload, encoding="utf-8")
    checks = _reconcile_run(run, snapshot)
    print(
        f"{run.impl} × {run.scenario}: {len(snapshot.families)} metric "
        f"families, {sum(len(s) for _, _, _, s in snapshot.families)} series, "
        f"{run.duration_s:g}s simulated",
        file=info,
    )
    print(render_checks(checks), file=info)
    if not to_stdout:
        print(f"wrote {args.output}", file=info)
    bad = [c for c in checks if not c.ok]
    if bad:
        for c in bad:
            print(f"metrics snapshot: FAIL {c.name}", file=sys.stderr)
        return 1
    return 0


def cmd_metrics_diff(args: argparse.Namespace) -> int:
    """Compare two OpenMetrics snapshots sample-by-sample; exit 1 on
    drift above the thresholds (the CI metrics gate), 2 on unreadable
    input."""
    from repro.telemetry import MetricsParseError, diff_openmetrics

    texts = []
    for path in (args.prom_a, args.prom_b):
        try:
            texts.append(path.read_text(encoding="utf-8"))
        except OSError as exc:
            print(f"metrics diff: {path}: {exc}", file=sys.stderr)
            return 2
    try:
        diff = diff_openmetrics(
            texts[0],
            texts[1],
            rel_tol=args.threshold_rel,
            abs_tol=args.threshold_abs,
        )
    except MetricsParseError as exc:
        print(f"metrics diff: {exc}", file=sys.stderr)
        return 2
    print(diff.render())
    if diff.drifted:
        print(
            "metrics diff: drift detected — if intentional, re-bless the "
            "golden (`repro metrics bless`) and commit it",
            file=sys.stderr,
        )
    return 1 if diff.drifted else 0


def cmd_metrics_profile(args: argparse.Namespace) -> int:
    """Drive the run through the self-profiling event loop and print the
    top-N hot-spot table (dispatches + measured self-time per event type
    and handler). Dispatch counts are deterministic; self-times are
    wall-clock and vary run to run."""
    from repro.telemetry import KernelProfiler

    profiler = KernelProfiler()
    run, _registry = _metrics_record(args, profiler=profiler)
    report = profiler.report()
    title = (
        f"metrics profile — {run.impl} × {run.scenario}, "
        f"{run.duration_s:g}s simulated"
    )
    _emit_simple(args, title + "\n\n" + report.render(top=args.top))
    return 0


def cmd_metrics_bless(args: argparse.Namespace) -> int:
    """Regenerate the golden OpenMetrics snapshot the CI metrics gate
    diffs against (the PBPL webserver smoke — same spec as the primary
    golden trace). Commit the result after intentional drift."""
    from repro.telemetry import MetricsRegistry, to_openmetrics
    from repro.trace import record_run

    spec = GOLDEN_SPEC
    out = args.output or metrics_golden_path(args.out_dir)
    problem = _check_writable(out)
    if problem is not None:
        print(f"metrics bless: {problem}", file=sys.stderr)
        return 2
    registry = MetricsRegistry(
        const_labels={"impl": spec["impl"], "scenario": spec["scenario"]}
    )
    record_run(
        spec["impl"],
        spec["scenario"],
        duration_s=spec["duration_s"],
        n_consumers=spec["n_consumers"],
        seed=spec["seed"],
        metrics=registry,
    )
    out.write_text(to_openmetrics(registry.snapshot()), encoding="utf-8")
    desc = ", ".join(f"{k}={v}" for k, v in spec.items())
    print(f"blessed {out} ({desc})")
    print("commit this file; `repro metrics diff` gates CI against it")
    return 0


def cmd_metrics_overhead(args: argparse.Namespace) -> int:
    """Time the PBPL smoke with a live registry against the disabled
    default, paired and interleaved; exit 1 when the median slowdown
    exceeds the tolerance or the two runs process different events."""
    from repro.harness.overhead import measure_metrics_overhead

    m = measure_metrics_overhead()
    print(
        f"metrics overhead: {m['overhead_frac']:+.1%} active vs null registry "
        f"(median of {m['pairs']} pairs; {m['null_events']} events null, "
        f"{m['active_events']} active; tolerance {m['tolerance']:.0%})"
    )
    if m["null_events"] != m["active_events"]:
        print(
            "metrics overhead: FAIL the live registry changed the event "
            "count, so the ratio measures a different workload",
            file=sys.stderr,
        )
        return 1
    if m["overhead_frac"] > m["tolerance"]:
        print(
            f"metrics overhead: FAIL {m['overhead_frac']:+.1%} exceeds the "
            f"{m['tolerance']:.0%} tolerance",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_trace_default(args: argparse.Namespace) -> int:
    """``repro trace`` with no subcommand: ``--smoke`` runs the CI gate;
    anything else is a usage error."""
    if args.smoke:
        return cmd_trace_smoke(args)
    print(
        "repro trace: choose a subcommand (record/diff/report/bless) "
        "or pass --smoke",
        file=sys.stderr,
    )
    return 2


# -- parser assembly --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Power-efficient Multiple Producer-Consumer' "
        "(IPDPS 2014) — figures, sanity checks, chaos, traces, metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="Figures 3 & 4: the §III study")
    _add_common(p)
    _add_jobs(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("fig9", help="Figure 9: 4 implementations, N consumers")
    _add_common(p)
    _add_jobs(p)
    p.add_argument("--consumers", type=int, default=5)
    p.add_argument("--buffer", type=int, default=25)
    p.set_defaults(func=cmd_fig9)

    p = sub.add_parser("fig10", help="Figure 10: consumer-count sweep")
    _add_common(p)
    _add_jobs(p)
    p.add_argument("--counts", type=_ints, default=[2, 5, 10])
    p.set_defaults(func=cmd_fig10)

    p = sub.add_parser("fig11", help="Figure 11: buffer-size sweep")
    _add_common(p)
    _add_jobs(p)
    p.add_argument("--sizes", type=_ints, default=[25, 50, 100])
    p.set_defaults(func=cmd_fig11)

    p = sub.add_parser(
        "pipeline", help="stage-DAG pipelines: PBPL vs baselines end-to-end"
    )
    _add_common(p)
    _add_jobs(p)
    p.add_argument(
        "--quick",
        action="store_true",
        help="one short replicate per cell (2 s) for CI and smoke runs",
    )
    p.add_argument(
        "--impls",
        type=lambda s: [x.strip() for x in s.split(",") if x.strip()],
        default=list(PIPELINE_IMPLEMENTATIONS),
        help="comma-separated implementations (default: Mutex,Sem,BP,PBPL)",
    )
    p.add_argument(
        "--topologies",
        type=lambda s: [x.strip() for x in s.split(",") if x.strip()],
        default=list(PIPELINE_TOPOLOGIES),
        help="comma-separated stock topologies (default: telemetry,aggregate)",
    )
    p.add_argument(
        "--metrics-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="also run each pipeline chaos scenario with a metrics "
        "registry and write one OpenMetrics <scenario>.prom each to DIR",
    )
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("accounting", help="§VI-C wakeup accounting scalars")
    _add_common(p)
    _add_jobs(p)
    p.add_argument("--buffer", type=int, default=25)
    p.set_defaults(func=cmd_accounting)

    p = sub.add_parser("sanity", help="the paper's §III-C1 rig checks")
    _add_common(p)
    p.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p.set_defaults(func=cmd_sanity)

    p = sub.add_parser(
        "chaos", help="fault-injection matrix → markdown resilience report"
    )
    _add_common(p)
    _add_jobs(p)
    p.add_argument("--consumers", type=int, default=4)
    p.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scenario set (clean, lost-signals, combined) for CI",
    )
    p.add_argument(
        "--scenarios",
        type=lambda s: [x.strip() for x in s.split(",") if x.strip()],
        default=None,
        metavar="NAME,NAME",
        help="run only these scenarios (comma-separated names from the "
        "default matrix; overrides --smoke)",
    )
    p.add_argument(
        "--baselines",
        action="store_true",
        help="also score Mutex/Sem/BP/SPBP under the same fault plans "
        "(comparative degradation table)",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="re-run each scenario under the simultaneity sanitizer "
        "(DES race detector); exit non-zero on any race",
    )
    p.add_argument(
        "--metrics-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="also collect a metrics registry per PBPL scenario and "
        "write one OpenMetrics <scenario>.prom artifact each to DIR",
    )
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("all", help="every figure, one markdown report")
    _add_common(p)
    p.set_defaults(func=cmd_all)

    trace = sub.add_parser(
        "trace", help="event traces: record, diff, report, bless"
    )
    trace.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate: record short traces, validate the Chrome JSON, "
        "reconcile energy with the ledger",
    )
    trace.add_argument(
        "-o",
        "--output",
        type=Path,
        default=Path("trace-smoke.json"),
        help="smoke-mode artifact path (default trace-smoke.json)",
    )
    trace.set_defaults(func=cmd_trace_default)
    tsub = trace.add_subparsers(dest="trace_command", required=False)

    p = tsub.add_parser(
        "record", help="run an implementation under a scenario, emit a trace"
    )
    p.add_argument(
        "--impl",
        default="PBPL",
        help="implementation: PBPL or a §III name (Mutex, Sem, BP, SPBP, ...)",
    )
    p.add_argument(
        "--scenario",
        default="webserver",
        help="webserver, clean, or any chaos scenario name "
        "(stall, lost-signals, burst, clock-drift, slowdown, "
        "contention, combined, core-kill, cascade)",
    )
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--consumers", type=int, default=4)
    p.add_argument("--seed", type=int, default=2014)
    p.add_argument(
        "-o",
        "--output",
        type=Path,
        default=Path("trace.json"),
        help="output path ('-' = stdout; Chrome JSON, or JSONL with --stream)",
    )
    p.add_argument(
        "--stream",
        action="store_true",
        help="write incremental JSONL during the run (full fidelity even "
        "when the ring buffer overflows; diffable with `repro trace diff`)",
    )
    p.add_argument(
        "--rotate-mb",
        type=float,
        default=None,
        metavar="MB",
        help="with --stream: rotate the JSONL file into gzip segments "
        "(<out>.1.gz, <out>.2.gz, ...) every MB megabytes; readers "
        "reassemble the sequence transparently",
    )
    p.add_argument(
        "--capacity",
        type=int,
        default=1_000_000,
        help="in-memory ring-buffer capacity in events (the JSONL stream "
        "is not bounded by it)",
    )
    p.add_argument(
        "--text", type=Path, default=None, help="also write a text timeline here"
    )
    p.set_defaults(func=cmd_trace_record)

    p = tsub.add_parser(
        "diff",
        help="structurally diff two JSONL traces (slots, latching, energy "
        "per phase); exit 1 on drift — the CI regression gate",
    )
    p.add_argument("trace_a", type=Path, help="baseline JSONL trace")
    p.add_argument("trace_b", type=Path, help="candidate JSONL trace")
    p.add_argument(
        "--threshold-j",
        type=float,
        default=0.0,
        help="ignore per-phase energy deltas at or below this many joules "
        "(default 0: bit-exact)",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the diff as JSON"
    )
    p.set_defaults(func=cmd_trace_diff)

    p = tsub.add_parser(
        "report",
        help="terminal flamegraph of a JSONL trace: per-track self time, "
        "joules per span, top wakeup causes",
    )
    p.add_argument("file", type=Path, help="JSONL trace (from record --stream)")
    p.add_argument("--top", type=int, default=15, help="rows per table")
    p.add_argument(
        "--from",
        dest="from_s",
        type=float,
        default=None,
        metavar="S",
        help="report only events from this simulated second on",
    )
    p.add_argument(
        "--to",
        dest="to_s",
        type=float,
        default=None,
        metavar="S",
        help="report only events before this simulated second",
    )
    p.add_argument(
        "--out", type=Path, default=None, help="also write the report here"
    )
    p.set_defaults(func=cmd_trace_report)

    p = tsub.add_parser(
        "bless",
        help="re-record the golden trace matrix the CI diff gate "
        "compares against",
    )
    p.add_argument(
        "--name",
        choices=("all",) + tuple(GOLDEN_SPECS),
        default="all",
        help="which golden to bless (default: the whole matrix)",
    )
    p.add_argument(
        "--out-dir",
        type=Path,
        default=GOLDEN_DIR,
        help=f"directory for the blessed traces (default {GOLDEN_DIR})",
    )
    p.add_argument(
        "-o",
        "--output",
        type=Path,
        default=None,
        help="explicit output path (single golden only, with --name)",
    )
    p.set_defaults(func=cmd_trace_bless)

    metrics = sub.add_parser(
        "metrics",
        help="typed instruments over the DES: snapshots, OpenMetrics "
        "export, drift diffs, kernel self-profile",
    )
    msub = metrics.add_subparsers(dest="metrics_command", required=True)

    def _add_metrics_run_args(mp: argparse.ArgumentParser) -> None:
        mp.add_argument(
            "--impl",
            default=GOLDEN_SPEC["impl"],
            help="implementation: PBPL or a §III name (Mutex, Sem, BP, ...)",
        )
        mp.add_argument(
            "--scenario",
            default=GOLDEN_SPEC["scenario"],
            help="webserver, clean, or any chaos scenario name",
        )
        mp.add_argument(
            "--duration", type=float, default=GOLDEN_SPEC["duration_s"]
        )
        mp.add_argument(
            "--consumers", type=int, default=GOLDEN_SPEC["n_consumers"]
        )
        mp.add_argument("--seed", type=int, default=GOLDEN_SPEC["seed"])

    p = msub.add_parser(
        "snapshot",
        help="run once with a live registry, export OpenMetrics, and "
        "reconcile counters/energy against the run's ground truth",
    )
    _add_metrics_run_args(p)
    p.add_argument(
        "-o",
        "--output",
        type=Path,
        default=Path("metrics.prom"),
        help="output path ('-' = stdout; default metrics.prom)",
    )
    p.set_defaults(func=cmd_metrics_snapshot)

    p = msub.add_parser(
        "diff",
        help="compare two OpenMetrics snapshots sample-by-sample; "
        "exit 1 on drift — the CI metrics gate",
    )
    p.add_argument("prom_a", type=Path, help="baseline .prom snapshot")
    p.add_argument("prom_b", type=Path, help="candidate .prom snapshot")
    p.add_argument(
        "--threshold-rel",
        type=float,
        default=0.0,
        help="relative drift tolerance per sample (default 0: bit-exact)",
    )
    p.add_argument(
        "--threshold-abs",
        type=float,
        default=0.0,
        help="absolute drift tolerance per sample (default 0)",
    )
    p.set_defaults(func=cmd_metrics_diff)

    p = msub.add_parser(
        "profile",
        help="drive the run through the self-profiling event loop; "
        "top-N event-dispatch hot spots with measured self-time",
    )
    _add_metrics_run_args(p)
    p.add_argument("--top", type=int, default=10, help="rows in the table")
    p.add_argument(
        "--out", type=Path, default=None, help="also write the table here"
    )
    p.set_defaults(func=cmd_metrics_profile)

    p = msub.add_parser(
        "bless",
        help="re-record the golden OpenMetrics snapshot the CI metrics "
        "gate diffs against",
    )
    p.add_argument(
        "--out-dir",
        type=Path,
        default=GOLDEN_DIR,
        help=f"directory for the blessed snapshot (default {GOLDEN_DIR})",
    )
    p.add_argument(
        "-o",
        "--output",
        type=Path,
        default=None,
        help="explicit output path (overrides --out-dir)",
    )
    p.set_defaults(func=cmd_metrics_bless)

    p = msub.add_parser(
        "overhead",
        help="paired timing of the PBPL smoke with a live registry vs the "
        "disabled default; exit 1 above the 15%% tolerance",
    )
    p.set_defaults(func=cmd_metrics_overhead)

    p = sub.add_parser(
        "lint",
        help="static determinism/purity/layering analysis (DET/SCHED/"
        "FLOAT/LAYER/PURE/TRACE/METRIC rules, whole-program taint)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    p.add_argument(
        "--write-names",
        action="store_true",
        help="regenerate trace/names.py (tracer call sites) and "
        "telemetry/names.py (instrument call sites), then exit",
    )
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WorkerCrashError as exc:
        # A pool worker died mid-matrix (OOM-killed, segfault, SIGKILL).
        # Name the run that was in flight and what finished, then exit
        # non-zero — never a traceback.
        cmd = args.command
        print(f"repro {cmd}: {exc}", file=sys.stderr)
        if exc.completed:
            done = ", ".join(label for label, _ in exc.completed)
            print(
                f"repro {cmd}: completed before the crash: {done}",
                file=sys.stderr,
            )
        print(
            f"repro {cmd}: partial results were discarded; re-run with "
            "--jobs 1 to isolate the failing run in-process",
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
