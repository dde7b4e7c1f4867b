"""Figure-level benchmark: end-to-end and per-layer metrics for repro.

Four closed batch workloads (see ``BENCHMARK.json`` and
``bench/README.md``), each run as a fresh child process
(``bench/child.py``), one child at a time, with ``jobs=1`` and no
``$REPRO_JOBS``. Untraced children give the end-to-end metrics; one
child per workload runs under ``cProfile`` for the per-layer metrics.
Every child's simulated output is digested and checked.

Usage (from the repository root)::

    python bench/run.py [--seed 2014] [--workloads a,b] [--repeats 5] [--out F]
    python bench/run.py --workload fig9_cell --seed 7 --seconds 20 --trace 0
    python bench/run.py --bless [--seed 2014]
    python bench/run.py --compare A.json B.json

The first form runs ``--repeats`` untraced rounds round-robin over the
workloads (A B C D, A B C D, ...), then one traced pass per workload; it
prints every metric by name and unit and writes the samples to a results
file. The second form measures one workload for ``--seconds`` and prints
one JSON result object as its last line. ``--bless`` rewrites
``bench/expected/seed<N>.json``; ``--compare`` checks two results files
against the bounds in ``BENCHMARK.json``.

Times are scaled to the reference speed of ``child.yardstick``, which
each child times next to its own work: the host is shared, and its speed
swings by up to 2x within minutes.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
OUT_DIR = BENCH_DIR / "out"
EXPECTED_DIR = BENCH_DIR / "expected"

#: Untraced children in a time-budgeted run; its times are their medians.
CHILDREN = 2

#: A time-budgeted run must end within this many seconds in all.
RUN_LIMIT_S = 175.0


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or spec)."""


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC / 'repro'}")
    if not spec_path.is_file():
        raise BenchError(f"no {spec_path.name} at {ROOT}")
    return json.loads(spec_path.read_text(encoding="utf-8"))


def spec_layers(spec: dict) -> list:
    """Layers with per-layer metrics, named as ``<layer>.self_frac``."""
    return [
        m["name"][: -len(".self_frac")]
        for m in spec["per_layer"]
        if m["name"].endswith(".self_frac")
    ]


def child_env() -> dict:
    env = {
        k: v for k, v in os.environ.items() if k not in ("REPRO_JOBS", "PYTHONPATH")
    }
    # One thread per child: numpy's BLAS pool would otherwise contend
    # with the simulation for the box's cores.
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(
    workload: str, seed: int, traced: bool, timeout_s: float, setup_only: bool = False
) -> dict:
    """One child. Returns its record, or one with ``error``."""
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        return {"workload": workload, "traced": traced,
                "error": f"timed out after {timeout_s:.0f} s"}
    record = None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = None
    if record is None:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return {"workload": workload, "traced": traced,
                "error": f"exit {proc.returncode}: {tail}"}
    record["child_s"] = time.perf_counter() - started
    return record


# -- checking -----------------------------------------------------------------


def load_expected(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def judge(records: list, expected: dict) -> None:
    """Mark each record ``ok`` or give its ``failure``.

    A digest is checked against ``expected`` when it names the workload;
    otherwise every run of the workload must agree with its first
    successful run (traced and untraced alike).
    """
    reference = dict(expected)
    for rec in records:
        name = rec["workload"]
        if "error" in rec:
            rec["failure"] = rec["error"]
        elif rec["problems"]:
            rec["failure"] = "; ".join(rec["problems"])
        elif name in reference and rec["digest"] != reference[name]:
            rec["failure"] = (
                f"digest {rec['digest'][:12]} != "
                f"{'expected' if name in expected else 'first run'} "
                f"{reference[name][:12]}"
            )
        else:
            reference.setdefault(name, rec["digest"])
        rec["ok"] = "failure" not in rec


# -- metrics --------------------------------------------------------------------


def summary(values: list) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4) of samples."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(untraced: list, setups: list) -> dict:
    """Median and quartiles of each end-to-end metric over the children;
    set-up times also come from the set-up-only children."""
    return {
        "scaled_wall_s": summary([r["scaled_wall_s"] for r in untraced]),
        "setup_s": summary([r["scaled_setup_s"] for r in untraced + setups]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in untraced]),
    }


def per_layer(spec: dict, untraced: list, traced: dict) -> dict:
    """Per-layer metrics from one traced child plus the untraced medians.

    The traced child is not scaled (the yardstick would land in its
    profile), so ``tracing.overhead`` divides by unscaled untraced time.
    The two parts of set-up get their shares of the scaled whole.
    """
    wall = statistics.median(r["scaled_wall_s"] for r in untraced)
    raw_wall = statistics.median(r["wall_s"] for r in untraced)

    def setup_part(key: str) -> float:
        return statistics.median(
            r["scaled_setup_s"] * r[key] / (r["import_s"] + r["trace_synthesis_s"])
            for r in untraced
        )

    self_s, calls_in = traced["layers"]["self_s"], traced["layers"]["calls_in"]
    total = sum(self_s.values())
    counts = traced["counts"]
    metrics = {}
    for layer in spec_layers(spec):
        metrics[f"{layer}.self_frac"] = self_s[layer] / total
        metrics[f"{layer}.calls_in"] = calls_in[layer]
    wakeups = counts["core.scheduled_wakeups"] + counts["core.overflow_wakeups"]
    metrics.update(
        {
            "tracing.wall_s": traced["wall_s"],
            "tracing.overhead": traced["wall_s"] / raw_wall,
            "setup.import_s": setup_part("import_s"),
            "setup.trace_synthesis_s": setup_part("trace_synthesis_s"),
            "sim.events": counts["sim.events"],
            "sim.host_us_per_event": wall / counts["sim.events"] * 1e6,
            "cpu.core_wakeups": counts["cpu.core_wakeups"],
            "core.scheduled_wakeups": counts["core.scheduled_wakeups"],
            "core.overflow_wakeups": counts["core.overflow_wakeups"],
            "core.scheduled_share": (
                counts["core.scheduled_wakeups"] / wakeups if wakeups else 0.0
            ),
            "buffers.items_consumed": counts["buffers.items_consumed"],
            "buffers.items_shed": counts["buffers.items_shed"],
            "trace.events_recorded": counts["trace.events_recorded"],
            "telemetry.series": counts["telemetry.series"],
        }
    )
    return metrics


def check_declared(spec: dict, key: str, metrics: dict) -> None:
    declared = [m["name"] for m in spec[key]]
    if sorted(declared) != sorted(metrics):
        raise BenchError(
            f"{key} in BENCHMARK.json and the metrics computed differ: "
            f"{sorted(set(declared) ^ set(metrics))}"
        )


# -- modes ------------------------------------------------------------------------


def measure_budgeted(spec, workload, seed, seconds, traced, expected) -> int:
    """Time-budgeted run of one workload; prints one JSON result line.

    Untraced: ``CHILDREN`` children, then set-up-only children while the
    next would end within ``seconds``. Traced: one untraced child, then
    one traced child.
    """
    start = time.perf_counter()

    def child(**kwargs) -> dict:
        elapsed = time.perf_counter() - start
        return run_child(workload, seed, timeout_s=RUN_LIMIT_S - elapsed, **kwargs)

    untraced, setups = [], []
    while len(untraced) < (1 if traced else CHILDREN):
        untraced.append(child(traced=False))
        if "error" in untraced[-1]:
            break
    records = list(untraced)
    if traced and "error" not in untraced[-1]:
        records.append(child(traced=True))
    while not traced and "error" not in (setups or untraced)[-1]:
        # A set-up-only child costs about the last one, or the set-up of
        # an untraced one.
        cost = setups[-1]["child_s"] if setups else untraced[-1]["setup_s"]
        if time.perf_counter() - start + cost > seconds:
            break
        setups.append(child(traced=False, setup_only=True))
    judge(records, expected)
    for rec in records:
        if not rec["ok"]:
            print(f"{workload}: failed operation: {rec['failure']}", file=sys.stderr)
    for rec in setups:
        if "error" in rec:
            print(f"{workload}: set-up failed: {rec['error']}", file=sys.stderr)
    if any("error" in r for r in records + setups):
        return 1
    if traced:
        metrics, key = per_layer(spec, untraced, records[-1]), "per_layer"
    else:
        metrics = {k: v["median"] for k, v in end_to_end(untraced, setups).items()}
        key = "end_to_end"
    check_declared(spec, key, metrics)
    units = {m["name"]: m["unit"] for m in spec[key]}
    failed = sum(not r["ok"] for r in records)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


def print_report(spec: dict, results: dict) -> None:
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload, res in results["workloads"].items():
        print(
            f"\n== {workload}: {res['ops_attempted']} ops attempted, "
            f"{res['ops_failed']} failed"
        )
        if res["end_to_end"] is None:
            continue
        for name, s in res["end_to_end"].items():
            print(
                f"{workload} {name} {s['median']:.6g} {e2e[name]['unit']} "
                f"(median; q1 {s['q1']:.6g}, q3 {s['q3']:.6g}; n={s['n']}; "
                f"bound {e2e[name]['bound']:.0%})"
            )
        samples = res["samples"]
        print(
            f"  unscaled medians: wall {statistics.median(samples['wall_s']):.3f} s, "
            f"set-up {statistics.median(samples['setup_s']):.3f} s"
        )
        print(f"  {'layer':10} {'self_s':>9} {'self_frac':>9} {'calls_in':>10}")
        traced_self = res["traced"]["layers"]["self_s"]
        for layer in sorted(spec_layers(spec), key=lambda l: -traced_self[l]):
            print(
                f"  {layer:10} {traced_self[layer]:9.3f} "
                f"{res['per_layer'][layer + '.self_frac']:9.1%} "
                f"{res['per_layer'][layer + '.calls_in']:10d}"
            )
        for name, value in res["per_layer"].items():
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"{workload} {name} {shown} {layer_units[name]}")


def measure_full(spec, workloads, seed, repeats, expected, out: Path) -> int:
    """Round-robin untraced repeats, then one traced pass per workload."""
    order = [(w, False) for _ in range(repeats) for w in workloads]
    order += [(w, True) for w in workloads]
    records = []
    for i, (workload, traced) in enumerate(order, 1):
        rec = run_child(workload, seed, traced, 1200.0 if traced else 600.0)
        shown = "wall_s" if traced else "scaled_wall_s"
        print(
            f"[{i}/{len(order)}] {workload} {'traced' if traced else 'untraced'}: "
            + (rec.get("error") or f"{shown} {rec[shown]:.3f} s"),
            file=sys.stderr,
        )
        records.append(rec)
    judge(records, expected)
    results = {"seed": seed, "repeats": repeats, "workloads": {}}
    sampled = ("scaled_wall_s", "wall_s", "scaled_setup_s", "setup_s", "peak_rss_mb")
    for workload in workloads:
        mine = [r for r in records if r["workload"] == workload]
        untraced = [r for r in mine if not r["traced"]]
        traced = next(r for r in mine if r["traced"])
        for rec in mine:
            if not rec["ok"]:
                print(f"{workload}: failed operation: {rec['failure']}",
                      file=sys.stderr)
        complete = all("error" not in r for r in mine)
        results["workloads"][workload] = {
            "ops_attempted": len(mine),
            "ops_failed": sum(not r["ok"] for r in mine),
            "samples": {
                key: [r[key] for r in untraced if "error" not in r] for key in sampled
            },
            "end_to_end": end_to_end(untraced, []) if complete else None,
            "per_layer": per_layer(spec, untraced, traced) if complete else None,
            "traced": traced,
        }
        if complete:
            check_declared(spec, "per_layer", results["workloads"][workload]["per_layer"])
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print_report(spec, results)
    failed = sum(res["ops_failed"] for res in results["workloads"].values())
    print(f"\nresults: {out}\nfailed operations: {failed}")
    incomplete = any(res["end_to_end"] is None for res in results["workloads"].values())
    return 1 if failed or incomplete else 0


def bless(workloads, seed, path: Path) -> int:
    records = [run_child(w, seed, False, 600.0) for w in workloads]
    judge(records, {})
    bad = [r for r in records if not r["ok"]]
    for rec in bad:
        print(f"{rec['workload']}: {rec['failure']}", file=sys.stderr)
    if bad:
        return 1
    digests = load_expected(path)
    digests.update({r["workload"]: r["digest"] for r in records})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"blessed {', '.join(workloads)} for seed {seed} in {path}")
    return 0


def compare(spec: dict, path_a: Path, path_b: Path) -> int:
    """Medians of two results files per metric x workload, and exact counts."""
    a = json.loads(path_a.read_text(encoding="utf-8"))["workloads"]
    b = json.loads(path_b.read_text(encoding="utf-8"))["workloads"]
    worse = mismatched = 0
    for workload in [w for w in a if w in b]:
        if a[workload]["per_layer"] is None or b[workload]["per_layer"] is None:
            mismatched += 1
            print(f"{workload:14} has failed operations; nothing to compare")
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sa = a[workload]["end_to_end"][name]
            sb = b[workload]["end_to_end"][name]
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in (sa, sb))
            change = (sb["median"] - sa["median"]) / sa["median"]
            if metric["better"] == "higher":
                change = -change
            if spread > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict, worse = "worse than bound", worse + 1
            else:
                verdict = "within bound"
            print(
                f"{workload:14} {name:12} A {sa['median']:.4g} "
                f"[{sa['q1']:.4g}, {sa['q3']:.4g}] n={sa['n']}  "
                f"B {sb['median']:.4g} [{sb['q1']:.4g}, {sb['q3']:.4g}] "
                f"n={sb['n']}  {change:+.1%} (spread {spread:.1%}, "
                f"bound {bound:.0%}): {verdict}"
            )
        for metric in spec["per_layer"]:
            if metric["unit"] != "count":
                continue
            va = a[workload]["per_layer"][metric["name"]]
            vb = b[workload]["per_layer"][metric["name"]]
            if va != vb:
                mismatched += 1
                print(f"{workload:14} {metric['name']}: {va} != {vb} (must be equal)")
    print(f"{worse} worse than bound, {mismatched} counts differ")
    return 1 if worse or mismatched else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--workloads", "--workload", dest="workloads",
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="untraced rounds over the workloads")
    parser.add_argument("--seconds", type=float,
                        help="measure one workload for this long instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --seconds: per-layer (1) or end-to-end (0)")
    parser.add_argument("--out", type=Path, help="results file to write")
    parser.add_argument("--expected", type=Path,
                        help="expected digests (default bench/expected/seed<N>.json)")
    parser.add_argument("--bless", action="store_true",
                        help="rewrite the expected digests for --seed")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        if args.compare:
            return compare(spec, *args.compare)
        names = [w["name"] for w in spec["workloads"]]
        workloads = args.workloads.split(",") if args.workloads else names
        unknown = sorted(set(workloads) - set(names))
        if unknown:
            parser.error(f"unknown workloads {unknown}; choose from {names}")
        if args.repeats < 1:
            parser.error("--repeats must be at least 1")
        # Byte-compile once here, so no child pays for it in set-up.
        compileall.compile_dir(str(SRC), quiet=1)
        path = args.expected or EXPECTED_DIR / f"seed{args.seed}.json"
        if args.bless:
            return bless(workloads, args.seed, path)
        expected = load_expected(path)
        if args.seconds is not None:
            if len(workloads) != 1:
                parser.error("--seconds measures exactly one workload")
            return measure_budgeted(
                spec, workloads[0], args.seed, args.seconds, args.trace == 1,
                expected,
            )
        out = args.out or OUT_DIR / (
            f"seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"
        )
        return measure_full(spec, workloads, args.seed, args.repeats, expected, out)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
