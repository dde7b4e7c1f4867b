"""Self-test of the benchmark: ``pytest bench/`` (not part of tier-1).

Runs the chaos workload once untraced and once traced (~30 s), then once
more against a tampered expected digest, a small Figure 9 cell
in-process under the simulated-count wrappers, and a pacer around a
busy loop.
"""

import importlib.util
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = [
    m["name"][: -len(".self_frac")]
    for m in SPEC["per_layer"]
    if m["name"].endswith(".self_frac")
]


def load_child():
    """``bench/child.py`` as a module, with ``src`` importable."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("bench_child", BENCH_DIR / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    child._SETUP.stop()  # loading it started the set-up pacer
    return child


def bench(*args):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "results.json"
    proc = bench("--workloads", "chaos_matrix", "--repeats", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(out.read_text(encoding="utf-8"))


def test_every_declared_metric_is_printed_with_its_unit(chaos_run):
    stdout, results = chaos_run
    lines = stdout.splitlines()
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        prefix = f"chaos_matrix {metric['name']} "
        hits = [line for line in lines if line.startswith(prefix)]
        assert len(hits) == 1, metric["name"]
        assert hits[0].split()[3] == metric["unit"], hits[0]
    res = results["workloads"]["chaos_matrix"]
    assert (res["ops_attempted"], res["ops_failed"]) == (2, 0)


def test_layer_self_time_accounts_for_the_traced_wall(chaos_run):
    _, results = chaos_run
    traced = results["workloads"]["chaos_matrix"]["traced"]
    layer_sum = sum(traced["layers"]["self_s"][layer] for layer in LAYERS)
    assert layer_sum == pytest.approx(traced["wall_s"], rel=0.10)


def test_traced_child_runs_no_yardstick(chaos_run):
    _, results = chaos_run
    assert "yardstick_s" not in results["workloads"]["chaos_matrix"]["traced"]


def test_pacer_scales_the_work_between_yardstick_runs():
    child = load_child()
    handler = signal.getsignal(signal.SIGALRM)
    pacer = child.Pacer().start()
    deadline = time.perf_counter() + 4.5 * child.PACE_S
    while time.perf_counter() < deadline:
        pass
    pacer.stop()
    assert signal.getsignal(signal.SIGALRM) == handler
    runs = pacer.runs
    assert len(runs) >= 5  # start, 3 or more ticks, stop
    work = [b0 - a1 for (_, a1), (b0, _) in zip(runs, runs[1:])]
    assert min(work) > 0  # no tick landed inside a run
    assert pacer.wall_s + sum(pacer.yardstick_s) == pytest.approx(
        runs[-1][1] - runs[0][0]
    )
    # Each stretch is scaled by the reference time over the mean of the
    # yardstick times on either side of it.
    paces = pacer.yardstick_s
    expected = sum(
        w * child.YARDSTICK_S / ((a + b) / 2) for w, a, b in zip(work, paces, paces[1:])
    )
    assert pacer.scaled_s == pytest.approx(expected, rel=1e-12)


def test_core_wakeups_count_every_machine_built():
    child = load_child()
    from repro.harness.experiments import run_multi_comparison
    from repro.harness.params import StandardParams

    params = StandardParams(duration_s=0.5, replicates=2, seed=7)
    with child.SimCounter() as sim:
        runs = run_multi_comparison(params, n_consumers=2, jobs=1).runs
    # Machines are freed as the runs go; each must keep its own total.
    consumer_core = sum(round(r.core_wakeups_per_s * r.duration_s) for r in runs)
    assert sim.core_wakeups >= consumer_core > 0


def test_tampered_expected_digest_fails_the_operation(tmp_path):
    expected = json.loads(
        (BENCH_DIR / "expected" / "seed2014.json").read_text(encoding="utf-8")
    )
    expected["chaos_matrix"] = "0" * 64
    tampered = tmp_path / "seed2014.json"
    tampered.write_text(json.dumps(expected), encoding="utf-8")
    proc = bench(
        "--workload", "chaos_matrix", "--seed", "2014", "--seconds", "1",
        "--trace", "0", "--expected", str(tampered),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "digest" in proc.stderr
