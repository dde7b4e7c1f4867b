"""The sanitized run loop and the plain one give the same results.

``SanitizingEnvironment.run`` never advances the clock in place:
``Environment.try_advance_at`` refuses outside the plain ``run`` loop, so
every service slice and arrival there is a queued Timeout. The plain
loop takes the shortcut wherever nothing else could run first. Short
Figure 9 rigs must produce equal :class:`RunMetrics` either way, and
``repro chaos --sanitize`` must fail when a sanitized scenario scores
differently from its plain run.
"""

import dataclasses

import pytest

from repro.analysis.sanitizer import SanitizingEnvironment
from repro.harness import runner
from repro.harness.params import StandardParams
from repro.sim import Environment


def counting(base):
    class Counting(base):
        hits = 0

        def try_advance_at(self, *args):
            advanced = super().try_advance_at(*args)
            Counting.hits += advanced
            return advanced

    return Counting


@pytest.mark.parametrize("impl", ["Mutex", "BP", "PBPL"])
def test_sanitized_and_plain_runs_measure_the_same(impl, monkeypatch):
    params = StandardParams(duration_s=0.3, seed=2014)
    results = {}
    hits = {}
    for name, base in (("plain", Environment), ("sanitized", SanitizingEnvironment)):
        env_cls = counting(base)
        monkeypatch.setattr(runner, "Environment", env_cls)
        monkeypatch.setattr(runner, "_BASELINE_CACHE", {})
        results[name] = dataclasses.asdict(runner.run_multi(impl, 3, params))
        hits[name] = env_cls.hits
    assert results["sanitized"] == results["plain"]
    assert results["plain"]["consumed"] > 100
    assert hits["sanitized"] == 0
    assert hits["plain"] > 100


@pytest.mark.parametrize("impl", ["PBPL", "Mutex"])
def test_sanitize_scenario_scores_what_the_plain_run_scores(impl):
    from repro.analysis.sanitizer import sanitize_scenario
    from repro.faults.chaos import SMOKE_SCENARIOS, run_scenario

    params = StandardParams(duration_s=0.3, seed=2014)
    scenario = SMOKE_SCENARIOS[-1]
    report = sanitize_scenario(scenario, params, n_consumers=2, impl=impl)
    plain = run_scenario(scenario, params, 2, impl=impl)
    assert report.scored.to_dict() == plain.to_dict()


@pytest.mark.parametrize("skew", [0, 1])
def test_chaos_sanitize_fails_when_the_sanitized_run_scores_differently(
    skew, monkeypatch, capsys
):
    from repro.analysis import sanitizer
    from repro.cli import main

    real = sanitizer.sanitize_scenario

    def skewed(*args, **kwargs):
        report = real(*args, **kwargs)
        report.scored.consumed += skew
        return report

    monkeypatch.setattr(sanitizer, "sanitize_scenario", skewed)
    code = main(
        ["chaos", "--scenarios", "clean", "--duration", "0.3",
         "--consumers", "2", "--sanitize", "--json"]
    )
    err = capsys.readouterr().err
    assert code == skew
    assert ("scored differently" in err) == bool(skew)


@pytest.mark.parametrize("skewed_impl", [None, "Sem"])
def test_chaos_sanitize_baselines_sanitizes_each_baseline(
    skewed_impl, monkeypatch, capsys
):
    """``--sanitize --baselines`` runs every baseline under the
    sanitizer too, and fails when one scores differently from its plain
    run."""
    from repro.analysis import sanitizer
    from repro.cli import main
    from repro.faults.chaos import BASELINE_IMPLS

    real = sanitizer.sanitize_scenario
    seen = []

    def spy(*args, impl="PBPL", **kwargs):
        seen.append(impl)
        report = real(*args, impl=impl, **kwargs)
        if impl == skewed_impl:
            report.scored.consumed += 1
        return report

    monkeypatch.setattr(sanitizer, "sanitize_scenario", spy)
    code = main(
        ["chaos", "--scenarios", "clean", "--duration", "0.3",
         "--consumers", "2", "--sanitize", "--baselines", "--json"]
    )
    err = capsys.readouterr().err
    assert seen == ["PBPL", *BASELINE_IMPLS]
    for impl in BASELINE_IMPLS:
        assert f"sanitize: clean × {impl}: clean" in err
    assert code == (skewed_impl is not None)
    assert ("clean × Sem: scored differently" in err) == (skewed_impl == "Sem")
