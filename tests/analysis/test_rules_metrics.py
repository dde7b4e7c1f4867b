"""METRIC001 (metric name literals must be registered) and the
telemetry names-table generator, plus the telemetry LAYER branch."""

from pathlib import Path

from repro.analysis.rules_metrics import (
    collect_metric_names,
    render_metric_names_module,
    write_metric_names_module,
)
from repro.telemetry.names import REGISTERED_NAMES

from tests.analysis.conftest import codes

SRC = Path(__file__).resolve().parents[2] / "src"


def test_registered_name_is_clean(lint_snippet):
    findings = lint_snippet(
        "def wire(metrics):\n"
        "    metrics.counter('wakeups_total', kind='slot')\n"
    )
    assert "METRIC001" not in codes(findings)


def test_unregistered_name_is_flagged(lint_snippet):
    findings = lint_snippet(
        "def wire(metrics):\n"
        "    metrics.counter('totally_novel_metric')\n"
    )
    hits = [f for f in findings if f.code == "METRIC001"]
    assert len(hits) == 1
    assert "totally_novel_metric" in hits[0].message


def test_all_instrument_kinds_are_checked(lint_snippet):
    findings = lint_snippet(
        "def wire(registry):\n"
        "    registry.gauge('nope_g')\n"
        "    registry.histogram('nope_h', buckets=(1, 2))\n"
        "    registry.counter(name='nope_c')\n"
    )
    hits = [f for f in findings if f.code == "METRIC001"]
    assert len(hits) == 3


def test_non_registry_receivers_are_ignored(lint_snippet):
    # `.counter(...)` on something that isn't a metrics/registry handle
    # (e.g. collections.Counter factories) must not trip the rule.
    findings = lint_snippet(
        "def other(stats):\n"
        "    stats.counter('not_a_metric')\n"
    )
    assert "METRIC001" not in codes(findings)


def test_private_attribute_receivers_are_checked(lint_snippet):
    findings = lint_snippet(
        "class C:\n"
        "    def wire(self):\n"
        "        self._metrics.counter('nope')\n"
    )
    assert "METRIC001" in codes(findings)


def test_committed_table_matches_the_tree():
    """The checked-in telemetry/names.py is exactly what the generator
    produces from src — regenerating must be a no-op."""
    names = collect_metric_names([SRC])
    assert names == REGISTERED_NAMES


def test_generator_renders_committed_format(tmp_path):
    src = tmp_path / "repro" / "core" / "m.py"
    src.parent.mkdir(parents=True)
    src.write_text(
        "def wire(metrics):\n"
        "    metrics.counter('b_total')\n"
        "    metrics.gauge('a_value')\n",
        encoding="utf-8",
    )
    out = tmp_path / "names.py"
    assert write_metric_names_module([tmp_path], out) == {"a_value", "b_total"}
    text = out.read_text(encoding="utf-8")
    assert '"a_value",' in text and '"b_total",' in text
    assert "REGISTERED_NAMES = frozenset(" in text
    # Alphabetical ordering keeps the generated file diff-stable.
    assert text.index('"a_value"') < text.index('"b_total"')


def test_generated_names_module_is_importable(tmp_path):
    text = render_metric_names_module({"x_total", "a_value"})
    namespace = {}
    exec(compile(text, "<names>", "exec"), namespace)
    assert namespace["REGISTERED_NAMES"] == frozenset({"x_total", "a_value"})


def test_telemetry_layer_may_not_import_harness(lint_snippet):
    findings = lint_snippet(
        "from repro.harness.runner import Rig\n",
        rel="telemetry/bad.py",
    )
    assert "LAYER001" in codes(findings)


def test_telemetry_layer_clock_shim_is_allowed(lint_snippet):
    findings = lint_snippet(
        "from repro.harness.clock import perf_counter\n",
        rel="telemetry/profiler_like.py",
    )
    assert "LAYER001" not in codes(findings)


def test_kernel_layers_may_import_telemetry(lint_snippet):
    findings = lint_snippet(
        "from repro.telemetry import NULL_REGISTRY\n",
        rel="core/consumer_like.py",
    )
    assert "LAYER001" not in codes(findings)
