"""METRIC rule: metric name literals must be registered.

A metric name is the key of every sample line in the byte-compared
golden snapshot (``results/golden/pbpl_smoke.metrics.prom``); a typo'd
or silently renamed instrument literal would move that key without any
registered name saying so, exactly like an unregistered trace span name
would. Every *literal* name passed to an instrument-creation call
(``metrics.counter/gauge/histogram``) must therefore appear in the
generated ``repro/telemetry/names.py`` registry. Regenerate it after
adding an instrument site::

    repro lint --write-names

Dynamic names (none today — instruments vary by *label*, never by
name) would be exempt: the rule only checks string constants.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Set

from repro.analysis.registry import LintRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import ModuleContext
    from repro.analysis.findings import Finding

_INSTRUMENT_METHODS = frozenset({"counter", "gauge", "histogram"})


def _receiver_is_registry(func: ast.Attribute) -> bool:
    """True when the call receiver is named like a metrics handle
    (``metrics``, ``self.metrics``, ``registry``, ``self._registry``,
    ``run_metrics`` ...)."""
    value = func.value
    if isinstance(value, ast.Name):
        label = value.id
    elif isinstance(value, ast.Attribute):
        label = value.attr
    else:
        return False
    label = label.lstrip("_").lower()
    return label.endswith("metrics") or label.endswith("registry")


def instrument_name_arg(node: ast.Call) -> Optional[ast.expr]:
    """The ``name`` argument of an instrument-creation call, or None."""
    fn = node.func
    if not isinstance(fn, ast.Attribute) or fn.attr not in _INSTRUMENT_METHODS:
        return None
    if not _receiver_is_registry(fn):
        return None
    for kw in node.keywords:
        if kw.arg == "name":
            return kw.value
    if node.args:
        return node.args[0]
    return None


@register
class RegisteredMetricNameRule(LintRule):
    code = "METRIC001"

    def check(self, ctx: "ModuleContext") -> List["Finding"]:
        from repro.telemetry.names import REGISTERED_NAMES

        if ctx.module == "repro.telemetry.names":
            return []
        out: List["Finding"] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name_arg = instrument_name_arg(node)
            if (
                isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
                and name_arg.value not in REGISTERED_NAMES
            ):
                out.append(
                    self.finding(
                        ctx,
                        node,
                        f"metric name {name_arg.value!r} is not registered in "
                        f"telemetry/names.py — run `repro lint --write-names` "
                        f"after adding an instrument site",
                    )
                )
        return out


# ---------------------------------------------------------------------------
# names.py generator
# ---------------------------------------------------------------------------


def collect_metric_names(paths: Sequence[Path]) -> Set[str]:
    """All literal instrument names under ``paths``."""
    from repro.analysis.engine import iter_python_files, load_context

    names: Set[str] = set()
    for path in iter_python_files(paths):
        try:
            ctx = load_context(path)
        except (SyntaxError, OSError):
            continue
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                arg = instrument_name_arg(node)
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    names.add(arg.value)
    return names


def render_metric_names_module(names: Set[str]) -> str:
    body = "\n".join(f'        "{n}",' for n in sorted(names))
    return f'''"""Registered metric names (generated).

Regenerate with ``repro lint --write-names`` after adding or removing
a metric emission site — do not edit by hand. ``repro lint``
(METRIC001) flags any metric name literal missing from this table.
"""

REGISTERED_NAMES = frozenset(
    (
{body}
    )
)
'''


def write_metric_names_module(paths: Sequence[Path], out: Path) -> Set[str]:
    names = collect_metric_names(paths)
    out.write_text(render_metric_names_module(names), encoding="utf-8")
    return names
