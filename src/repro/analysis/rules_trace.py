"""TRACE rule: span/counter name literals must be registered.

``repro.trace.diff`` aligns traces by (track, span name, slot index); a
typo'd or silently renamed emission literal would make regression diffs
lie. Every *literal* name passed to a tracer emission call
(``tracer.instant/counter/begin/complete``) must therefore appear in the
generated ``repro/trace/names.py`` registry. Regenerate it after adding
an emission site::

    repro lint --write-names

Dynamic names (C-state residency labels, fault class names) are computed
at runtime and are exempt — the rule only checks string constants.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

from repro.analysis.registry import LintRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import ModuleContext
    from repro.analysis.findings import Finding

_EMISSION_METHODS = frozenset({"instant", "counter", "begin", "complete"})


def _receiver_is_tracer(func: ast.Attribute) -> bool:
    """True when the call receiver is named like a tracer handle
    (``tracer``, ``self.tracer``, ``self._tracer``, ``run_tracer`` ...)."""
    value = func.value
    if isinstance(value, ast.Name):
        label = value.id
    elif isinstance(value, ast.Attribute):
        label = value.attr
    else:
        return False
    return label.lstrip("_").lower().endswith("tracer")


def emission_name_arg(node: ast.Call) -> Optional[ast.expr]:
    """The ``name`` argument of a tracer emission call, or None."""
    fn = node.func
    if not isinstance(fn, ast.Attribute) or fn.attr not in _EMISSION_METHODS:
        return None
    if not _receiver_is_tracer(fn):
        return None
    for kw in node.keywords:
        if kw.arg == "name":
            return kw.value
    if len(node.args) >= 2:
        return node.args[1]
    return None


@register
class RegisteredNameRule(LintRule):
    code = "TRACE001"

    def check(self, ctx: "ModuleContext") -> List["Finding"]:
        from repro.trace.names import REGISTERED_NAMES

        if ctx.module == "repro.trace.names":
            return []
        out: List["Finding"] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name_arg = emission_name_arg(node)
            if (
                isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
                and name_arg.value not in REGISTERED_NAMES
            ):
                out.append(
                    self.finding(
                        ctx,
                        node,
                        f"trace name {name_arg.value!r} is not registered in "
                        f"trace/names.py — run `repro lint --write-names` "
                        f"after adding an emission site",
                    )
                )
        return out


# ---------------------------------------------------------------------------
# names.py generator
# ---------------------------------------------------------------------------


def collect_trace_names(paths: Sequence[Path]) -> Set[str]:
    """All literal emission names under ``paths``."""
    from repro.analysis.engine import iter_python_files, load_context

    names: Set[str] = set()
    for path in iter_python_files(paths):
        try:
            ctx = load_context(path)
        except (SyntaxError, OSError):
            continue
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                arg = emission_name_arg(node)
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    names.add(arg.value)
    return names


def render_names_module(names: Set[str]) -> str:
    body = "\n".join(f'        "{n}",' for n in sorted(names))
    return f'''"""Registered trace event names.

GENERATED by `repro lint --write-names` — do not edit by hand. Every
string literal passed as the `name` of a tracer emission call
(instant/counter/begin/complete) must appear here; the TRACE001 lint
rule enforces it so `repro trace diff` alignment keys cannot drift
silently.

Dynamic name families are exempt (they are not literals at the call
site): C-state residency labels ("active" / CState.name) on core tracks
and fault class names (type(fault).__name__) on the fault track.
"""

REGISTERED_NAMES = frozenset(
    (
{body}
    )
)
'''


def write_names_module(paths: Sequence[Path], out: Path) -> Set[str]:
    names = collect_trace_names(paths)
    out.write_text(render_names_module(names), encoding="utf-8")
    return names
