"""Lint engine: one pass over the files, then the whole-program rules.

Each ``.py`` file is parsed once into a :class:`ModuleContext` (AST +
resolved import aliases + layer identity). Every per-module rule checks
it, its ``# repro: allow[...]`` pragmas are parsed, and it is distilled
into a *facts* record (imports, taint summaries, scheduling sites). The
facts of all files make one :class:`~repro.analysis.callgraph.Project`,
over which the whole-program rules run: DET005 taint flow, SCHED001/002
tie hazards and the LAYER001/002 import matrix (direct and transitive
imports alike).

Suppression pragmas are applied afterwards so a rule never needs to know
about them; pragmas that matched nothing are reported (``--format
json``) so stale ``allow[...]`` comments don't rot in place.

Exit codes: 0 clean, 1 unsuppressed findings, 2 unreadable/unparseable
input or a missing path. A file that fails to parse is reported as
``path:line: parse error: ...`` and the rest of the tree is still
linted.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, render_json, render_text, sort_findings
from repro.analysis.registry import (
    all_project_rules,
    all_rules,
    covers_code,
    parse_pragmas,
)


def dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` attribute chain -> ``["a", "b", "c"]``, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def collect_imports(tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted origin, for every import in the file.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter`` maps ``perf_counter -> time.perf_counter``. Relative
    imports are left out (they never alias stdlib entropy sources).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one source file."""

    path: Path
    display_path: str
    module: Optional[str]  # dotted name, e.g. "repro.core.manager"
    layer: Optional[str]  # first package under repro, e.g. "core"
    tree: ast.Module
    lines: List[str]
    imports: Dict[str, str] = field(default_factory=dict)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of an expression, through import aliases.

        ``np.random.default_rng`` -> ``numpy.random.default_rng`` when the
        file did ``import numpy as np``; None for non-name expressions.
        """
        parts = dotted_parts(node)
        if not parts:
            return None
        origin = self.imports.get(parts[0])
        if origin is not None:
            parts = origin.split(".") + parts[1:]
        return ".".join(parts)


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name, anchored at the last ``repro`` path component."""
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")
    rel = parts[idx:]
    if rel[-1].endswith(".py"):
        rel[-1] = rel[-1][:-3]
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel)


def layer_for(module: Optional[str]) -> Optional[str]:
    if not module or not module.startswith("repro."):
        return None
    return module.split(".")[1]


def load_context(path: Path) -> ModuleContext:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    module = module_name_for(path)
    return ModuleContext(
        path=path,
        display_path=str(path),
        module=module,
        layer=layer_for(module),
        tree=tree,
        lines=source.splitlines(),
        imports=collect_imports(tree),
    )


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    # De-duplicate while keeping a stable, sorted order.
    return sorted(set(files))


# ---------------------------------------------------------------------------
# the analysis
# ---------------------------------------------------------------------------


@dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    findings: List[Finding]  # unsuppressed
    errors: List[str]  # unreadable / unparseable files
    unused_suppressions: List[dict]  # pragmas that matched no finding


def analyze(paths: Sequence[Path]) -> AnalysisResult:
    """Lint every file under ``paths``: per-module rules, then the
    whole-program rules, then the suppression pragmas."""
    from repro.analysis.callgraph import Project, extract_facts

    errors: List[str] = []
    findings: List[Finding] = []
    pragmas: Dict[str, List[dict]] = {}
    facts_list: List[dict] = []
    for path in iter_python_files(paths):
        try:
            ctx = load_context(path)
        except OSError as exc:
            errors.append(f"{path}: unreadable: {exc}")
            continue
        except SyntaxError as exc:
            errors.append(f"{path}:{exc.lineno or 1}: parse error: {exc.msg}")
            continue
        except UnicodeDecodeError as exc:
            errors.append(f"{path}:1: parse error: {exc.reason}")
            continue
        for rule in all_rules():
            findings.extend(rule.check(ctx))
        pragmas[ctx.display_path] = parse_pragmas(ctx.lines)
        facts_list.append(extract_facts(ctx))
    project = Project(facts_list)
    for rule in all_project_rules():
        findings.extend(rule.check_project(project))

    kept: List[Finding] = []
    used: Set[Tuple[str, int]] = set()
    for f in findings:
        hits = [
            (f.path, i)
            for i, pragma in enumerate(pragmas.get(f.path, ()))
            if f.line in pragma["covers"] and covers_code(f.code, pragma["codes"])
        ]
        if hits:
            used.update(hits)
        else:
            kept.append(f)
    unused = [
        {"path": p, "line": pragma["line"], "codes": list(pragma["codes"])}
        for p in sorted(pragmas)
        for i, pragma in enumerate(pragmas[p])
        if (p, i) not in used
    ]
    return AnalysisResult(
        findings=sort_findings(kept), errors=errors, unused_suppressions=unused
    )


def lint_paths(paths: Sequence[Path]) -> Tuple[List[Finding], List[str]]:
    """Lint every file under ``paths``.

    Returns ``(findings, errors)`` where ``errors`` are human-readable
    messages for files that could not be read or parsed.
    """
    result = analyze(paths)
    return result.findings, result.errors


def run(paths: Sequence[Path], fmt: str, write_names: bool) -> int:
    """``repro lint``: lint ``paths`` and print the report in ``fmt``
    (``text`` or ``json``); with ``write_names``, regenerate
    ``trace/names.py`` and ``telemetry/names.py`` from the call sites
    under ``paths`` instead. Returns the exit code."""
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"repro lint: no such path: {p}", file=sys.stderr)
        return 2

    if write_names:
        from repro.analysis.rules_metrics import write_metric_names_module
        from repro.analysis.rules_trace import write_names_module

        package = Path(__file__).resolve().parent.parent
        for kind, write, out in (
            ("trace", write_names_module, package / "trace" / "names.py"),
            ("metric", write_metric_names_module, package / "telemetry" / "names.py"),
        ):
            names = write(paths, out)
            print(f"wrote {len(names)} registered {kind} names to {out}")
        return 0

    result = analyze(paths)
    for err in result.errors:
        print(f"repro lint: {err}", file=sys.stderr)
    if fmt == "json":
        sys.stdout.write(
            render_json(result.findings, result.unused_suppressions, result.errors)
        )
    else:
        print(render_text(result.findings))
    if result.errors:
        return 2
    return 1 if result.findings else 0


# Rule modules register themselves on import; keep these imports last so
# the registry helpers above exist when they run.
from repro.analysis import rules_det  # noqa: E402,F401
from repro.analysis import rules_layer  # noqa: E402,F401
from repro.analysis import rules_metrics  # noqa: E402,F401
from repro.analysis import rules_pure  # noqa: E402,F401
from repro.analysis import rules_trace  # noqa: E402,F401
from repro.analysis import rules_float  # noqa: E402,F401
from repro.analysis import rules_sched  # noqa: E402,F401
from repro.analysis import taint  # noqa: E402,F401
