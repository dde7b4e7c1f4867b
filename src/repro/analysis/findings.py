"""Lint findings and renderers.

A :class:`Finding` is one rule violation anchored to a source location.
Findings are value objects: the engine collects them, filters suppressed
ones, sorts them, and hands the survivors to a renderer (``text`` for
humans, ``json`` for CI artifacts).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, List, Sequence


@dataclass(frozen=True)
class Finding:
    """One rule violation at ``path:line:col``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code, self.message)


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    return sorted(findings, key=Finding.sort_key)


def render_text(findings: Sequence[Finding]) -> str:
    """One ``path:line:col: CODE message`` line per finding plus a tally."""
    lines = [f"{f.location}: {f.code} {f.message}" for f in findings]
    if findings:
        noun = "finding" if len(findings) == 1 else "findings"
        lines.append(f"{len(findings)} {noun}")
    else:
        lines.append("clean: no findings")
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding],
    unused_suppressions: Sequence[dict],
    errors: Sequence[str],
) -> str:
    """Stable JSON document (sorted keys, newline-terminated)."""
    doc = {
        "schema": "repro.lint/3",
        "count": len(findings),
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "code": f.code,
                "message": f.message,
            }
            for f in findings
        ],
        "unused_suppressions": list(unused_suppressions),
        "errors": list(errors),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
