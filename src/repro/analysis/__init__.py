"""Static analysis + dynamic simultaneity sanitizer for the reproduction.

Two halves:

* ``repro lint`` (:mod:`repro.analysis.engine`) — one pass over the
  tree enforcing the determinism/purity/layering invariants at the
  source level: per-module AST rules (DET001–004, PURE, FLOAT, TRACE,
  METRIC) and whole-program rules over the import and call graphs
  (DET005 taint flow, SCHED tie hazards, the LAYER import matrix), with
  ``# repro: allow[...]`` suppressions. Output is text or JSON.
* ``repro chaos --sanitize`` (:mod:`repro.analysis.sanitizer`) — a DES
  race detector: at equal virtual timestamps it reports event pairs
  whose relative order is decided only by heap insertion sequence and
  that touch the same buffer/slot/core-manager state.
"""

from repro.analysis.findings import Finding, render_json, render_text
from repro.analysis.registry import LintRule, all_rules, register

__all__ = [
    "Finding",
    "LintRule",
    "all_rules",
    "register",
    "render_json",
    "render_text",
    "lint_paths",
]

_LAZY = {
    "lint_paths": "repro.analysis.engine",
    "SimultaneitySanitizer": "repro.analysis.sanitizer",
    "SanitizingEnvironment": "repro.analysis.sanitizer",
    "sanitize_scenario": "repro.analysis.sanitizer",
}


def __getattr__(name):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
