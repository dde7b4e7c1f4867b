"""LAYER rule: the import-boundary matrix.

The DES kernel layers (``sim``, ``buffers``, ``power``, ``core``,
``cpu``) are the deterministic heart of the reproduction: they may not
import the measurement harness, the CLI, the chaos driver, or the trace
recorder (all of which sit *above* them and are allowed to import
*down*). The trace core is a leaf library too: everything in
``repro.trace`` except ``trace.recorder`` (which intentionally drives
harness runs) must not import ``harness`` or ``cli``. The telemetry
core sits beside it: kernel layers may import ``repro.telemetry`` (the
instrumentation hooks live there), so telemetry itself must never
import the harness (except the ``repro.harness.clock`` shim the
self-profiler times with), the CLI, the chaos driver, the recorder, or
the analysis pass.

Both rules hold over the import graph: a direct forbidden import is
reported at its statement, and a module that reaches a forbidden one
through clean-looking intermediates is reported at its first hop's
import with the witness path. Imports inside ``if TYPE_CHECKING:``
blocks are annotations-only and are exempt.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, List, Tuple

from repro.analysis.registry import ProjectRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.callgraph import Project
    from repro.analysis.findings import Finding

KERNEL_LAYERS = ("sim", "buffers", "power", "core", "cpu", "pipeline")

_KERNEL_FORBIDDEN = (
    "repro.harness",
    "repro.cli",
    "repro.faults.chaos",
    "repro.trace.recorder",
    "repro.analysis",
)
_TRACE_FORBIDDEN = (
    "repro.harness",
    "repro.cli",
)
_TELEMETRY_FORBIDDEN = (
    "repro.harness",
    "repro.cli",
    "repro.faults.chaos",
    "repro.trace.recorder",
    "repro.analysis",
)
#: The one harness import telemetry may take: the monotonic-clock shim
#: (``repro.harness.clock``) the kernel self-profiler measures with.
_TELEMETRY_ALLOWED = ("repro.harness.clock",)
RECORDER_MODULE = "repro.trace.recorder"


def _is_type_checking_test(test: ast.AST) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    if isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING":
        return True
    return False


def iter_runtime_imports(tree: ast.Module) -> Iterable[ast.stmt]:
    """Every Import/ImportFrom not guarded by ``if TYPE_CHECKING:``."""

    def walk(body: Iterable[ast.stmt]):
        for stmt in body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                yield stmt
            elif isinstance(stmt, ast.If):
                if not _is_type_checking_test(stmt.test):
                    yield from walk(stmt.body)
                yield from walk(stmt.orelse)
            elif isinstance(
                stmt,
                (
                    ast.For,
                    ast.AsyncFor,
                    ast.While,
                    ast.With,
                    ast.AsyncWith,
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                ),
            ):
                yield from walk(stmt.body)
                yield from walk(getattr(stmt, "orelse", []) or [])
            elif isinstance(stmt, ast.Try):
                yield from walk(stmt.body)
                for handler in stmt.handlers:
                    yield from walk(handler.body)
                yield from walk(stmt.orelse)
                yield from walk(stmt.finalbody)

    return walk(tree.body)


def imported_modules(
    node: ast.stmt, current_module: str
) -> List[Tuple[str, ast.stmt]]:
    """Absolute module names an import statement may bind.

    ``from repro.faults import chaos`` yields both ``repro.faults`` and
    ``repro.faults.chaos`` so submodule imports can't slip through the
    matrix. Relative imports are resolved against ``current_module``.
    """
    out: List[Tuple[str, ast.stmt]] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            out.append((alias.name, node))
    elif isinstance(node, ast.ImportFrom):
        if node.level:
            parts = current_module.split(".")
            # level 1 = the containing package of this module.
            base = parts[: len(parts) - node.level]
            prefix = ".".join(base)
            module = f"{prefix}.{node.module}" if node.module else prefix
        else:
            module = node.module or ""
        if module:
            out.append((module, node))
            for alias in node.names:
                if alias.name != "*":
                    out.append((f"{module}.{alias.name}", node))
    return out


def _violates(module: str, forbidden: Tuple[str, ...]) -> str:
    for prefix in forbidden:
        if module == prefix or module.startswith(prefix + "."):
            return prefix
    return ""


#: Where numpy is *sanctioned*: the vectorized batch layers. Workload
#: synthesis (``workloads``) and power instrumentation
#: (``power``) compute over whole arrays by design, as do the harness,
#: impls, metrics and reporting layers above the kernel. The DES core
#: (``sim``) is the one place numpy is banned: dispatch must stay pure
#: scalar python so the event loop has no per-event ufunc overhead, no
#: numpy-scalar leakage into timestamps, and a mypyc-compilable surface
#: (DESIGN.md §13). Exception: ``repro.sim.rng`` — the numpy Generator
#: *is* the seeded random source the whole tree shares.
NUMPY_BANNED_LAYERS = ("sim",)
_NUMPY_EXEMPT_MODULES = ("repro.sim.rng",)


def _matrix_for(module: str, layer: str):
    """(forbidden, allowed, role) for the module, or None if unrestricted."""
    if layer in KERNEL_LAYERS:
        return _KERNEL_FORBIDDEN, (), f"kernel layer `{layer}`"
    if layer == "trace" and module != RECORDER_MODULE:
        return _TRACE_FORBIDDEN, (), "trace core"
    if layer == "telemetry":
        return _TELEMETRY_FORBIDDEN, _TELEMETRY_ALLOWED, "telemetry core"
    return None


@register
class LayerBoundaryRule(ProjectRule):
    """LAYER001: the boundary matrix, over direct and transitive imports.

    A kernel module that imports a clean-looking sibling which *itself*
    (transitively) imports the harness has crossed the boundary just as
    surely as a direct import — the interpreter loads the harness either
    way. Each crossing is reported once: a witness path whose first hop
    is itself forbidden belongs to that direct import's finding.
    """

    code = "LAYER001"

    def check_project(self, project: "Project") -> List["Finding"]:
        out: List["Finding"] = []
        for facts in project.facts:
            module, path = facts["module"], facts["path"]
            matrix = _matrix_for(module, facts["layer"])
            if matrix is None:
                continue
            forbidden, allowed, role = matrix
            direct = set()
            for target, line in facts["runtime_imports"]:
                hit = _violates(target, forbidden)
                if not hit or _violates(target, allowed) or (line, hit) in direct:
                    continue
                direct.add((line, hit))
                out.append(
                    self.finding(
                        path,
                        line,
                        1,
                        f"{role} must not import `{hit}` (found `{target}`)",
                    )
                )
            reached = project.reachable_imports(module, skip=allowed)
            flagged = set()
            for target in sorted(reached):
                hit = _violates(target, forbidden)
                hops = reached[target]
                if not hit or _violates(hops[0], forbidden):
                    continue
                if (hops[0], hit) in flagged:
                    continue
                flagged.add((hops[0], hit))
                out.append(
                    self.finding(
                        path,
                        project.direct_import_line(module, hops[0]),
                        1,
                        f"{role} reaches `{hit}` via {' -> '.join(hops)} — "
                        f"the boundary matrix holds transitively",
                    )
                )
        return out


@register
class NumpyBoundaryRule(ProjectRule):
    """LAYER002: numpy must not reach the scalar DES core, whether by a
    direct import or through a re-export or an intermediate module.
    ``repro.sim.rng`` is the sanctioned numpy boundary, so paths through
    it are not traversed."""

    code = "LAYER002"

    def check_project(self, project: "Project") -> List["Finding"]:
        out: List["Finding"] = []
        for facts in project.facts:
            module, path = facts["module"], facts["path"]
            if (
                not module
                or facts["layer"] not in NUMPY_BANNED_LAYERS
                or module in _NUMPY_EXEMPT_MODULES
            ):
                continue
            lines = {
                line
                for target, line in facts["runtime_imports"]
                if _violates(target, ("numpy",))
            }
            for line in sorted(lines):
                out.append(
                    self.finding(
                        path,
                        line,
                        1,
                        "the DES core (`sim`) must stay scalar python — "
                        "numpy belongs in `workloads`/`power` and the "
                        "layers above the kernel (sim.rng excepted)",
                    )
                )
            hops = project.reachable_imports(
                module, skip=_NUMPY_EXEMPT_MODULES
            ).get("numpy")
            if hops is None or len(hops) < 2:
                continue  # unreachable, or the direct finding above
            out.append(
                self.finding(
                    path,
                    project.direct_import_line(module, hops[0]),
                    1,
                    f"the scalar DES core reaches numpy via "
                    f"{' -> '.join(hops)} — keep `sim` scalar "
                    f"(sim.rng is the sanctioned boundary)",
                )
            )
        return out
