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

Imports inside ``if TYPE_CHECKING:`` blocks are annotations-only and are
exempt.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, List, Tuple

from repro.analysis.registry import (
    LintRule,
    ProjectRule,
    register,
    register_project,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.callgraph import Project
    from repro.analysis.engine import ModuleContext
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


@register
class NumpyBoundaryRule(LintRule):
    code = "LAYER002"
    summary = "numpy import in the scalar DES core"

    def check(self, ctx: "ModuleContext") -> List["Finding"]:
        if (
            ctx.module is None
            or ctx.layer not in NUMPY_BANNED_LAYERS
            or ctx.module in _NUMPY_EXEMPT_MODULES
        ):
            return []
        out: List["Finding"] = []
        for stmt in iter_runtime_imports(ctx.tree):
            for module, node in imported_modules(stmt, ctx.module):
                if module == "numpy" or module.startswith("numpy."):
                    out.append(
                        self.finding(
                            ctx,
                            node,
                            "the DES core (`sim`) must stay scalar python — "
                            "numpy belongs in `workloads`/`power` and the "
                            "layers above the kernel (sim.rng excepted)",
                        )
                    )
                    break
        return out


@register
class LayerBoundaryRule(LintRule):
    code = "LAYER001"
    summary = "import crosses the layer boundary matrix"

    def check(self, ctx: "ModuleContext") -> List["Finding"]:
        if ctx.module is None or ctx.layer is None:
            return []
        allowed: Tuple[str, ...] = ()
        if ctx.layer in KERNEL_LAYERS:
            forbidden = _KERNEL_FORBIDDEN
            role = f"kernel layer `{ctx.layer}`"
        elif ctx.layer == "trace" and ctx.module != RECORDER_MODULE:
            forbidden = _TRACE_FORBIDDEN
            role = "trace core"
        elif ctx.layer == "telemetry":
            forbidden = _TELEMETRY_FORBIDDEN
            allowed = _TELEMETRY_ALLOWED
            role = "telemetry core"
        else:
            return []
        out: List["Finding"] = []
        seen = set()
        for stmt in iter_runtime_imports(ctx.tree):
            for module, node in imported_modules(stmt, ctx.module):
                if any(
                    module == ok or module.startswith(ok + ".")
                    for ok in allowed
                ):
                    continue
                hit = _violates(module, forbidden)
                if hit and (node.lineno, hit) not in seen:
                    seen.add((node.lineno, hit))
                    out.append(
                        self.finding(
                            ctx,
                            node,
                            f"{role} must not import `{hit}` "
                            f"(found `{module}`)",
                        )
                    )
        return out


# ---------------------------------------------------------------------------
# reachability upgrades: the matrix over the *transitive* import graph
# ---------------------------------------------------------------------------


def _matrix_for(module: str, layer: str):
    """(forbidden, allowed, role) for the module, or None if unrestricted.

    The same matrix the direct rules enforce — factored so the
    transitive project rules can't drift from it.
    """
    if layer in KERNEL_LAYERS:
        return _KERNEL_FORBIDDEN, (), f"kernel layer `{layer}`"
    if layer == "trace" and module != RECORDER_MODULE:
        return _TRACE_FORBIDDEN, (), "trace core"
    if layer == "telemetry":
        return _TELEMETRY_FORBIDDEN, _TELEMETRY_ALLOWED, "telemetry core"
    return None


@register_project
class TransitiveLayerRule(ProjectRule):
    """LAYER001 upgraded from direct imports to reachability.

    A kernel module that imports a clean-looking sibling which *itself*
    (transitively) imports the harness has crossed the boundary just as
    surely as a direct import — the interpreter loads the harness either
    way. The finding anchors at the first hop's import statement and
    spells out the witness path.
    """

    code = "LAYER001"
    summary = "module transitively reaches a forbidden layer"

    def check_project(self, project: "Project") -> List["Finding"]:
        out: List["Finding"] = []
        for facts in project.facts:
            module, layer = facts["module"], facts["layer"]
            if not module or not layer:
                continue
            matrix = _matrix_for(module, layer)
            if matrix is None:
                continue
            forbidden, allowed, role = matrix
            reached = project.reachable_imports(module, skip=allowed)
            flagged = set()
            for target in sorted(reached):
                hit = _violates(target, forbidden)
                if not hit:
                    continue
                path = reached[target]
                first_hop = path[0]
                if _violates(first_hop, forbidden):
                    continue  # the direct rule already owns this one
                if (first_hop, hit) in flagged:
                    continue
                flagged.add((first_hop, hit))
                out.append(
                    self.finding(
                        facts["path"],
                        project.direct_import_line(module, first_hop),
                        1,
                        f"{role} reaches `{hit}` via "
                        f"{' -> '.join(path)} — the boundary matrix "
                        f"holds transitively",
                    )
                )
        return out


@register_project
class TransitiveNumpyRule(ProjectRule):
    """LAYER002 upgraded to reachability: numpy must not leak into the
    scalar DES core through a re-export or an intermediate module.
    ``repro.sim.rng`` is the sanctioned numpy boundary, so paths through
    it are not traversed."""

    code = "LAYER002"
    summary = "numpy transitively reaches the scalar DES core"

    def check_project(self, project: "Project") -> List["Finding"]:
        out: List["Finding"] = []
        for facts in project.facts:
            module, layer = facts["module"], facts["layer"]
            if (
                not module
                or layer not in NUMPY_BANNED_LAYERS
                or module in _NUMPY_EXEMPT_MODULES
            ):
                continue
            reached = project.reachable_imports(
                module, skip=_NUMPY_EXEMPT_MODULES
            )
            path = reached.get("numpy")
            if path is None or len(path) < 2:
                continue  # unreachable, or direct (LAYER002 local owns it)
            out.append(
                self.finding(
                    facts["path"],
                    project.direct_import_line(module, path[0]),
                    1,
                    f"the scalar DES core reaches numpy via "
                    f"{' -> '.join(path)} — keep `sim` scalar "
                    f"(sim.rng is the sanctioned boundary)",
                )
            )
        return out
