"""Project-wide symbol table, call graph and transitive import graph.

The whole-program half of ``repro lint`` works on *facts*, not ASTs: for
every source file, :func:`extract_facts` distills the module into a
plain dict (imports, function taint summaries, schedule call sites,
taint sinks). The project rules (taint propagation, scheduling-hazard
rules, the layer matrix) run over the facts of all files at once.

:class:`Project` stitches per-file facts together:

* a **symbol table** mapping module-qualified names to function
  summaries, following re-export chains (``from repro.x import helper``
  in an ``__init__`` resolves to ``repro.x.helper``);
* a **call graph** implicit in the summaries' resolved callee refs;
* a transitive **import graph** over repro-internal modules (plus a
  pseudo-node for numpy), over which LAYER001/LAYER002 check the
  import matrix by reachability.

Callee refs use three spellings: absolute dotted names for imported
targets (``repro.harness.clock.perf_counter``), ``@local:<module>:<qualname>``
for definitions in the same file, and ``@attr:<module>:<Class>.<attr>``
for instance-attribute provenance. :meth:`Project.resolve_ref` collapses
all three to a canonical key into the summary table.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

#: How many re-export / summary hops a resolution may take before the
#: analysis gives up (keeps cyclic import graphs and pathological alias
#: chains bounded).
RESOLUTION_BOUND = 8


# ---------------------------------------------------------------------------
# module identity
# ---------------------------------------------------------------------------


def module_id(module: Optional[str], display_path: str) -> str:
    """Stable identity for a file's namespace.

    Files under a ``repro`` path component use their dotted module name;
    anything else (test fixtures, scratch files) gets a path-derived
    pseudo-module so local-call resolution still works within the file.
    """
    return module if module else f"@file:{display_path}"


def local_ref(mid: str, qualname: str) -> str:
    return f"@local:{mid}:{qualname}"


def attr_ref(mid: str, qualname: str) -> str:
    return f"@attr:{mid}:{qualname}"


# ---------------------------------------------------------------------------
# per-file fact extraction
# ---------------------------------------------------------------------------


def _collect_defs(tree: ast.Module) -> Dict[str, ast.AST]:
    """Top-level functions and methods, keyed by qualified name.

    One level of class nesting is resolved (``Class.method``); deeper
    nesting is out of scope for the bounded whole-program pass.
    """
    defs: Dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[f"{node.name}.{sub.name}"] = sub
    return defs


def extract_facts(ctx) -> dict:
    """Distill one :class:`~repro.analysis.engine.ModuleContext` into the
    fact record the project pass uses."""
    from repro.analysis.rules_layer import imported_modules, iter_runtime_imports
    from repro.analysis.taint import extract_function_facts

    mid = module_id(ctx.module, ctx.display_path)
    runtime_imports: List[Tuple[str, int]] = []
    for stmt in iter_runtime_imports(ctx.tree):
        for module, node in imported_modules(stmt, ctx.module or ""):
            runtime_imports.append((module, node.lineno))

    functions, sched_sites, sinks, calls = extract_function_facts(ctx, mid)

    return {
        "path": ctx.display_path,
        "module": ctx.module,
        "module_id": mid,
        "layer": ctx.layer,
        "imports": dict(ctx.imports),
        "runtime_imports": runtime_imports,
        "functions": functions,
        "sched_sites": sched_sites,
        "sinks": sinks,
        "calls": calls,
    }


# ---------------------------------------------------------------------------
# the project: symbol table + import graph over all facts
# ---------------------------------------------------------------------------


class Project:
    """Whole-program view over per-file facts."""

    def __init__(self, facts: Sequence[dict]) -> None:
        self.facts = list(facts)
        #: module id -> facts dict (repro dotted names and @file pseudo-ids)
        self.by_module: Dict[str, dict] = {}
        #: canonical function key "<module id>:<qualname>" -> summary dict
        self.functions: Dict[str, dict] = {}
        #: canonical attr key "<module id>:<Class>.<attr>" -> write records
        self.attr_writes: Dict[str, List[dict]] = {}
        for f in self.facts:
            mid = f["module_id"]
            self.by_module[mid] = f
            for qualname, summary in f["functions"].items():
                self.functions[f"{mid}:{qualname}"] = summary
            for sink in f["sinks"]:
                if sink["kind"] == "attr_write":
                    key = f"{mid}:{sink['target']}"
                    self.attr_writes.setdefault(key, []).append(sink)
        self._import_edges: Optional[Dict[str, List[Tuple[str, int]]]] = None

    # -- symbol resolution --------------------------------------------------

    def resolve_ref(self, ref: str) -> Optional[str]:
        """Canonical function-table key for a callee ref, or None.

        Follows re-export chains: an absolute ref ``repro.a.b.helper``
        whose module facts merely alias ``helper`` from another module
        resolves through that alias, bounded by RESOLUTION_BOUND hops.
        """
        for _ in range(RESOLUTION_BOUND):
            if ref.startswith("@local:") or ref.startswith("@attr:"):
                kind, mid, qualname = ref.split(":", 2)
                key = f"{mid}:{qualname}"
                if kind == "@attr":
                    return key if key in self.attr_writes else None
                if key in self.functions:
                    return key
                # Not defined in the file after all — maybe a name the
                # module imported; retry as absolute if the module is a
                # real dotted name.
                facts = self.by_module.get(mid)
                if facts is None or mid.startswith("@file:"):
                    return None
                origin = facts["imports"].get(qualname.split(".")[0])
                if origin is None:
                    return None
                ref = ".".join([origin] + qualname.split(".")[1:])
                continue
            # Absolute dotted ref: find the longest module prefix we have
            # facts for; the remainder is the qualified name inside it.
            parts = ref.split(".")
            for cut in range(len(parts) - 1, 0, -1):
                mid = ".".join(parts[:cut])
                facts = self.by_module.get(mid)
                if facts is None:
                    continue
                qualname = ".".join(parts[cut:])
                key = f"{mid}:{qualname}"
                if key in self.functions:
                    return key
                head = parts[cut]
                origin = facts["imports"].get(head)
                if origin is not None:
                    ref = ".".join([origin] + parts[cut + 1 :])
                    break
                return None
            else:
                return None
        return None

    # -- import graph -------------------------------------------------------

    def _edges(self) -> Dict[str, List[Tuple[str, int]]]:
        """module id -> [(imported module id | "numpy", first lineno)]."""
        if self._import_edges is not None:
            return self._import_edges
        edges: Dict[str, List[Tuple[str, int]]] = {}
        for f in self.facts:
            mid = f["module_id"]
            seen: Dict[str, int] = {}
            for module, lineno in f["runtime_imports"]:
                target: Optional[str] = None
                if module == "numpy" or module.startswith("numpy."):
                    target = "numpy"
                elif module in self.by_module:
                    target = module
                if target is not None and target != mid and target not in seen:
                    seen[target] = lineno
            edges[mid] = sorted(seen.items())
        self._import_edges = edges
        return edges

    def reachable_imports(
        self,
        mid: str,
        skip: Tuple[str, ...] = (),
    ) -> Dict[str, Tuple[str, ...]]:
        """Transitively imported modules, with one witness path each.

        Returns ``{reached module: (hop, hop, ..., reached)}`` for every
        module reachable from ``mid`` (excluding ``mid`` itself). BFS, so
        witness paths are shortest; modules matching a ``skip`` prefix
        are neither reported nor traversed (the sanctioned boundaries,
        e.g. ``repro.harness.clock`` for telemetry).
        """
        edges = self._edges()
        out: Dict[str, Tuple[str, ...]] = {}
        queue: List[Tuple[str, Tuple[str, ...]]] = [(mid, ())]
        visited = {mid}
        while queue:
            current, path = queue.pop(0)
            for target, _lineno in edges.get(current, ()):
                if target in visited:
                    continue
                if any(
                    target == s or target.startswith(s + ".") for s in skip
                ):
                    continue
                visited.add(target)
                out[target] = path + (target,)
                queue.append((target, path + (target,)))
        return out

    def direct_import_line(self, mid: str, target: str) -> int:
        for mod, lineno in self._edges().get(mid, ()):
            if mod == target:
                return lineno
        return 1
