"""Interprocedural taint engine + DET005.

DET001-004 are per-scope: they flag a wall-clock read, an entropy draw
or a hash-ordered iteration *where it happens*. What they cannot see is
flow — a helper that returns ``time.time()``, a function that forwards
its argument into ``env.schedule(...)``, a set built three calls away
and iterated here. This module closes that gap with a bounded
whole-program taint analysis:

* **Extraction** (:func:`extract_function_facts`): one straight-line
  walk per function produces a plain-dict summary — which taint
  kinds the function returns, which callees feed its return value,
  which parameters flow to its return or into a scheduling sink, which
  instance attributes it taints — plus every taint *sink* (scheduling
  call arguments, kernel ``self.<attr>`` writes, iteration heads).
* **Propagation** (:func:`propagate_returns`): a fixed-point over all
  summaries resolves callee refs through the project symbol table
  (re-exports included) and computes each function's returned taint
  set, bounded by :data:`PROPAGATION_BOUND` passes so cyclic call
  graphs terminate.
* **DET005** (:class:`CrossFunctionTaintRule`): flags taint that
  *reaches* a sink — a nondeterministic value entering ``schedule()``/
  ``timeout()`` anywhere, kernel state in a kernel layer, or a
  hash-ordered collection iterated after a call boundary.

Taint kinds: ``wall-clock`` (host time, including values produced by
the sanctioned ``repro.harness.clock`` shim — legal to *read* in the
harness, never legal to feed into kernel state), ``entropy``,
``unseeded-rng`` and ``set-order``. Scalar kinds survive arbitrary
value transforms (``max(t, 0)`` of a wall-clock read is still
wall-clock); ``set-order`` survives only order-preserving constructors
(``list``/``tuple``/``iter``/``reversed``/``enumerate``) and dies at
``sorted(...)`` or an unknown call boundary — aggregation usually
destroys ordering sensitivity, and assuming otherwise would drown the
signal.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import attr_ref, local_ref
from repro.analysis.registry import ProjectRule, register
from repro.analysis.rules_det import (
    _ENTROPY,
    _NUMPY_RNG_CONSTRUCTORS,
    _WALL_CLOCK,
)
from repro.analysis.rules_layer import KERNEL_LAYERS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.callgraph import Project
    from repro.analysis.engine import ModuleContext
    from repro.analysis.findings import Finding

#: Taint kinds.
WALL_CLOCK = "wall-clock"
ENTROPY = "entropy"
UNSEEDED_RNG = "unseeded-rng"
SET_ORDER = "set-order"

#: Max fixed-point passes over the summary table — the effective
#: call-depth bound for return-chain propagation.
PROPAGATION_BOUND = 12

#: Values produced by the wall-clock shim are host time; the shim module
#: itself is DET001-exempt, so the *flow* rule is the only guard against
#: its values reaching kernel state.
_CLOCK_SHIM_FNS = frozenset({"repro.harness.clock.perf_counter"})

#: Builtins through which scalar taint flows unchanged.
_PASSTHROUGH = frozenset(
    {"max", "min", "abs", "round", "float", "int", "sum", "pow", "divmod", "len"}
)
#: Constructors that preserve the iteration order of their argument —
#: ``list(a_set)`` is exactly as hash-ordered as the set was.
_ORDER_KEEPERS = frozenset({"list", "tuple", "iter", "reversed", "enumerate"})

#: Methods whose call is a scheduling sink (and, for ``schedule``, a
#: scheduling-hazard site for the SCHED rules).
SINK_METHODS = ("schedule", "timeout")


def source_kind(ref: Optional[str]) -> Optional[str]:
    """Taint kind produced by a resolved call target, if any."""
    if ref is None:
        return None
    if ref in _WALL_CLOCK or ref in _CLOCK_SHIM_FNS:
        return WALL_CLOCK
    if ref in _ENTROPY or ref.startswith("secrets."):
        return ENTROPY
    if (
        ref.startswith("random.")
        or ref in _NUMPY_RNG_CONSTRUCTORS
        or ref.startswith("numpy.random.")
    ):
        return UNSEEDED_RNG
    return None


class _Prov:
    """Provenance of one expression: direct taint kinds, flattened call
    refs (anything callable whose return value feeds the expression) and
    structured top-level call entries (for parameter-flow precision)."""

    __slots__ = ("taints", "refs", "entries")

    def __init__(self) -> None:
        self.taints: Set[str] = set()
        self.refs: Set[str] = set()
        self.entries: List[dict] = []

    def merge(self, other: "_Prov") -> "_Prov":
        self.taints |= other.taints
        self.refs |= other.refs
        self.entries.extend(other.entries)
        return self

    @property
    def interesting(self) -> bool:
        return bool(self.taints or self.refs)

    def public_taints(self) -> List[str]:
        return sorted(t for t in self.taints if not t.startswith("@param:"))

    def param_indices(self) -> List[int]:
        return sorted(
            int(t.split(":", 1)[1])
            for t in self.taints
            if t.startswith("@param:")
        )


def _entry_args(arg_provs: Sequence[Tuple[int, "_Prov"]]) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for idx, prov in arg_provs:
        if prov.interesting:
            out[str(idx)] = {
                "taints": sorted(prov.taints),
                "refs": sorted(prov.refs),
            }
    return out


class _FunctionWalker:
    """Straight-line taint walk over one function (or module) body."""

    def __init__(
        self,
        ctx: "ModuleContext",
        mid: str,
        qualname: str,
        classname: Optional[str],
        params: Sequence[str],
        defs: Dict[str, ast.AST],
    ) -> None:
        self.ctx = ctx
        self.mid = mid
        self.qualname = qualname
        self.classname = classname
        self.defs = defs
        #: name -> provenance of its current value
        self.env: Dict[str, _Prov] = {}
        for idx, name in enumerate(params):
            prov = _Prov()
            prov.taints.add(f"@param:{idx}")
            self.env[name] = prov
        self.ret = _Prov()
        self.ret_entries: List[dict] = []
        self.sinks: List[dict] = []
        self.sched_sites: List[dict] = []
        self.calls: List[dict] = []
        self._loop_targets: List[Set[str]] = []
        #: >0 while collecting arguments of an order-destroying call
        #: (``sorted``/``set``/``frozenset``) — iteration in there can't
        #: leak hash order, so no iter sink is recorded.
        self._order_blind = 0

    # -- call-target resolution --------------------------------------------

    def resolve_callee(self, func: ast.AST) -> Optional[str]:
        from repro.analysis.engine import dotted_parts

        parts = dotted_parts(func)
        if not parts:
            return None
        head = parts[0]
        if head in ("self", "cls") and self.classname and len(parts) == 2:
            return local_ref(self.mid, f"{self.classname}.{parts[1]}")
        origin = self.ctx.imports.get(head)
        if origin is not None:
            return ".".join(origin.split(".") + parts[1:])
        qual = ".".join(parts)
        if qual in self.defs:
            return local_ref(self.mid, qual)
        if len(parts) == 1 and head in self.defs:
            return local_ref(self.mid, head)
        return None

    # -- expression provenance ---------------------------------------------

    def collect(self, node: Optional[ast.AST]) -> _Prov:
        prov = _Prov()
        if node is None:
            return prov
        if isinstance(node, ast.Name):
            known = self.env.get(node.id)
            if known is not None:
                prov.taints |= known.taints
                prov.refs |= known.refs
                prov.entries.extend(known.entries)
            return prov
        if isinstance(node, ast.Attribute):
            from repro.analysis.engine import dotted_parts

            parts = dotted_parts(node)
            if (
                parts
                and parts[0] == "self"
                and self.classname
                and len(parts) == 2
            ):
                prov.refs.add(attr_ref(self.mid, f"{self.classname}.{parts[1]}"))
                return prov
            return self.collect(node.value)
        if isinstance(node, ast.Call):
            return self._collect_call(node)
        if isinstance(node, (ast.Set, ast.SetComp)):
            for child in ast.iter_child_nodes(node):
                prov.merge(self.collect(child))
            prov.taints.add(SET_ORDER)
            return prov
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                it = self.collect(gen.iter)
                self._note_iteration(gen.iter, it)
                prov.merge(it)
            for field in ("elt", "key", "value"):
                sub = getattr(node, field, None)
                if sub is not None:
                    prov.merge(self.collect(sub))
            return prov
        if isinstance(node, ast.comprehension):
            return prov
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.keyword)):
                target = child.value if isinstance(child, ast.keyword) else child
                prov.merge(self.collect(target))
        return prov

    def _collect_call(self, node: ast.Call) -> _Prov:
        prov = _Prov()
        fn = node.func
        args = list(node.args) + [kw.value for kw in node.keywords]
        if isinstance(fn, ast.Name):
            name = fn.id
            if name == "sorted":
                self._order_blind += 1
                for arg in args:
                    prov.merge(self.collect(arg))
                self._order_blind -= 1
                prov.taints.discard(SET_ORDER)
                prov.entries = []  # order provenance dies at the sort
                return prov
            if name in ("set", "frozenset"):
                self._order_blind += 1
                for arg in args:
                    prov.merge(self.collect(arg))
                self._order_blind -= 1
                prov.taints.add(SET_ORDER)
                prov.entries = []
                return prov
            if name in _ORDER_KEEPERS:
                for arg in args:
                    prov.merge(self.collect(arg))
                return prov
            if name in _PASSTHROUGH:
                for arg in args:
                    prov.merge(self.collect(arg))
                prov.entries = []
                return prov
        ref = self.resolve_callee(fn)
        kind = source_kind(ref)
        arg_provs = [(idx, self.collect(arg)) for idx, arg in enumerate(args)]
        for _idx, ap in arg_provs:
            # Scalar taint flows through an unknown callee with its
            # argument; ordering taint does not (see module docstring).
            prov.taints |= ap.taints - {SET_ORDER}
            prov.refs |= ap.refs
        if kind is not None:
            prov.taints.add(kind)
        elif ref is not None:
            prov.refs.add(ref)
            entry = {
                "ref": ref,
                "line": node.lineno,
                "args": _entry_args(arg_provs),
            }
            prov.entries.append(entry)
            self.calls.append(entry)
        self._note_sinks(node, fn, arg_provs)
        return prov

    # -- sinks & scheduling-hazard sites -------------------------------------

    def _note_sinks(
        self,
        node: ast.Call,
        fn: ast.AST,
        arg_provs: Sequence[Tuple[int, _Prov]],
    ) -> None:
        if not isinstance(fn, ast.Attribute) or fn.attr not in SINK_METHODS:
            return
        combined = _Prov()
        for _idx, ap in arg_provs:
            combined.merge(ap)
        if combined.interesting:
            self.sinks.append(
                {
                    "kind": "schedule",
                    "method": fn.attr,
                    "line": node.lineno,
                    "col": node.col_offset + 1,
                    "func": self.qualname,
                    "taints": combined.public_taints(),
                    "refs": sorted(combined.refs),
                    "params": combined.param_indices(),
                }
            )
        if fn.attr == "schedule":
            self.sched_sites.append(self._sched_site(node))

    def _sched_site(self, node: ast.Call) -> dict:
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        has_priority = "priority" in kwargs or len(node.args) >= 3
        target = kwargs.get("delay")
        if target is None and len(node.args) >= 2:
            target = node.args[1]
        kind = "zero"
        norm = "0"
        if target is not None:
            if isinstance(target, ast.Constant) and target.value in (0, 0.0):
                kind, norm = "zero", "0"
            elif _is_absolute_delay(target):
                kind, norm = "abs", ast.dump(target)
            else:
                kind, norm = "expr", ast.dump(target)
        loop_vars = set().union(*self._loop_targets) if self._loop_targets else set()
        target_names = (
            {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
            if target is not None
            else set()
        )
        return {
            "line": node.lineno,
            "col": node.col_offset + 1,
            "func": self.qualname,
            "has_priority": has_priority,
            "delay_kind": kind,
            "delay_norm": norm,
            "in_loop": bool(self._loop_targets),
            "loop_invariant": not (target_names & loop_vars),
        }

    def _note_iteration(self, node: ast.AST, prov: _Prov) -> None:
        """Record an iteration head whose ordering depends on a call
        result — the cross-function half of DET004 (the local half flags
        direct set expressions itself)."""
        if self._order_blind:
            return
        # Unwrap order-preserving constructors; a head that bottoms out
        # in sorted(...) iterates in a pinned order no matter what the
        # callees underneath return.
        head = node
        while (
            isinstance(head, ast.Call)
            and isinstance(head.func, ast.Name)
            and head.func.id in _ORDER_KEEPERS
            and head.args
        ):
            head = head.args[0]
        if (
            isinstance(head, ast.Call)
            and isinstance(head.func, ast.Name)
            and head.func.id == "sorted"
        ):
            return
        if prov.refs and SET_ORDER not in prov.taints:
            self.sinks.append(
                {
                    "kind": "iter",
                    "line": node.lineno,
                    "col": node.col_offset + 1,
                    "func": self.qualname,
                    "taints": [],
                    "refs": sorted(prov.refs),
                    "params": [],
                }
            )

    # -- statement walk -------------------------------------------------------

    def walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.visit(stmt)

    def _bind(self, target: ast.AST, prov: _Prov) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = prov
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, prov)
        elif isinstance(target, ast.Attribute):
            from repro.analysis.engine import dotted_parts

            parts = dotted_parts(target)
            if (
                parts
                and parts[0] == "self"
                and self.classname
                and len(parts) == 2
                and prov.interesting
            ):
                self.sinks.append(
                    {
                        "kind": "attr_write",
                        "target": f"{self.classname}.{parts[1]}",
                        "line": target.lineno,
                        "col": target.col_offset + 1,
                        "func": self.qualname,
                        "taints": prov.public_taints(),
                        "refs": sorted(prov.refs),
                        "params": prov.param_indices(),
                    }
                )

    def visit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            prov = self.collect(stmt.value)
            for target in stmt.targets:
                self._bind(target, prov)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self.collect(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            prov = self.collect(stmt.value)
            if isinstance(stmt.target, ast.Name):
                existing = self.env.get(stmt.target.id)
                if existing is not None:
                    prov.merge(existing)
            self._bind(stmt.target, prov)
        elif isinstance(stmt, (ast.Return, ast.Expr)):
            prov = self.collect(stmt.value)
            if isinstance(stmt, ast.Return):
                self.ret.merge(prov)
                self.ret_entries.extend(prov.entries)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            it = self.collect(stmt.iter)
            self._note_iteration(stmt.iter, it)
            names = {
                n.id
                for n in ast.walk(stmt.target)
                if isinstance(n, ast.Name)
            }
            element = _Prov()
            element.taints |= it.taints - {SET_ORDER}
            element.refs |= it.refs
            self._bind(stmt.target, element)
            self._loop_targets.append(names)
            self.walk(stmt.body)
            self._loop_targets.pop()
            self.walk(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.collect(stmt.test)
            self._loop_targets.append(set())
            self.walk(stmt.body)
            self._loop_targets.pop()
            self.walk(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.collect(stmt.test)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.collect(item.context_expr)
            self.walk(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.walk(stmt.body)
            for handler in stmt.handlers:
                self.walk(handler.body)
            self.walk(stmt.orelse)
            self.walk(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.expr):
                    self.collect(sub)
        # Nested defs/classes are walked as their own scopes.


def _is_absolute_delay(node: ast.AST) -> bool:
    """``X - <something>.now`` — the "aim at an absolute boundary" idiom.

    A delay computed by subtracting the current virtual time targets a
    specific timestamp; any other event aimed at the same boundary ties
    with it.
    """
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    right = node.right
    if isinstance(right, ast.Attribute) and right.attr == "now":
        return True
    return isinstance(right, ast.Name) and right.id == "now"


def _params_of(node: ast.AST, is_method: bool) -> List[str]:
    """Positional parameter names, indexed the way a *bound* call passes
    them — ``self``/``cls`` is dropped so ``obj.helper(x)``'s argument 0
    lines up with parameter marker ``@param:0``."""
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def extract_function_facts(
    ctx: "ModuleContext", mid: str
) -> Tuple[Dict[str, dict], List[dict], List[dict], List[dict]]:
    """(functions, sched_sites, sinks, calls) for one module.

    Walks module top-level plus every function/method (one class level
    deep, matching the symbol table) with a fresh straight-line walker.
    """
    from repro.analysis.callgraph import _collect_defs

    defs = _collect_defs(ctx.tree)
    functions: Dict[str, dict] = {}
    sched_sites: List[dict] = []
    sinks: List[dict] = []
    calls: List[dict] = []

    scopes: List[Tuple[str, Optional[str], Sequence[str], Sequence[ast.stmt]]] = [
        ("<module>", None, (), ctx.tree.body)
    ]
    for qualname, node in defs.items():
        classname = qualname.split(".")[0] if "." in qualname else None
        scopes.append(
            (qualname, classname, _params_of(node, classname is not None), node.body)
        )
    # Functions nested deeper than the symbol table resolves still get
    # walked (their sinks/hazard sites matter) under their own name.
    table_nodes = set(map(id, defs.values()))
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and id(node) not in table_nodes
        ):
            scopes.append((node.name, None, _params_of(node, False), node.body))

    for qualname, classname, params, body in scopes:
        walker = _FunctionWalker(ctx, mid, qualname, classname, params, defs)
        walker.walk(body)
        sched_sites.extend(walker.sched_sites)
        sinks.extend(walker.sinks)
        for entry in walker.calls:
            if entry["args"]:  # only calls that carry provenance matter
                calls.append(entry)
        if qualname != "<module>" and qualname in defs:
            node = defs[qualname]
            summary = {
                "line": node.lineno,
                "ret_taints": walker.ret.public_taints(),
                "ret_refs": sorted(walker.ret.refs),
                "ret_entries": walker.ret_entries,
                "ret_params": walker.ret.param_indices(),
                "param_sinks": [
                    {
                        "param": idx,
                        "line": sink["line"],
                        "method": sink.get("method", "schedule"),
                    }
                    for sink in walker.sinks
                    if sink["kind"] == "schedule"
                    for idx in sink["params"]
                ],
            }
            functions[qualname] = summary
    return functions, sched_sites, sinks, calls


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def _arg_taint(
    arg: Optional[dict], returns: Dict[str, Set[str]], project: "Project"
) -> Set[str]:
    if not arg:
        return set()
    taints = {t for t in arg["taints"] if not t.startswith("@param:")}
    for ref in arg["refs"]:
        key = project.resolve_ref(ref)
        if key is not None:
            taints |= returns.get(key, set()) - {SET_ORDER}
    return taints


def _entry_taint(
    entry: dict, returns: Dict[str, Set[str]], project: "Project"
) -> Set[str]:
    key = project.resolve_ref(entry["ref"])
    if key is None:
        return set()
    taints = set(returns.get(key, set()))
    summary = project.functions.get(key)
    if summary:
        for idx in summary.get("ret_params", ()):
            taints |= _arg_taint(
                entry.get("args", {}).get(str(idx)), returns, project
            )
    return taints


def propagate_returns(project: "Project") -> Dict[str, Set[str]]:
    """Fixed-point: canonical function/attr key -> returned taint kinds.

    Attribute keys aggregate every recorded write to that attribute;
    function keys follow return chains (entries keep ``set-order``
    precision, flattened refs carry scalar kinds through unknown
    wrappers). Bounded by PROPAGATION_BOUND passes.
    """
    returns: Dict[str, Set[str]] = {}
    for _ in range(PROPAGATION_BOUND):
        changed = False
        for key, summary in project.functions.items():
            taints = set(summary["ret_taints"])
            for entry in summary["ret_entries"]:
                taints |= _entry_taint(entry, returns, project)
            for ref in summary["ret_refs"]:
                target = project.resolve_ref(ref)
                if target is not None:
                    taints |= returns.get(target, set()) - {SET_ORDER}
            if taints != returns.get(key, set()):
                returns[key] = taints
                changed = True
        for key, writes in project.attr_writes.items():
            taints = set()
            for sink in writes:
                taints |= {
                    t for t in sink["taints"] if not t.startswith("@param:")
                }
                for ref in sink["refs"]:
                    target = project.resolve_ref(ref)
                    if target is not None:
                        taints |= returns.get(target, set())
            if taints != returns.get(key, set()):
                returns[key] = taints
                changed = True
        if not changed:
            break
    return returns


# ---------------------------------------------------------------------------
# DET005
# ---------------------------------------------------------------------------

_KERNEL_SET = frozenset(KERNEL_LAYERS)


@register
class CrossFunctionTaintRule(ProjectRule):
    code = "DET005"

    def check_project(self, project: "Project") -> List["Finding"]:
        returns = propagate_returns(project)
        out: List["Finding"] = []
        for facts in project.facts:
            path = facts["path"]
            kernel = facts["layer"] in _KERNEL_SET
            for sink in facts["sinks"]:
                taints = {
                    t for t in sink["taints"] if not t.startswith("@param:")
                }
                flow: List[str] = []
                for ref in sink["refs"]:
                    key = project.resolve_ref(ref)
                    if key is None:
                        continue
                    got = returns.get(key, set())
                    if sink["kind"] == "iter":
                        # Iteration sinks only care about ordering.
                        got = got & {SET_ORDER}
                    if got - taints:
                        flow.append(_describe_key(key))
                    taints |= got
                if sink["kind"] == "iter":
                    taints &= {SET_ORDER}
                if sink["kind"] == "attr_write" and not kernel:
                    continue
                if not taints:
                    continue
                out.append(self._render(path, sink, sorted(taints), flow))
            # Tainted arguments handed to a callee that forwards them
            # into a scheduling call: flag at the caller's call site.
            for entry in facts.get("calls", ()):
                key = project.resolve_ref(entry["ref"])
                if key is None:
                    continue
                summary = project.functions.get(key)
                if not summary:
                    continue
                for psink in summary.get("param_sinks", ()):
                    taints = _arg_taint(
                        entry.get("args", {}).get(str(psink["param"])),
                        returns,
                        project,
                    )
                    if not taints:
                        continue
                    out.append(
                        self.finding(
                            path,
                            entry["line"],
                            1,
                            f"nondeterministic argument "
                            f"({'/'.join(sorted(taints))}) flows into "
                            f"`.{psink['method']}(...)` inside "
                            f"`{_describe_key(key)}` (line {psink['line']} "
                            f"there)",
                        )
                    )
        return out

    def _render(
        self, path: str, sink: dict, taints: List[str], flow: List[str]
    ) -> "Finding":
        kinds = "/".join(taints)
        via = f" via {', '.join(flow[:3])}" if flow else ""
        if sink["kind"] == "schedule":
            msg = (
                f"nondeterministic value ({kinds}) reaches "
                f"`.{sink['method']}(...)`{via} — virtual timestamps and "
                f"event payloads must be pure functions of run parameters"
            )
        elif sink["kind"] == "attr_write":
            msg = (
                f"kernel state `self.{sink['target'].split('.', 1)[1]}` "
                f"assigned a nondeterministic value ({kinds}){via}"
            )
        else:
            msg = (
                f"iteration order depends on a hash-ordered collection "
                f"returned{via or ' by a callee'} — sort before iterating"
            )
        return self.finding(path, sink["line"], sink["col"], msg)


def _describe_key(key: str) -> str:
    mid, _, qualname = key.rpartition(":")
    if mid.startswith("@file:"):
        return qualname
    return f"{mid}.{qualname}"
