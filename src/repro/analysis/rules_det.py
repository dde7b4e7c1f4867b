"""DET rules: determinism at the source level.

DET001  wall-clock reads (time.time/perf_counter/datetime.now/...)
        anywhere except the allowlisted ``repro.harness.clock`` shim.
DET002  ambient entropy (os.urandom, uuid1/uuid4, secrets).
DET003  RNG discipline: stdlib ``random`` is banned outright; numpy
        generator/seed construction is allowed only inside
        ``repro.sim.rng`` (named streams derived from run parameters).
DET004  iteration over set/frozenset values (or expressions derived from
        them) without an ordering step — hash order leaks into output.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, List, Optional, Set

from repro.analysis.registry import LintRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import ModuleContext
    from repro.analysis.findings import Finding

CLOCK_SHIM_MODULE = "repro.harness.clock"
RNG_HOME_MODULE = "repro.sim.rng"

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_ENTROPY = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

_NUMPY_RNG_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "numpy.random.PCG64",
        "numpy.random.Philox",
    }
)


def resolved_call(ctx: "ModuleContext", call: ast.Call) -> Optional[str]:
    """Canonical dotted name of a call target, only when its head name was
    imported in this file (avoids flagging local variables that shadow
    module names)."""
    from repro.analysis.engine import dotted_parts

    parts = dotted_parts(call.func)
    if not parts or parts[0] not in ctx.imports:
        return None
    origin = ctx.imports[parts[0]]
    return ".".join(origin.split(".") + parts[1:])


def _iter_calls(tree: ast.AST) -> Iterable[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register
class WallClockRule(LintRule):
    code = "DET001"

    def check(self, ctx: "ModuleContext") -> List["Finding"]:
        if ctx.module == CLOCK_SHIM_MODULE:
            return []
        out = []
        for call in _iter_calls(ctx.tree):
            name = resolved_call(ctx, call)
            if name in _WALL_CLOCK:
                out.append(
                    self.finding(
                        ctx,
                        call,
                        f"wall-clock read `{name}` — route timing through "
                        f"repro.harness.clock (virtual time comes from env.now)",
                    )
                )
        return out


@register
class EntropyRule(LintRule):
    code = "DET002"

    def check(self, ctx: "ModuleContext") -> List["Finding"]:
        out = []
        for call in _iter_calls(ctx.tree):
            name = resolved_call(ctx, call)
            if name is None:
                continue
            if name in _ENTROPY or name.startswith("secrets."):
                out.append(
                    self.finding(
                        ctx,
                        call,
                        f"ambient entropy `{name}` — runs must be a pure "
                        f"function of their parameters; use sim.rng streams",
                    )
                )
        return out


@register
class RngDisciplineRule(LintRule):
    code = "DET003"

    def check(self, ctx: "ModuleContext") -> List["Finding"]:
        if ctx.module == RNG_HOME_MODULE:
            return []
        out = []
        for call in _iter_calls(ctx.tree):
            name = resolved_call(ctx, call)
            if name is None:
                continue
            if name.startswith("random."):
                out.append(
                    self.finding(
                        ctx,
                        call,
                        f"stdlib `{name}` draws from process-global state — "
                        f"use a named stream from sim.rng.RandomStreams",
                    )
                )
            elif name in _NUMPY_RNG_CONSTRUCTORS:
                out.append(
                    self.finding(
                        ctx,
                        call,
                        f"`{name}` outside sim.rng — seeds must be derived "
                        f"from run parameters by RandomStreams only",
                    )
                )
            elif name.startswith("numpy.random."):
                out.append(
                    self.finding(
                        ctx,
                        call,
                        f"`{name}` uses numpy's global RNG state — draw from "
                        f"a sim.rng stream instead",
                    )
                )
        return out


# ---------------------------------------------------------------------------
# DET004: set-iteration order leaks (small intra-scope taint walk)
# ---------------------------------------------------------------------------

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
_ORDERED_CONSUMERS = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


class _ScopeWalker:
    """Sequential, per-scope taint walk: which names hold set values, and
    where does a set value get iterated without ``sorted``?"""

    def __init__(self, rule: LintRule, ctx: "ModuleContext"):
        self.rule = rule
        self.ctx = ctx
        self.tainted: Set[str] = set()
        self.findings: List["Finding"] = []

    # -- taint classification ------------------------------------------------

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
                return True
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr in _SET_METHODS
                and self.is_set_expr(fn.value)
            ):
                return True
        return False

    # -- violations ----------------------------------------------------------

    def _flag(self, node: ast.AST, how: str) -> None:
        self.findings.append(
            self.rule.finding(
                self.ctx,
                node,
                f"iteration over a set {how} depends on hash order — wrap in "
                f"sorted(...) (or suppress if provably order-free)",
            )
        )

    def check_expr(self, node: ast.AST) -> None:
        """Look for order-sensitive consumption of set values inside an
        arbitrary expression tree."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                fn = sub.func
                if isinstance(fn, ast.Name) and fn.id == "sorted":
                    continue  # the sanctioned ordering step
                if isinstance(fn, ast.Name) and fn.id in _ORDERED_CONSUMERS:
                    if any(self.is_set_expr(a) for a in sub.args):
                        self._flag(sub, f"via {fn.id}()")
                elif isinstance(fn, ast.Attribute) and fn.attr == "join":
                    if any(self.is_set_expr(a) for a in sub.args):
                        self._flag(sub, "via str.join")
                elif (
                    isinstance(fn, ast.Attribute)
                    and fn.attr == "fromkeys"
                    and isinstance(fn.value, ast.Name)
                    and fn.value.id == "dict"
                ):
                    if sub.args and self.is_set_expr(sub.args[0]):
                        self._flag(sub, "via dict.fromkeys")
            elif isinstance(sub, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for gen in sub.generators:
                    if self.is_set_expr(gen.iter):
                        self._flag(sub, "in a comprehension")

    # -- statement walk (source order, straight-line approximation) ----------

    def walk(self, body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            self.visit_stmt(stmt)

    def _bind(self, target: ast.AST, set_valued: bool) -> None:
        if isinstance(target, ast.Name):
            if set_valued:
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, False)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.check_expr(stmt.value)
            set_valued = self.is_set_expr(stmt.value)
            for target in stmt.targets:
                self._bind(target, set_valued)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self.check_expr(stmt.value)
            self._bind(stmt.target, self.is_set_expr(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self.check_expr(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.check_expr(stmt.iter)
            if self.is_set_expr(stmt.iter):
                self._flag(stmt, "in a for loop")
            self._bind(stmt.target, False)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.check_expr(stmt.test)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.check_expr(item.context_expr)
            self.walk(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.walk(stmt.body)
            for handler in stmt.handlers:
                self.walk(handler.body)
            self.walk(stmt.orelse)
            self.walk(stmt.finalbody)
        elif isinstance(stmt, (ast.Expr, ast.Return)) and stmt.value is not None:
            self.check_expr(stmt.value)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested scopes are walked separately
        elif isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
            for sub in ast.iter_child_nodes(stmt):
                self.check_expr(sub)


@register
class SetIterationRule(LintRule):
    code = "DET004"

    def check(self, ctx: "ModuleContext") -> List["Finding"]:
        findings: List["Finding"] = []
        scopes: List[Iterable[ast.stmt]] = [ctx.tree.body]
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node.body)
        for body in scopes:
            walker = _ScopeWalker(self, ctx)
            walker.walk(body)
            findings.extend(walker.findings)
        return findings
