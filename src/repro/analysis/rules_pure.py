"""PURE rules: kernel modules stay side-effect free.

PURE001  file/network I/O in a kernel layer (open(), Path read/write
         helpers, socket/http imports).
PURE002  concurrency escape hatches in a kernel layer (threading,
         multiprocessing, subprocess, asyncio, os.fork/system) — the
         kernel is single-threaded by construction; parallelism lives in
         harness.parallel.
PURE003  ambient configuration via ``os.environ``/``os.getenv`` anywhere
         except ``repro.harness.params`` (the single place allowed to
         read the environment and fold it into explicit parameters).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, List

from repro.analysis.registry import LintRule, register
from repro.analysis.rules_det import resolved_call
from repro.analysis.rules_layer import (
    KERNEL_LAYERS,
    imported_modules,
    iter_runtime_imports,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import ModuleContext
    from repro.analysis.findings import Finding

PARAMS_MODULE = "repro.harness.params"

_IO_IMPORTS = ("socket", "ssl", "http", "urllib", "requests", "ftplib", "smtplib")
_IO_ATTR_CALLS = frozenset(
    {"write_text", "read_text", "write_bytes", "read_bytes", "open"}
)
_CONCURRENCY_IMPORTS = (
    "threading",
    "_thread",
    "multiprocessing",
    "concurrent",
    "subprocess",
    "asyncio",
)
_PROCESS_CALLS = frozenset(
    {"os.fork", "os.forkpty", "os.system", "os.popen", "os.spawnl", "os.spawnv"}
)
_ENV_CALLS = frozenset({"os.getenv", "os.putenv", "os.unsetenv", "os.environb"})


def _is_kernel(ctx: "ModuleContext") -> bool:
    return ctx.layer in KERNEL_LAYERS


def _forbidden_import(module: str, prefixes) -> str:
    for prefix in prefixes:
        if module == prefix or module.startswith(prefix + "."):
            return prefix
    return ""


@register
class KernelIORule(LintRule):
    code = "PURE001"

    def check(self, ctx: "ModuleContext") -> List["Finding"]:
        if not _is_kernel(ctx):
            return []
        out: List["Finding"] = []
        for stmt in iter_runtime_imports(ctx.tree):
            for module, node in imported_modules(stmt, ctx.module or ""):
                hit = _forbidden_import(module, _IO_IMPORTS)
                if hit:
                    out.append(
                        self.finding(
                            ctx, node, f"kernel layer imports I/O module `{hit}`"
                        )
                    )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id == "open":
                out.append(
                    self.finding(
                        ctx, node, "kernel layer calls open() — no file I/O"
                    )
                )
            elif isinstance(fn, ast.Attribute) and fn.attr in _IO_ATTR_CALLS:
                out.append(
                    self.finding(
                        ctx,
                        node,
                        f"kernel layer calls `.{fn.attr}(...)` — no file I/O",
                    )
                )
        return out


@register
class KernelConcurrencyRule(LintRule):
    code = "PURE002"

    def check(self, ctx: "ModuleContext") -> List["Finding"]:
        if not _is_kernel(ctx):
            return []
        out: List["Finding"] = []
        for stmt in iter_runtime_imports(ctx.tree):
            for module, node in imported_modules(stmt, ctx.module or ""):
                hit = _forbidden_import(module, _CONCURRENCY_IMPORTS)
                if hit:
                    out.append(
                        self.finding(
                            ctx,
                            node,
                            f"kernel layer imports `{hit}` — the kernel is "
                            f"single-threaded; parallelism lives in "
                            f"harness.parallel",
                        )
                    )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = resolved_call(ctx, node)
                if name in _PROCESS_CALLS:
                    out.append(
                        self.finding(
                            ctx, node, f"kernel layer spawns via `{name}`"
                        )
                    )
        return out


@register
class EnvironRule(LintRule):
    code = "PURE003"

    def check(self, ctx: "ModuleContext") -> List["Finding"]:
        if ctx.module == PARAMS_MODULE:
            return []
        out: List["Finding"] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr == "environ":
                if (
                    isinstance(node.value, ast.Name)
                    and ctx.imports.get(node.value.id) == "os"
                ):
                    out.append(
                        self.finding(
                            ctx,
                            node,
                            "os.environ touched outside harness.params — "
                            "ambient config must flow through explicit "
                            "parameters",
                        )
                    )
            elif isinstance(node, ast.Call):
                name = resolved_call(ctx, node)
                if name in _ENV_CALLS:
                    out.append(
                        self.finding(
                            ctx,
                            node,
                            f"`{name}` outside harness.params — ambient "
                            f"config must flow through explicit parameters",
                        )
                    )
        return out
