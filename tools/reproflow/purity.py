"""F-series rules: purity / fork-safety of worker-reachable code.

The parallel surfaces — the CLI ``run-all`` process-pool fan-out, the
experiment ``@implements`` entry points it dispatches, and the other
pool workers (``labeled_traces`` trace builders, gateway decode
groups) — must stay deterministic under fork/spawn.  That requires
every function reachable from those roots to avoid mutating
module-level state:

F001  worker-reachable function mutates a module-level global
F002  worker-reachable function clears a cache: calls
      ``wavecache.clear_caches()`` or an ``lru_cache`` function's
      ``cache_clear()`` (calling the cached function is the only
      sanctioned way to touch a cache)

Roots are detected statically: the callable handed to ``pool.submit``
/ ``pool.map`` / ``loop.run_in_executor``, and any function decorated
with ``@implements`` (the experiment-registry hook ``run-all`` fans out
over).
"""

from __future__ import annotations

import ast
from collections import deque

from tools.analysis_common import Finding
from tools.reproflow.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    walk_function_body,
)

__all__ = ["worker_roots", "reachable_functions", "check_purity"]

WAVECACHE_MODULE = "repro.core.wavecache"

#: wavecache entry points that rewrite shared cache state.
_WAVECACHE_WRITERS = frozenset({"clear_caches"})

#: method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "sort",
        "reverse",
        "put",
        "move_to_end",
    }
)


def worker_roots(index: ProjectIndex) -> set[str]:
    """Fully-qualified names of all worker entry points."""
    roots: set[str] = set()
    for fn in index.functions.values():
        roots.update(t for t in fn.spawn_targets if t in index.functions)
        if any(d.split(".")[-1] == "implements" for d in fn.decorators):
            roots.add(fn.fq)
    return roots


def reachable_functions(index: ProjectIndex, roots: set[str]) -> set[str]:
    """BFS closure over call + bare-reference edges."""
    seen: set[str] = set()
    queue = deque(sorted(roots))
    while queue:
        fq = queue.popleft()
        if fq in seen or fq not in index.functions:
            continue
        seen.add(fq)
        fn = index.functions[fq]
        for edge in (*fn.calls, *fn.references, *fn.spawn_targets):
            if edge not in seen:
                queue.append(edge)
    return seen


def _local_bindings(fn: FunctionInfo) -> set[str]:
    """Names bound inside the function (they shadow module globals)."""
    bound: set[str] = set(fn.param_units)
    args = fn.node.args
    if args.vararg is not None:
        bound.add(args.vararg.arg)
    if args.kwarg is not None:
        bound.add(args.kwarg.arg)
    globals_declared: set[str] = set()
    for node in walk_function_body(fn.node):
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for t in targets:
                if isinstance(t, ast.Name):
                    bound.add(t.id)
                elif isinstance(t, (ast.Tuple, ast.List, ast.Starred)):
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            bound.add(n.id)
        elif isinstance(node, ast.For):
            for n in ast.walk(node.target):
                if isinstance(n, ast.Name):
                    bound.add(n.id)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            for n in ast.walk(node.optional_vars):
                if isinstance(n, ast.Name):
                    bound.add(n.id)
        elif isinstance(node, ast.comprehension):
            for n in ast.walk(node.target):
                if isinstance(n, ast.Name):
                    bound.add(n.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return bound - globals_declared


def _root_name(node: ast.expr) -> str | None:
    """Leftmost name of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class _PurityChecker:
    def __init__(
        self,
        index: ProjectIndex,
        mod: ModuleInfo,
        fn: FunctionInfo,
        findings: list[Finding],
    ) -> None:
        self.index = index
        self.mod = mod
        self.fn = fn
        self.findings = findings
        self.locals = _local_bindings(fn)
        self.globals_declared: set[str] = {
            name
            for node in walk_function_body(fn.node)
            if isinstance(node, ast.Global)
            for name in node.names
        }

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.mod.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
                symbol=self.fn.fq,
            )
        )

    def _is_module_global(self, name: str | None) -> bool:
        """True when ``name`` denotes shared module-level state."""
        if name is None or name in self.locals:
            return False
        if name in self.mod.module_level_names:
            return True
        # an imported *project* module: mutating its attributes is just
        # as much a cross-process hazard as mutating our own globals
        target = self.mod.imports.get(name)
        return target is not None and target in self.index.modules

    def _wavecache_target(self, name: str | None) -> bool:
        """Does ``name`` refer to the wavecache module?"""
        return name is not None and self.mod.imports.get(name) == WAVECACHE_MODULE

    # ------------------------------------------------------------- check
    def check(self) -> None:
        if self.mod.name == WAVECACHE_MODULE:
            return  # the cache table itself
        for node in walk_function_body(self.fn.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for t in targets:
                    self._check_store(node, t)
            elif isinstance(node, ast.AugAssign):
                self._check_store(node, node.target)
            elif isinstance(node, ast.Call):
                self._check_call(node)

    def _check_store(self, stmt: ast.stmt, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                self._report(
                    stmt,
                    "F001",
                    f"worker-reachable function rebinds module global "
                    f"'{target.id}' (declared global)",
                )
            elif isinstance(stmt, ast.AugAssign) and self._is_module_global(
                target.id
            ):
                self._report(
                    stmt,
                    "F001",
                    f"worker-reachable function mutates module-level "
                    f"'{target.id}' in place",
                )
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            root = _root_name(target.value)
            if root in {"self", "cls"}:
                return
            if self._wavecache_target(root):
                self._report(
                    stmt,
                    "F002",
                    "worker-reachable function writes wavecache state "
                    "directly",
                )
            elif self._is_module_global(root):
                self._report(
                    stmt,
                    "F001",
                    f"worker-reachable function writes into module-level "
                    f"'{root}'",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_store(stmt, elt)

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            fq = self.index.resolve_symbol(self.mod, func.id)
            if (
                fq is not None
                and fq.startswith(WAVECACHE_MODULE + ".")
                and fq.rsplit(".", 1)[-1] in _WAVECACHE_WRITERS
            ):
                self._report(
                    node,
                    "F002",
                    f"worker-reachable function calls wavecache."
                    f"{fq.rsplit('.', 1)[-1]}(), which rewrites shared "
                    "cache state",
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "cache_clear":
            self._report(
                node,
                "F002",
                "worker-reachable function calls cache_clear(), which "
                "rewrites shared cache state",
            )
            return
        base = func.value
        root = _root_name(base) if isinstance(base, (ast.Attribute, ast.Subscript)) else (
            base.id if isinstance(base, ast.Name) else None
        )
        if root is None or root in self.locals or root in {"self", "cls"}:
            return
        if self._wavecache_target(root):
            if func.attr in _WAVECACHE_WRITERS:
                self._report(
                    node,
                    "F002",
                    f"worker-reachable function calls wavecache."
                    f"{func.attr}(), which rewrites shared cache state",
                )
            return
        if func.attr in _MUTATING_METHODS and self._is_module_global(root):
            self._report(
                node,
                "F001",
                f"worker-reachable function calls mutating method "
                f"'{func.attr}' on module-level '{root}'",
            )


def check_purity(
    index: ProjectIndex,
) -> tuple[list[Finding], set[str], set[str]]:
    """Run F001/F002.  Returns (findings, roots, reachable fqs)."""
    roots = worker_roots(index)
    reachable = reachable_functions(index, roots)
    findings: list[Finding] = []
    for fq in sorted(reachable):
        fn = index.functions[fq]
        mod = index.modules.get(fn.module)
        if mod is None:
            continue
        _PurityChecker(index, mod, fn, findings).check()
    return findings, roots, reachable
