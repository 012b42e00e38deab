"""C-series rules: asyncio/concurrency safety and determinism proofs.

C001  blocking call transitively reachable inside an ``async def``
      without a ``to_thread``/executor hand-off
C002  orphaned coroutine/task: spawn result dropped, or gathered
      exceptions silently discarded
C003  cancellation-unsafe resource: await between acquire and release
      without try/finally
C004  async race: shared state read and written across an await from
      >= 2 concurrent task instances without a lock
C005  determinism-replay violation: a seeded Generator drawn from
      multiple tasks, or the MacArbiter zero-draw-when-uncontended
      guarantee dropped
C006  unbounded ``asyncio.Queue`` in a strict directory

All rules consume the :class:`~tools.reproasync.taskgraph.AsyncGraph`;
resolution gaps produce silence, not guesses (under-approximation, in
reproflow's spirit).
"""

from __future__ import annotations

import ast
import os
from typing import Iterator

from tools.analysis_common import Finding
from tools.reproasync.taskgraph import (
    DRAW_METHODS,
    AsyncGraph,
    chain_of,
    is_rng_chain,
    iter_region_calls,
    resolve_call_ex,
    resolved_dotted,
    _taskgroup_locals,
)
from tools.reproflow.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    local_instance_map,
)

__all__ = ["STRICT_ASYNC_DIRS", "check_concurrency"]

#: directories where C006 (bounded queues) is enforced; matched as
#: normalized path fragments, like reproflow's strict unit dirs.
STRICT_ASYNC_DIRS: tuple[str, ...] = ("src/repro/gateway",)

#: fully-resolved dotted names that block the event loop outright.
_BLOCKING_DOTTED = frozenset(
    {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "os.system",
        "os.popen",
        "os.waitpid",
        "socket.create_connection",
    }
)

#: method names that are blocking file I/O wherever they appear.
_FILE_IO_METHODS = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes"}
)

#: the repo's heavy PHY/decode kernels: milliseconds of pure compute
#: per call, which stalls every other task when run inline.  Matched by
#: name so unresolvable receivers (``session.pipeline``) still count.
_HEAVY_KERNELS = frozenset(
    {
        "excite_and_react",
        "decode_pending_many",
        "run_airlink",
        "modulate",
        "demodulate",
        "demodulate_batch",
        "decode_batch",
        "score_capture",
    }
)

#: acquire-method name -> the release-method names that pair with it.
_RELEASES_FOR: dict[str, frozenset[str]] = {
    "acquire": frozenset({"release"}),
    "subscribe": frozenset({"unsubscribe", "close"}),
    "register_tag": frozenset({"deregister_tag"}),
    "register": frozenset({"deregister", "unregister"}),
    "connect": frozenset({"disconnect", "close"}),
    "open_connection": frozenset({"close"}),
}

_SPAWN_ATTRS = frozenset({"create_task", "ensure_future"})


def _walk_skip_defs(node: ast.AST) -> Iterator[ast.AST]:
    """Subtree walk that does not descend into nested def bodies."""
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.append(child)


def _has_await(stmt: ast.stmt) -> bool:
    return any(isinstance(n, ast.Await) for n in _walk_skip_defs(stmt))


def _in_strict_dirs(path: str, strict_dirs: tuple[str, ...]) -> bool:
    norm = os.path.abspath(path).replace("\\", "/")
    return any(fragment in norm for fragment in strict_dirs)


def _finding(
    mod: ModuleInfo, fn: FunctionInfo | None, node: ast.AST, code: str, message: str
) -> Finding:
    return Finding(
        path=mod.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        code=code,
        message=message,
        symbol=fn.fq if fn is not None else "",
    )


# ----------------------------------------------------------------------
# C001 — blocking calls reachable in async functions
# ----------------------------------------------------------------------
class _BlockingScanner:
    """Finds blocking primitives directly and through sync call chains."""

    def __init__(self, graph: AsyncGraph) -> None:
        self.graph = graph
        self.index = graph.index
        #: fq -> [fq hops..., primitive desc] or None (memoized)
        self._paths: dict[str, list[str] | None] = {}

    # -- per-call primitives ---------------------------------------------
    def _exempt_ids(self, fn: FunctionInfo) -> set[int]:
        """Nodes handed to ``to_thread``/``run_in_executor`` (off-loop)."""
        exempt: set[int] = set()
        for call, _ in iter_region_calls(fn.node):
            func = call.func
            offloaded = (
                isinstance(func, ast.Attribute)
                and func.attr in ("to_thread", "run_in_executor")
            ) or resolved_dotted(self.index.modules[fn.module], func) == (
                "asyncio.to_thread"
            )
            if not offloaded:
                continue
            for arg in (*call.args, *(kw.value for kw in call.keywords)):
                exempt.update(id(n) for n in ast.walk(arg))
        return exempt

    def direct_desc(
        self,
        mod: ModuleInfo,
        call: ast.Call,
    ) -> str | None:
        """Describe the blocking primitive at ``call``, if it is one."""
        func = call.func
        dotted = resolved_dotted(mod, func)
        if dotted in _BLOCKING_DOTTED:
            return f"call {dotted}()"
        tail = func.attr if isinstance(func, ast.Attribute) else (
            dotted.rsplit(".", 1)[-1] if dotted else ""
        )
        if tail in _HEAVY_KERNELS:
            return f"heavy PHY kernel {tail}()"
        if isinstance(func, ast.Attribute) and func.attr in _FILE_IO_METHODS:
            return f"file I/O {func.attr}()"
        if isinstance(func, ast.Name) and func.id == "open":
            if self.index.resolve_symbol(mod, "open") is None:
                return "file I/O open()"
        return None

    # -- transitive sync closure -----------------------------------------
    def blocking_path(self, fq: str, _visiting: set[str] | None = None) -> list[str] | None:
        """Shortest-found chain from sync ``fq`` to a blocking primitive:
        ``[fq, callee_fq, ..., "call time.sleep()"]``; None if clean."""
        if fq in self._paths:
            return self._paths[fq]
        visiting = _visiting if _visiting is not None else set()
        if fq in visiting:
            return None
        visiting.add(fq)
        fn = self.index.functions.get(fq)
        result: list[str] | None = None
        if fn is not None and not isinstance(fn.node, ast.AsyncFunctionDef):
            mod = self.index.modules[fn.module]
            local_instances = local_instance_map(self.index, mod, fn)
            exempt = self._exempt_ids(fn)
            calls = [c for c, _ in iter_region_calls(fn.node) if id(c) not in exempt]
            for call in calls:
                desc = self.direct_desc(mod, call)
                if desc is not None:
                    result = [fq, desc]
                    break
            if result is None:
                for call in calls:
                    target = resolve_call_ex(
                        self.index, mod, fn, call, local_instances,
                        self.graph.attr_instances,
                    )
                    if target is None or isinstance(
                        target.node, ast.AsyncFunctionDef
                    ):
                        continue
                    sub = self.blocking_path(target.fq, visiting)
                    if sub is not None:
                        result = [fq, *sub]
                        break
        visiting.discard(fq)
        self._paths[fq] = result
        return result

    # -- the rule ---------------------------------------------------------
    def check(self) -> list[Finding]:
        findings: list[Finding] = []
        for mod in self.index.modules.values():
            for fn in mod.functions.values():
                if not isinstance(fn.node, ast.AsyncFunctionDef):
                    continue
                local_instances = local_instance_map(self.index, mod, fn)
                exempt = self._exempt_ids(fn)
                for call, _ in iter_region_calls(fn.node):
                    if id(call) in exempt:
                        continue
                    desc = self.direct_desc(mod, call)
                    if desc is not None:
                        findings.append(
                            _finding(
                                mod, fn, call, "C001",
                                f"blocking {desc} inside async function "
                                f"'{fn.qualname}'; hand off via "
                                "asyncio.to_thread or an executor",
                            )
                        )
                        continue
                    target = resolve_call_ex(
                        self.index, mod, fn, call, local_instances,
                        self.graph.attr_instances,
                    )
                    if (
                        target is None
                        or target.fq == fn.fq
                        or isinstance(target.node, ast.AsyncFunctionDef)
                    ):
                        continue
                    path = self.blocking_path(target.fq)
                    if path is not None:
                        hops, desc = path[:-1], path[-1]
                        findings.append(
                            _finding(
                                mod, fn, call, "C001",
                                f"blocking {desc} reachable inside async "
                                f"function '{fn.qualname}' via "
                                f"{' -> '.join(hops)}",
                            )
                        )
        return findings


# ----------------------------------------------------------------------
# C002 — orphaned tasks / swallowed gather exceptions
# ----------------------------------------------------------------------
def _iter_statements(fn: FunctionInfo) -> Iterator[ast.stmt]:
    """Every statement in the function's own region (nested defs skipped)."""
    stack: list[ast.stmt] = list(fn.node.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield stmt
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif isinstance(child, ast.ExceptHandler) or isinstance(
                child, ast.match_case
            ):
                stack.extend(
                    c for c in ast.iter_child_nodes(child) if isinstance(c, ast.stmt)
                )


def _spawn_call_kind(mod: ModuleInfo, call: ast.Call, tg_locals: set[str]) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in _SPAWN_ATTRS:
        if isinstance(func.value, ast.Name) and func.value.id in tg_locals:
            return None  # TaskGroup supervises its children
        return func.attr
    dotted = resolved_dotted(mod, func)
    if dotted in ("asyncio.create_task", "asyncio.ensure_future"):
        return dotted.rsplit(".", 1)[-1]
    return None


def _is_swallowing_gather(mod: ModuleInfo, node: ast.expr) -> bool:
    """``await gather(..., return_exceptions=True)`` with result unused."""
    if not isinstance(node, ast.Await) or not isinstance(node.value, ast.Call):
        return False
    call = node.value
    func = call.func
    is_gather = (
        isinstance(func, ast.Attribute) and func.attr == "gather"
    ) or resolved_dotted(mod, func) == "asyncio.gather"
    if not is_gather:
        return False
    for kw in call.keywords:
        if kw.arg == "return_exceptions":
            return not (
                isinstance(kw.value, ast.Constant) and kw.value.value is False
            )
    return False


def check_orphaned_tasks(index: ProjectIndex) -> list[Finding]:
    findings: list[Finding] = []
    for mod in index.modules.values():
        for fn in mod.functions.values():
            tg_locals = _taskgroup_locals(fn)
            for stmt in _iter_statements(fn):
                value: ast.expr | None = None
                if isinstance(stmt, ast.Expr):
                    value = stmt.value
                elif (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "_"
                ):
                    value = stmt.value
                if value is None:
                    continue
                if isinstance(value, ast.Call):
                    kind = _spawn_call_kind(mod, value, tg_locals)
                    if kind is not None:
                        findings.append(
                            _finding(
                                mod, fn, value, "C002",
                                f"task spawned with {kind}() is dropped; "
                                "retain a reference and consume its result "
                                "or exception",
                            )
                        )
                elif _is_swallowing_gather(mod, value):
                    findings.append(
                        _finding(
                            mod, fn, value, "C002",
                            "gather(..., return_exceptions=True) result is "
                            "discarded; inspect the returned list so task "
                            "exceptions surface",
                        )
                    )
    return findings


# ----------------------------------------------------------------------
# C003 — cancellation-unsafe acquire/release spans
# ----------------------------------------------------------------------
def _method_calls(stmt: ast.stmt) -> list[tuple[str, str | None, ast.Call]]:
    """(method name, receiver chain, node) for attr calls in ``stmt``."""
    out: list[tuple[str, str | None, ast.Call]] = []
    for node in _walk_skip_defs(stmt):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            chain = chain_of(node.func.value)
            out.append((node.func.attr, ".".join(chain) if chain else None, node))
    return out


def _check_c003_block(
    mod: ModuleInfo, fn: FunctionInfo, stmts: list[ast.stmt], findings: list[Finding]
) -> None:
    infos = [_method_calls(s) for s in stmts]
    awaits = [_has_await(s) for s in stmts]
    for i, stmt_calls in enumerate(infos):
        for name, receiver, node in stmt_calls:
            releases = _RELEASES_FOR.get(name)
            if releases is None:
                continue
            for j in range(i + 1, len(stmts)):
                match = next(
                    (
                        (rname, rnode)
                        for rname, rreceiver, rnode in infos[j]
                        if rname in releases
                        and (
                            receiver is None
                            or rreceiver is None
                            or rreceiver == receiver
                        )
                    ),
                    None,
                )
                if match is None:
                    continue
                if any(awaits[k] for k in range(i + 1, j)):
                    rname, _rnode = match
                    findings.append(
                        _finding(
                            mod, fn, node, "C003",
                            f"await between {name}() and {rname}() without "
                            "try/finally; cancellation mid-await leaks the "
                            "resource",
                        )
                    )
                break  # nearest matching release decides the span
    # recurse into nested blocks
    for stmt in stmts:
        for body in _child_blocks(stmt):
            _check_c003_block(mod, fn, body, findings)


def _child_blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    blocks: list[list[ast.stmt]] = []
    for name in ("body", "orelse", "finalbody"):
        body = getattr(stmt, name, None)
        if body and isinstance(body[0], ast.stmt):
            blocks.append(body)
    for handler in getattr(stmt, "handlers", []):
        blocks.append(handler.body)
    for case in getattr(stmt, "cases", []):
        blocks.append(case.body)
    return blocks


def check_cancellation_safety(index: ProjectIndex) -> list[Finding]:
    findings: list[Finding] = []
    for mod in index.modules.values():
        for fn in mod.functions.values():
            if not isinstance(fn.node, ast.AsyncFunctionDef):
                continue
            _check_c003_block(mod, fn, list(fn.node.body), findings)
    return findings


# ----------------------------------------------------------------------
# C004 — await-spanning races on shared state
# ----------------------------------------------------------------------
def check_races(graph: AsyncGraph) -> list[Finding]:
    index = graph.index
    findings: list[Finding] = []
    for fq in sorted(index.functions):
        weight = graph.weights.get(fq, 0)
        if weight < 2:
            continue
        fn = index.functions[fq]
        mod = index.modules[fn.module]
        events = graph.events(fq)
        reported: set[str] = set()
        # per key: unlocked read, then an await, then an unlocked write
        first_read: dict[str, int] = {}
        await_positions: list[int] = []
        for pos, ev in enumerate(events):
            if ev.kind == "await":
                await_positions.append(pos)
            elif ev.kind == "read" and not ev.locked:
                first_read.setdefault(ev.key or "", pos)
            elif ev.kind == "write" and not ev.locked and ev.key not in reported:
                read_pos = first_read.get(ev.key or "")
                if read_pos is None:
                    continue
                if any(read_pos < a < pos for a in await_positions):
                    reported.add(ev.key or "")
                    findings.append(
                        _finding(
                            mod, fn, ev.node, "C004",
                            f"'{ev.key}' is read and then written across an "
                            f"await in '{fn.qualname}', which runs as "
                            f"{weight} concurrent task instances, with no "
                            "lock held",
                        )
                    )
    return findings


# ----------------------------------------------------------------------
# C005 — determinism-replay violations
# ----------------------------------------------------------------------
def check_shared_rng_draws(graph: AsyncGraph) -> list[Finding]:
    """A seeded Generator drawn from >= 2 concurrent execution roots.

    Roots are async task spawns *and* pool-worker entry points (the
    ``run_in_executor``/``submit`` hop): a generator drawn both by the
    air loop and inside a decode worker would make replay depend on
    pool scheduling just as surely as two racing tasks would.
    """
    index = graph.index
    root_counts = dict(graph.task_roots)
    for root, count in graph.pool_roots.items():
        root_counts[root] = min(2, root_counts.get(root, 0) + count)
    closures = {root: graph.closure(root) for root in root_counts}
    # key -> {fq drawing it -> first draw node}
    drawers: dict[str, dict[str, ast.AST]] = {}
    reachable = set().union(*closures.values()) if closures else set()
    for fq in sorted(reachable):
        for ev in graph.events(fq):
            if ev.kind == "draw" and ev.key is not None:
                drawers.setdefault(ev.key, {}).setdefault(fq, ev.node)
    findings: list[Finding] = []
    for key in sorted(drawers):
        draw_fns = set(drawers[key])
        total = sum(
            count
            for root, count in root_counts.items()
            if closures[root] & draw_fns
        )
        if total < 2:
            continue
        for fq in sorted(draw_fns):
            fn = index.functions[fq]
            mod = index.modules[fn.module]
            findings.append(
                _finding(
                    mod, fn, drawers[key][fq], "C005",
                    f"seeded Generator '{key}' is drawn from {total} "
                    "concurrent task instances; interleaved draws make "
                    "replay order scheduling-dependent",
                )
            )
    return findings


def _guard_counts(test: ast.expr, names: set[str]) -> tuple[bool, bool]:
    """(handles-0-contenders, handles-1-contender) for a guard test."""
    if (
        isinstance(test, ast.UnaryOp)
        and isinstance(test.op, ast.Not)
        and isinstance(test.operand, ast.Name)
        and test.operand.id in names
    ):
        return True, False
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, op, right = test.left, test.ops[0], test.comparators[0]
        is_len = (
            isinstance(left, ast.Call)
            and isinstance(left.func, ast.Name)
            and left.func.id == "len"
            and len(left.args) == 1
            and isinstance(left.args[0], ast.Name)
            and left.args[0].id in names
        )
        if is_len and isinstance(right, ast.Constant) and isinstance(right.value, int):
            c = right.value
            if isinstance(op, ast.Eq):
                return c == 0, c == 1
            if isinstance(op, ast.LtE):
                return c >= 0, c >= 1
            if isinstance(op, ast.Lt):
                return c >= 1, c >= 2
    return False, False


def _stmt_draw(stmt: ast.AST) -> ast.AST | None:
    for node in _walk_skip_defs(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in DRAW_METHODS
        ):
            chain = chain_of(node.func.value)
            if chain is not None and is_rng_chain(chain):
                return node
    return None


def prove_mac_zero_draw(
    index: ProjectIndex,
) -> tuple[list[Finding], list[dict[str, str]]]:
    """Re-prove, statically, that ``MacArbiter.arbitrate`` draws nothing
    when 0 or 1 contenders are present (the replay guarantee the
    gateway's bit-identity rests on)."""
    findings: list[Finding] = []
    proofs: list[dict[str, str]] = []
    for fq in sorted(index.functions):
        if not fq.endswith("MacArbiter.arbitrate"):
            continue
        fn = index.functions[fq]
        mod = index.modules[fn.module]
        args = fn.node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args) if a.arg != "self"]
        names: set[str] = set(params[:1])
        handled0 = handled1 = False
        offender: ast.AST | None = None
        for stmt in fn.node.body:
            # track tuple()/list()/plain aliases of the contenders param
            if isinstance(stmt, ast.Assign):
                value = stmt.value
                aliased = (
                    isinstance(value, ast.Name) and value.id in names
                ) or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in ("tuple", "list", "sorted")
                    and len(value.args) == 1
                    and isinstance(value.args[0], ast.Name)
                    and value.args[0].id in names
                )
                if aliased:
                    names.update(
                        t.id for t in stmt.targets if isinstance(t, ast.Name)
                    )
            if (
                isinstance(stmt, ast.If)
                and stmt.body
                and isinstance(stmt.body[-1], (ast.Return, ast.Raise))
            ):
                zero, one = _guard_counts(stmt.test, names)
                if zero or one:
                    draw = _stmt_draw(stmt)  # draw on the uncontended path
                    if draw is not None:
                        offender = draw
                        break
                    handled0 |= zero
                    handled1 |= one
                    continue
            if not (handled0 and handled1):
                draw = _stmt_draw(stmt)
                if draw is not None:
                    offender = draw
                    break
        if offender is not None:
            findings.append(
                _finding(
                    mod, fn, offender, "C005",
                    "MacArbiter.arbitrate may draw from its Generator on "
                    "the uncontended (0/1-contender) path, breaking the "
                    "zero-draw replay guarantee",
                )
            )
        proofs.append(
            {
                "obligation": "mac-zero-draw-when-uncontended",
                "symbol": fq,
                "status": "violated" if offender is not None else "proved",
            }
        )
    return findings, proofs


# ----------------------------------------------------------------------
# C006 — unbounded queues in strict dirs
# ----------------------------------------------------------------------
def check_unbounded_queues(
    index: ProjectIndex, strict_dirs: tuple[str, ...]
) -> list[Finding]:
    findings: list[Finding] = []
    for mod in index.modules.values():
        if not _in_strict_dirs(mod.path, strict_dirs):
            continue
        # map call nodes to their enclosing function for the symbol
        owner: dict[int, FunctionInfo] = {}
        for fn in mod.functions.values():
            for call, _ in iter_region_calls(fn.node):
                owner[id(call)] = fn
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            if resolved_dotted(mod, node.func) != "asyncio.Queue":
                continue
            maxsize: ast.expr | None = node.args[0] if node.args else None
            for kw in node.keywords:
                if kw.arg == "maxsize":
                    maxsize = kw.value
            unbounded = maxsize is None or (
                isinstance(maxsize, ast.Constant)
                and isinstance(maxsize.value, int)
                and maxsize.value <= 0
            )
            if unbounded:
                findings.append(
                    _finding(
                        mod, owner.get(id(node)), node, "C006",
                        "unbounded asyncio.Queue() in a strict directory; "
                        "pass a positive maxsize so backpressure applies",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def check_concurrency(
    graph: AsyncGraph, *, strict_dirs: tuple[str, ...] | None = None
) -> tuple[list[Finding], list[dict[str, str]]]:
    """Run all C-rules; returns (findings, proof records)."""
    index = graph.index
    dirs = strict_dirs if strict_dirs is not None else STRICT_ASYNC_DIRS
    findings = _BlockingScanner(graph).check()
    findings.extend(check_orphaned_tasks(index))
    findings.extend(check_cancellation_safety(index))
    findings.extend(check_races(graph))
    findings.extend(check_shared_rng_draws(graph))
    mac_findings, proofs = prove_mac_zero_draw(index)
    findings.extend(mac_findings)
    findings.extend(check_unbounded_queues(index, dirs))
    return findings, proofs
