"""reproasync — whole-program asyncio/concurrency safety analyzer.

Fourth pillar of the static-analysis suite (after reprolint,
reproflow, reproshape).  Builds reproflow's :class:`ProjectIndex`,
extends its call graph with async spawn edges
(``create_task``/``ensure_future``/``gather``/``asyncio.run``), and
checks the C-series rules: blocking calls reachable in async code,
orphaned tasks, cancellation-unsafe acquire/release spans,
await-spanning races, determinism-replay violations (including a
static re-proof of the MacArbiter zero-draw-when-uncontended
guarantee), and unbounded queues.

Runtime counterpart: :mod:`repro.core.loopwatch` (``REPRO_LOOPWATCH=1``)
corroborates C001 dynamically by measuring event-loop lag.

Public entry point: :func:`analyze_paths`.  The CLI lives in
``tools/reproasync/__main__.py`` (``python -m tools.reproasync``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from tools.analysis_common import AnalysisResult as _BaseResult
from tools.analysis_common import Finding, filter_findings
from tools.reproasync.model import RULES
from tools.reproasync.rules import check_concurrency
from tools.reproasync.taskgraph import AsyncGraph, build_async_graph
from tools.reproflow.project import ProjectIndex

__all__ = [
    "RULES",
    "Finding",
    "AnalysisResult",
    "analyze_paths",
    "build_report",
]


@dataclass
class AnalysisResult(_BaseResult):
    """Findings plus the async task graph one run produced."""

    index: ProjectIndex | None = None
    graph: AsyncGraph | None = None
    #: determinism proof records (obligation/symbol/status)
    proofs: list[dict[str, str]] = field(default_factory=list)


def analyze_paths(
    paths: list[str],
    *,
    select: tuple[str, ...] | None = None,
    strict_dirs: tuple[str, ...] | None = None,
) -> AnalysisResult:
    """Analyze ``paths`` and return findings + the async task graph.

    ``select`` and the ``# reproasync:`` pragmas filter the findings;
    ``strict_dirs`` (default ``src/repro/gateway``) scopes C006.
    """
    index = ProjectIndex.build(paths)
    graph = build_async_graph(index)
    findings, proofs = check_concurrency(graph, strict_dirs=strict_dirs)
    return AnalysisResult(
        findings=filter_findings(findings, "reproasync", index.sources(), select),
        errors=list(index.errors),
        index=index,
        graph=graph,
        proofs=proofs,
    )


def build_report(result: AnalysisResult) -> dict[str, object]:
    """Machine-readable report: findings + the async call graph."""
    import ast

    graph_json: dict[str, object] = {}
    index = result.index
    graph = result.graph
    if index is not None and graph is not None:
        spawns_by_fn: dict[str, list[dict[str, object]]] = {}
        for site in graph.spawns:
            spawns_by_fn.setdefault(site.spawner, []).append(
                {"target": site.target, "kind": site.kind, "count": site.count}
            )
        for fq in sorted(index.functions):
            fn = index.functions[fq]
            graph_json[fq] = {
                "path": fn.path.replace("\\", "/"),
                "line": fn.node.lineno,
                "is_async": isinstance(fn.node, ast.AsyncFunctionDef),
                "calls": sorted(graph.edges.get(fq, ())),
                "spawns": sorted(
                    spawns_by_fn.get(fq, []),
                    key=lambda s: (str(s["target"]), str(s["kind"])),
                ),
                "task_instances": graph.task_roots.get(fq, 0),
                "concurrency_weight": graph.weights.get(fq, 0),
            }
    by_code: dict[str, int] = {}
    for f in result.findings:
        by_code[f.code] = by_code.get(f.code, 0) + 1
    n_async = sum(1 for g in graph_json.values() if g["is_async"])  # type: ignore[index]
    return {
        "tool": "reproasync",
        "rules": RULES,
        "findings": [f.to_json() for f in result.findings],
        "call_graph": graph_json,
        "task_roots": dict(sorted(result.graph.task_roots.items()))
        if result.graph is not None
        else {},
        "pool_roots": dict(sorted(result.graph.pool_roots.items()))
        if result.graph is not None
        else {},
        "proofs": sorted(result.proofs, key=lambda p: p["symbol"]),
        "summary": {
            "findings": len(result.findings),
            "by_code": dict(sorted(by_code.items())),
            "functions": len(graph_json),
            "async_functions": n_async,
            "spawn_sites": len(result.graph.spawns) if result.graph else 0,
            "proofs_proved": sum(
                1 for p in result.proofs if p["status"] == "proved"
            ),
            "parse_errors": len(result.errors),
        },
    }
