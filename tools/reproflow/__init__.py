"""reproflow — cross-module units-and-purity dataflow analyzer.

Companion to :mod:`tools.reprolint`.  Where reprolint checks local,
single-file determinism/dtype idioms (R-series), reproflow builds a
whole-program view of ``src/repro``: a call graph annotated with
physical units (from :mod:`repro.types.units` annotations and naming
conventions), a unit dataflow pass (U-series), and a purity /
fork-safety pass over everything reachable from worker entry points
(F-series), plus tracked-artifact repo guards (B001 bytecode, B002 egg-info).

Public entry point: :func:`analyze_paths`.  The CLI lives in
``tools/reproflow/__main__.py`` (``python -m tools.reproflow``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from tools.analysis_common import AnalysisResult as _BaseResult
from tools.analysis_common import Finding, filter_findings
from tools.reproflow.bytecode import check_tracked_bytecode
from tools.reproflow.model import RULES
from tools.reproflow.project import ProjectIndex
from tools.reproflow.purity import check_purity
from tools.reproflow.unitcheck import check_ambiguous_params, check_units

__all__ = [
    "RULES",
    "Finding",
    "AnalysisResult",
    "analyze_paths",
    "build_report",
]


@dataclass
class AnalysisResult(_BaseResult):
    """Findings plus the annotated call graph one run produced."""

    index: ProjectIndex | None = None
    roots: set[str] = field(default_factory=set)
    reachable: set[str] = field(default_factory=set)


def analyze_paths(
    paths: list[str],
    *,
    select: tuple[str, ...] | None = None,
    strict_unit_dirs: tuple[str, ...] | None = None,
    check_bytecode: bool = True,
    repo_root: str = ".",
) -> AnalysisResult:
    """Analyze ``paths`` and return findings + the annotated index.

    ``select`` and the ``# reproflow:`` pragmas filter the findings;
    the B001/B002 guards run on the git work tree at ``repo_root``.
    """
    index = ProjectIndex.build(paths)
    findings = check_units(index)
    findings.extend(check_ambiguous_params(index, strict_unit_dirs))
    purity_findings, roots, reachable = check_purity(index)
    findings.extend(purity_findings)
    if check_bytecode:
        findings.extend(check_tracked_bytecode(repo_root))
    return AnalysisResult(
        findings=filter_findings(findings, "reproflow", index.sources(), select),
        errors=list(index.errors),
        index=index,
        roots=roots,
        reachable=reachable,
    )


def build_report(result: AnalysisResult) -> dict[str, object]:
    """Machine-readable report: findings + the annotated call graph."""
    graph: dict[str, object] = {}
    index = result.index
    if index is not None:
        for fq in sorted(index.functions):
            fn = index.functions[fq]
            graph[fq] = {
                "path": fn.path.replace("\\", "/"),
                "line": fn.node.lineno,
                "params": {
                    name: (unit.symbol if unit is not None else None)
                    for name, unit in fn.param_units.items()
                },
                "return_unit": (
                    fn.return_unit.symbol if fn.return_unit is not None else None
                ),
                "calls": sorted(set(fn.calls)),
                "spawns": sorted(set(fn.spawn_targets)),
                "worker_root": fq in result.roots,
                "worker_reachable": fq in result.reachable,
            }
    by_code: dict[str, int] = {}
    for f in result.findings:
        by_code[f.code] = by_code.get(f.code, 0) + 1
    return {
        "tool": "reproflow",
        "rules": RULES,
        "findings": [f.to_json() for f in result.findings],
        "call_graph": graph,
        "worker_roots": sorted(result.roots),
        "summary": {
            "findings": len(result.findings),
            "by_code": dict(sorted(by_code.items())),
            "functions": len(graph),
            "worker_reachable": len(result.reachable),
            "parse_errors": len(result.errors),
        },
    }
