"""reproshape — whole-program symbolic shape/dtype verifier.

Third analyzer in the suite (after :mod:`tools.reprolint` and
:mod:`tools.reproflow`).  reproshape parses every
``@contracts.shapes(...)`` / ``@contracts.dtypes(...)`` decorator in
the tree through the *runtime's own* DSL parser
(:func:`repro.core.contracts.parse_shape_spec`), evaluates the shape
mini-language symbolically, and propagates shapes and dtypes along
reproflow's project call graph:

S001  caller/callee shape incompatibility at a call site
S002  caller/callee dtype mismatch or implicit narrow-to-wide widening
S004  public PHY/matching entry point without a contract
S005  contract-derivable in-function shape error (reshape/stack/@/return)

Public entry point: :func:`analyze_paths`.  The CLI lives in
``tools/reproshape/__main__.py`` (``python -m tools.reproshape``).
"""

from __future__ import annotations

import os
import sys

# reproshape interprets the contracts DSL through repro.core.contracts
# itself (one grammar, two interpretations), so ``src`` must be
# importable.  When invoked from the repo root without PYTHONPATH=src
# (``make lint``, CI), bootstrap it from our own location.
try:  # pragma: no cover - exercised implicitly by every import
    import repro.core.contracts  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    _SRC = os.path.abspath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
    )
    if os.path.isdir(_SRC):
        sys.path.insert(0, _SRC)
    import repro.core.contracts  # noqa: F401

from dataclasses import dataclass, field

from tools.analysis_common import selected_by_prefix
from tools.reproflow.project import ProjectIndex
from tools.reproshape.checker import check_project, shape_table
from tools.reproshape.contracts_index import ContractIndex
from tools.reproshape.model import (
    RULES,
    Baseline,
    Finding,
    is_suppressed,
    suppressions,
)

__all__ = [
    "RULES",
    "Finding",
    "Baseline",
    "AnalysisResult",
    "analyze_paths",
    "build_report",
]


@dataclass
class AnalysisResult:
    """Everything one run produced: findings plus the shape table."""

    findings: list[Finding] = field(default_factory=list)
    #: findings matched by ``--baseline`` (reported but non-fatal)
    baselined: list[Finding] = field(default_factory=list)
    #: per-function symbolic shape/dtype table
    table: list[dict[str, object]] = field(default_factory=list)
    index: ProjectIndex | None = None
    contracts: ContractIndex | None = None
    #: (path, line, message) parse failures (files or contract specs)
    errors: list[tuple[str, int, str]] = field(default_factory=list)


def analyze_paths(
    paths: list[str],
    *,
    select: tuple[str, ...] | None = None,
    baseline: Baseline | None = None,
) -> AnalysisResult:
    """Analyze ``paths`` and return findings plus the symbolic tables."""
    index = ProjectIndex.build(paths)
    cindex = ContractIndex(index)
    findings = check_project(index, cindex)

    # rule selection (prefix semantics, like reproflow)
    findings = [f for f in findings if selected_by_prefix(f.code, select)]

    # pragma suppression, by source file
    pragma_cache: dict[str, tuple[dict[int, set[str]], set[str]]] = {}
    kept: list[Finding] = []
    for f in findings:
        if f.path not in pragma_cache:
            source = ""
            for mod in index.modules.values():
                if mod.path == f.path:
                    source = mod.source
                    break
            pragma_cache[f.path] = suppressions(source)
        per_line, per_file = pragma_cache[f.path]
        if not is_suppressed(f, per_line, per_file):
            kept.append(f)

    baselined: list[Finding] = []
    if baseline is not None:
        kept, baselined = baseline.split(kept)

    return AnalysisResult(
        findings=kept,
        baselined=baselined,
        table=shape_table(cindex),
        index=index,
        contracts=cindex,
        errors=[*index.errors, *cindex.errors],
    )


def build_report(result: AnalysisResult) -> dict[str, object]:
    """JSON report: findings + the per-function symbolic shape table."""
    return {
        "tool": "reproshape",
        "rules": RULES,
        "findings": [f.to_json() for f in result.findings],
        "baselined": [f.to_json() for f in result.baselined],
        "shape_table": result.table,
        "summary": {
            "functions_indexed": (
                len(result.index.functions) if result.index is not None else 0
            ),
            "functions_contracted": len(result.table),
            "findings": len(result.findings),
            "baselined": len(result.baselined),
            "errors": len(result.errors),
        },
    }
