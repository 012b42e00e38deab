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

from tools.analysis_common import AnalysisResult as _BaseResult
from tools.analysis_common import Finding, filter_findings
from tools.reproflow.project import ProjectIndex
from tools.reproshape.checker import check_project, shape_table
from tools.reproshape.contracts_index import ContractIndex
from tools.reproshape.model import RULES

__all__ = [
    "RULES",
    "Finding",
    "AnalysisResult",
    "analyze_paths",
    "build_report",
]


@dataclass
class AnalysisResult(_BaseResult):
    """Findings plus the shape table one run produced; ``errors`` also
    holds contract specs that fail to parse."""

    #: per-function symbolic shape/dtype table
    table: list[dict[str, object]] = field(default_factory=list)
    index: ProjectIndex | None = None
    contracts: ContractIndex | None = None


def analyze_paths(
    paths: list[str],
    *,
    select: tuple[str, ...] | None = None,
) -> AnalysisResult:
    """Analyze ``paths`` and return findings plus the symbolic tables."""
    index = ProjectIndex.build(paths)
    cindex = ContractIndex(index)
    findings = check_project(index, cindex)
    return AnalysisResult(
        findings=filter_findings(findings, "reproshape", index.sources(), select),
        errors=[*index.errors, *cindex.errors],
        table=shape_table(cindex),
        index=index,
        contracts=cindex,
    )


def build_report(result: AnalysisResult) -> dict[str, object]:
    """JSON report: findings + the per-function symbolic shape table."""
    return {
        "tool": "reproshape",
        "rules": RULES,
        "findings": [f.to_json() for f in result.findings],
        "shape_table": result.table,
        "summary": {
            "functions_indexed": (
                len(result.index.functions) if result.index is not None else 0
            ),
            "functions_contracted": len(result.table),
            "findings": len(result.findings),
            "errors": len(result.errors),
        },
    }
