"""reprolint — repo-specific determinism & dtype AST linter.

Usage (from the repo root)::

    python -m tools.reprolint src/            # lint a tree
    python -m tools.reprolint --list-rules    # show the rule catalog
    python -m tools.reprolint --select R001 src/repro/sim/

Rules enforce the reproduction's core invariants (bit-identical
Monte-Carlo, byte-identical PHY kernels, decision-identical matching):
see :mod:`tools.reprolint.rules` and docs/STATIC_ANALYSIS.md.
"""

from __future__ import annotations

import os

from tools.analysis_common import AnalysisResult, Finding, read_source
from tools.reprolint.rules import RULES, STRICT_RETURN_DIRS, lint_source, parse_error

__all__ = [
    "RULES",
    "STRICT_RETURN_DIRS",
    "Finding",
    "lint_source",
    "lint_paths",
    "analyze_paths",
]


def lint_paths(
    paths: list[str],
    *,
    select: list[str] | tuple[str, ...] | None = None,
) -> list[Finding]:
    """Lint files and directory trees; returns all findings, ``E999``
    for each file that does not parse."""
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs[:] = sorted(d for d in dirs if d not in {"__pycache__", ".git"})
                files.extend(
                    os.path.join(root, n) for n in sorted(names) if n.endswith(".py")
                )
        elif p.endswith(".py"):
            files.append(p)
    out: list[Finding] = []
    for path in files:
        try:
            source = read_source(path)
        except SyntaxError as exc:  # not UTF-8
            out.append(parse_error(path, exc))
            continue
        out.extend(lint_source(source, path, select=select))
    return out


def analyze_paths(
    paths: list[str], *, select: tuple[str, ...] | None = None
) -> AnalysisResult:
    """:func:`lint_paths` for the CLI: an ``E999`` is a parse error."""
    found = lint_paths(paths, select=select)
    return AnalysisResult(
        findings=[f for f in found if f.code != "E999"],
        errors=[(f.path, f.line, f.message) for f in found if f.code == "E999"],
    )
