"""Shared scaffolding for the repo's four static analyzers.

``tools/reprolint`` (per-file AST lint), ``tools/reproflow``
(whole-program units/purity dataflow), ``tools/reproshape`` (symbolic
shape/dtype verification) and ``tools/reproasync`` (asyncio/concurrency
safety) differ only in their rules.  What surrounds the rules lives
here, once:

* **One finding record** — :class:`Finding` and the
  :class:`AnalysisResult` fields every run fills
  (:mod:`tools.analysis_common.finding`).
* **Pragma suppression** — ``# <tool>: disable=CODE`` on the offending
  line, ``# <tool>: disable-file=CODE`` in the first ten lines,
  ``disable=all`` for generated code, applied with ``--select`` by
  :func:`filter_findings` (:mod:`tools.analysis_common.pragmas`).  A
  justified pragma is the only way to silence a finding.
* **One reader** — :func:`read_source` decodes a file as UTF-8 and
  turns bytes that are not UTF-8 into a ``SyntaxError``, a parse error
  like any other (:mod:`tools.analysis_common.source`).
* **One CLI** — :func:`main`: ``paths``, ``--select``, ``--list-rules``,
  ``--format`` for the analyzers with a JSON report, and the exit-code
  contract 0 clean, 1 findings, 2 usage/parse errors
  (:mod:`tools.analysis_common.cli`).

Each analyzer binds its tool name (the pragma prefix) and keeps its own
rule catalog.
"""

from __future__ import annotations

from tools.analysis_common.cli import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    main,
    parse_select,
    selected_by_prefix,
)
from tools.analysis_common.finding import AnalysisResult, Finding
from tools.analysis_common.pragmas import (
    FILE_PRAGMA_MAX_LINE,
    filter_findings,
    is_code_suppressed,
    parse_suppressions,
)
from tools.analysis_common.source import read_source

__all__ = [
    "Finding",
    "AnalysisResult",
    "filter_findings",
    "parse_suppressions",
    "is_code_suppressed",
    "FILE_PRAGMA_MAX_LINE",
    "read_source",
    "main",
    "parse_select",
    "selected_by_prefix",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_ERROR",
]
