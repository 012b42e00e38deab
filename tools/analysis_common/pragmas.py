"""The shared ``# <tool>: disable=`` pragma grammar and finding filter.

One implementation, four pragma prefixes (``reprolint:``,
``reproflow:``, ``reproshape:``, ``reproasync:``).  The grammar is
deliberately frozen: existing pragma strings in the tree must keep
working verbatim, so any extension belongs behind a new clause keyword,
not a change to the ``disable=`` / ``disable-file=`` forms.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from tools.analysis_common.cli import selected_by_prefix
from tools.analysis_common.finding import Finding

__all__ = [
    "FILE_PRAGMA_MAX_LINE",
    "parse_suppressions",
    "is_code_suppressed",
    "filter_findings",
]

#: ``disable-file=`` pragmas are honored only within the first N lines,
#: keeping file-wide waivers visible at the top of the module.
FILE_PRAGMA_MAX_LINE = 10


def parse_suppressions(
    source: str, tool: str
) -> tuple[dict[int, set[str]], set[str]]:
    """Per-line and file-level ``# <tool>: disable`` pragmas.

    ``# <tool>: disable=U001,F001`` suppresses the listed codes on that
    line; ``# <tool>: disable-file=U003`` within the first
    :data:`FILE_PRAGMA_MAX_LINE` lines suppresses for the whole file;
    ``disable=all`` matches every code.
    """
    marker = f"# {tool}:"
    per_line: dict[int, set[str]] = {}
    per_file: set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        if marker not in line:
            continue
        _, _, tail = line.partition(marker)
        for clause in tail.strip().split():
            if clause.startswith("disable-file="):
                if lineno <= FILE_PRAGMA_MAX_LINE:
                    codes = clause.removeprefix("disable-file=")
                    per_file.update(c.strip() for c in codes.split(",") if c.strip())
            elif clause.startswith("disable="):
                codes = clause.removeprefix("disable=")
                per_line.setdefault(lineno, set()).update(
                    c.strip() for c in codes.split(",") if c.strip()
                )
    return per_line, per_file


def is_code_suppressed(
    code: str,
    line: int,
    per_line: dict[int, set[str]],
    per_file: set[str],
) -> bool:
    """Whether ``code`` at ``line`` is silenced by the parsed pragmas."""
    for codes in (per_file, per_line.get(line, set())):
        if "all" in codes or code in codes:
            return True
    return False


def filter_findings(
    findings: Iterable[Finding],
    tool: str,
    sources: Mapping[str, str],
    select: tuple[str, ...] | None = None,
) -> list[Finding]:
    """Keep the selected findings no ``# <tool>:`` pragma silences.

    ``select`` holds code prefixes (``None`` keeps every code); a
    finding's pragmas come from ``sources[finding.path]`` (none when the
    path has no source, as for repo-level findings).  The result is
    sorted by path, line, column and code.
    """
    pragmas: dict[str, tuple[dict[int, set[str]], set[str]]] = {}
    kept: list[Finding] = []
    for f in findings:
        if not selected_by_prefix(f.code, select):
            continue
        if f.path not in pragmas:
            pragmas[f.path] = parse_suppressions(sources.get(f.path, ""), tool)
        if not is_code_suppressed(f.code, f.line, *pragmas[f.path]):
            kept.append(f)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return kept
