"""The one analyzer CLI: ``--select`` parsing, exit codes and :func:`main`.

Every analyzer follows the same contract:

* exit **0** — clean,
* exit **1** — findings,
* exit **2** — usage or parse errors.

``--select`` takes a comma-separated list of rule codes or code
prefixes (``--select S`` selects every S-rule).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Mapping, TypeVar

from tools.analysis_common.finding import AnalysisResult

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_ERROR",
    "parse_select",
    "selected_by_prefix",
    "main",
]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

R = TypeVar("R", bound=AnalysisResult)


def parse_select(text: str | None) -> tuple[str, ...] | None:
    """``"S001, S004"`` -> ``("S001", "S004")``; ``None``/empty -> ``None``."""
    if not text:
        return None
    codes = tuple(c.strip() for c in text.split(",") if c.strip())
    return codes or None


def selected_by_prefix(code: str, select: tuple[str, ...] | None) -> bool:
    """Whether ``code`` starts with one of the ``select`` prefixes."""
    if not select:
        return True
    return any(code.startswith(prefix) for prefix in select)


def main(
    *,
    prog: str,
    description: str,
    rules: Mapping[str, str],
    analyze: Callable[..., R],
    report: Callable[[R], dict[str, object]] | None = None,
    report_help: str = "",
) -> int:
    """Run ``python -m tools.<prog>``; returns the exit code.

    ``analyze(paths, select=...)`` does the work; ``report`` builds the
    ``--format=json`` document, and the flag exists only when it is given.
    """
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "paths", nargs="*", default=[], help="files or directories to analyze"
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes/prefixes to check (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    if report is not None:
        parser.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help=f"output format ({report_help})",
        )
    args = parser.parse_args()

    if args.list_rules:
        for code, desc in sorted(rules.items()):
            print(f"{code}  {desc}")
        return EXIT_CLEAN
    if not args.paths:
        parser.error(f"no paths given (try: python -m tools.{prog} src/repro)")

    result = analyze(args.paths, select=parse_select(args.select))

    for path, line, msg in result.errors:
        print(f"{path}:{line}:1: parse error: {msg}", file=sys.stderr)

    if report is not None and args.format == "json":
        json.dump(report(result), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for f in result.findings:
            print(f.render())
        if result.findings:
            print(f"{prog}: {len(result.findings)} finding(s)", file=sys.stderr)

    if result.errors:
        return EXIT_ERROR
    return EXIT_FINDINGS if result.findings else EXIT_CLEAN
