"""CLI entry point: ``python -m tools.reproasync [paths...]``.

Exit codes: 0 clean, 1 findings, 2 usage / parse errors.
"""

from __future__ import annotations

import sys

from tools.analysis_common import main
from tools.reproasync import RULES, analyze_paths, build_report

if __name__ == "__main__":
    sys.exit(
        main(
            prog="reproasync",
            description=(
                "whole-program asyncio/concurrency safety analyzer for the "
                "multiscatter reproduction"
            ),
            rules=RULES,
            analyze=analyze_paths,
            report=build_report,
            report_help="json includes the async call graph + proofs",
        )
    )
