"""CLI entry point: ``python -m tools.reproflow [paths...]``.

Exit codes: 0 clean, 1 findings, 2 usage / parse errors.
"""

from __future__ import annotations

import sys

from tools.analysis_common import main
from tools.reproflow import RULES, analyze_paths, build_report

if __name__ == "__main__":
    sys.exit(
        main(
            prog="reproflow",
            description=(
                "cross-module units-and-purity dataflow analyzer for the "
                "multiscatter reproduction"
            ),
            rules=RULES,
            analyze=analyze_paths,
            report=build_report,
            report_help="json includes the annotated call graph",
        )
    )
