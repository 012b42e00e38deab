"""CLI entry point: ``python -m tools.reproshape [paths...]``.

Exit codes: 0 clean, 1 findings, 2 usage / parse errors.
"""

from __future__ import annotations

import sys

from tools.analysis_common import main
from tools.reproshape import RULES, analyze_paths, build_report

if __name__ == "__main__":
    sys.exit(
        main(
            prog="reproshape",
            description=(
                "whole-program symbolic shape/dtype verifier over the "
                "contracts DSL for the multiscatter reproduction"
            ),
            rules=RULES,
            analyze=analyze_paths,
            report=build_report,
            report_help="json includes the per-function shape table",
        )
    )
