"""CLI entry point: ``python -m tools.reprolint [paths...]``.

Exit codes: 0 clean, 1 findings, 2 usage / parse errors.
"""

from __future__ import annotations

import sys

from tools.analysis_common import main
from tools.reprolint import RULES, analyze_paths

if __name__ == "__main__":
    sys.exit(
        main(
            prog="reprolint",
            description=(
                "determinism & dtype AST linter for the multiscatter reproduction"
            ),
            rules=RULES,
            analyze=analyze_paths,
        )
    )
