"""Finding model, rule catalog, pragmas, and baselines for reproshape."""

from __future__ import annotations

from dataclasses import dataclass

from tools.analysis_common import (
    BaselineBase,
    finding_fingerprint,
    is_code_suppressed,
    parse_suppressions,
)

__all__ = [
    "RULES",
    "Finding",
    "Baseline",
    "suppressions",
    "is_suppressed",
]

#: code -> one-line description (shown by ``--list-rules``; the full
#: catalog with rationale lives in docs/STATIC_ANALYSIS.md).
RULES: dict[str, str] = {
    "S001": "call-site array shape incompatible with the callee's shapes contract",
    "S002": "call-site dtype mismatch or implicit narrow-to-wide widening",
    "S004": "public PHY/matching entry point lacks a shapes/dtypes contract",
    "S005": "contract-derivable shape error inside a function body",
}


@dataclass(frozen=True)
class Finding:
    """One rule hit: location, code, message, enclosing symbol."""

    path: str
    line: int
    col: int
    code: str
    message: str
    #: dotted module + qualname of the enclosing function ("" at module
    #: scope); part of the baseline fingerprint.
    symbol: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def fingerprint(self) -> str:
        """Line-number-independent identity used by baseline files."""
        return finding_fingerprint(self.path, self.code, self.symbol, self.message)

    def to_json(self) -> dict[str, object]:
        return {
            "path": self.path.replace("\\", "/"),
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "symbol": self.symbol,
            "fingerprint": self.fingerprint(),
        }


def suppressions(source: str) -> tuple[dict[int, set[str]], set[str]]:
    """Per-line and file-level ``# reproshape: disable`` pragmas."""
    return parse_suppressions(source, "reproshape")


def is_suppressed(
    finding: Finding, per_line: dict[int, set[str]], per_file: set[str]
) -> bool:
    return is_code_suppressed(finding.code, finding.line, per_line, per_file)


class Baseline(BaselineBase):
    """Acknowledged reproshape findings, keyed by fingerprint."""

    TOOL = "reproshape"
