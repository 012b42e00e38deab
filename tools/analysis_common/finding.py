"""The finding record every analyzer reports, and the run result the CLI reads."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding", "AnalysisResult"]


@dataclass(frozen=True)
class Finding:
    """One rule hit: location, code, message, enclosing symbol."""

    path: str
    line: int
    col: int
    code: str
    message: str
    #: dotted module + qualname of the enclosing function ("" at module
    #: scope and for reprolint's per-file rules).
    symbol: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_json(self) -> dict[str, object]:
        return {
            "path": self.path.replace("\\", "/"),
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "symbol": self.symbol,
        }


@dataclass
class AnalysisResult:
    """What one run produced; each whole-program analyzer extends it
    with the structures its JSON report carries."""

    findings: list[Finding] = field(default_factory=list)
    #: (path, line, message) of each file or spec that failed to parse
    errors: list[tuple[str, int, str]] = field(default_factory=list)
