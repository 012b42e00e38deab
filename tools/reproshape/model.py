"""reproshape's rule catalog (``# reproshape: disable=S001`` pragmas)."""

from __future__ import annotations

__all__ = ["RULES"]

#: code -> one-line description (shown by ``--list-rules``; the full
#: catalog with rationale lives in docs/STATIC_ANALYSIS.md).
RULES: dict[str, str] = {
    "S001": "call-site array shape incompatible with the callee's shapes contract",
    "S002": "call-site dtype mismatch or implicit narrow-to-wide widening",
    "S004": "public PHY/matching entry point lacks a shapes/dtypes contract",
    "S005": "contract-derivable shape error inside a function body",
}
