"""Shared CLI conventions: ``--select`` parsing and exit codes.

Every analyzer follows the same contract:

* exit **0** — clean (baselined findings allowed),
* exit **1** — new findings,
* exit **2** — usage or parse errors.

``--select`` takes a comma-separated list of rule codes; reproflow and
reproshape treat entries as *prefixes* (``--select S`` selects every
S-rule), reprolint matches codes exactly — both consume
:func:`parse_select` and differ only in the membership test.
"""

from __future__ import annotations

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_ERROR",
    "parse_select",
    "selected_by_prefix",
]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def parse_select(text: str | None) -> tuple[str, ...] | None:
    """``"S001, S004"`` -> ``("S001", "S004")``; ``None``/empty -> ``None``."""
    if not text:
        return None
    codes = tuple(c.strip() for c in text.split(",") if c.strip())
    return codes or None


def selected_by_prefix(code: str, select: tuple[str, ...] | None) -> bool:
    """Prefix-match selection (reproflow/reproshape semantics)."""
    if not select:
        return True
    return any(code.startswith(prefix) for prefix in select)
