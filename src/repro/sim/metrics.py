"""Shared metric helpers: BER and confusion tables."""

from __future__ import annotations

import numpy as np

from repro.phy.protocols import Protocol

__all__ = ["ber", "confusion_table", "format_table"]


def ber(reference: np.ndarray, received: np.ndarray) -> float:
    """Bit error rate over the overlapping prefix of two bit arrays."""
    a = np.asarray(reference).ravel()
    b = np.asarray(received).ravel()
    n = min(a.size, b.size)
    if n == 0:
        return 1.0
    errors = int(np.count_nonzero(a[:n] != b[:n]))
    # Bits missing from the received stream count as errors.
    errors += abs(a.size - b.size) if b.size < a.size else 0
    return errors / max(a.size, 1)


def confusion_table(
    confusion: dict[tuple[Protocol, Protocol], int]
) -> str:
    """Render a confusion-count dict as an aligned text table."""
    protocols = list(Protocol)
    header = "truth\\pred " + " ".join(f"{p.value:>9s}" for p in protocols)
    lines = [header]
    for t in protocols:
        row = [f"{t.value:<10s}"]
        for d in protocols:
            row.append(f"{confusion.get((t, d), 0):>9d}")
        lines.append(" ".join(row))
    return "\n".join(lines)


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Simple aligned text table used by the benchmark harness."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    def fmt(cells: list[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    out = [fmt(headers), fmt(["-" * w for w in widths])]
    out.extend(fmt(r) for r in str_rows)
    return "\n".join(out)
