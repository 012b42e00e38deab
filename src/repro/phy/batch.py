"""Shared guard for the ``*_batch`` PHY entry points.

Each ``demodulate_batch`` and :func:`repro.phy.viterbi.decode_batch`
applies its single-packet kernel to every item in turn and returns the
results in input order.  Empty batches are rejected eagerly with a
:class:`ValueError` naming the entry point; a silent empty return
would let a caller's broken chunking pass unnoticed.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["require_nonempty"]


def require_nonempty(items: Sequence[object], where: str) -> None:
    """Raise ``ValueError`` if ``items`` is an empty batch."""
    if len(items) == 0:
        raise ValueError(
            f"{where}: empty batch -- batched entry points require at "
            "least one item"
        )
