"""Deterministic MAC arbitration for contending tags.

When several registered tags could answer the same excitation packet,
exactly one may backscatter (the physical medium admits one overlay
per carrier; simultaneous tag modulations would collide at the
receiver).  The arbiter picks that winner with its **own** seeded RNG
stream, separate from every tag's channel RNG, so:

* adding or removing contenders never perturbs any tag's channel
  draws (replay of a tag's packet history is bit-identical);
* the uncontended case (zero or one candidate) draws **nothing** --
  a single-tag gateway consumes exactly the RNG sequence the batch
  :func:`repro.sim.airlink.run_airlink` does, which is what the
  streaming/batch equivalence tests assert;
* the same seed and the same contender sequence replay the same
  winners, bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["MacArbiter"]


class MacArbiter:
    """Seeded, replayable winner selection among contending tags."""

    def __init__(self, *, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def arbitrate(self, contenders: Sequence[str]) -> str | None:
        """The tag that backscatters this excitation (``None``: no tag).

        Zero or one contender is the fast path and consumes no
        randomness; only a genuinely contended slot draws from the
        arbiter's stream.
        """
        ids = tuple(contenders)
        if len(ids) == 0:
            return None
        if len(ids) == 1:
            return ids[0]
        return ids[int(self._rng.integers(0, len(ids)))]
