"""Determinism policy for random number generation.

Every stochastic function in this repo threads an explicit
``np.random.Generator`` (or derives one from a ``SeedSequence``);
reprolint rule R001 bans hidden global state (``np.random.<fn>``,
stdlib ``random``) and *time-seeded* generators, because one stray
call breaks the bit-identical parallel Monte-Carlo guarantee
(docs/STATIC_ANALYSIS.md).

:func:`fallback_rng` is the one sanctioned way to default an optional
``rng`` parameter: the fallback is seeded with a fixed constant, so an
``rng=None`` call is reproducible run-to-run instead of time-seeded.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DEFAULT_SEED", "fallback_rng"]

#: Seed used whenever a caller does not supply a Generator.
DEFAULT_SEED: int = 0


def fallback_rng(rng: np.random.Generator | None) -> np.random.Generator:
    """Return ``rng`` if given, else a fresh one seeded with
    :data:`DEFAULT_SEED`."""
    if rng is not None:
        return rng
    return np.random.default_rng(DEFAULT_SEED)
