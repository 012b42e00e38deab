"""Bounds and knobs shared by the experiment entry points.

The bounds that every entry point taking a repeat count, a worker count
or a seed applies (:func:`validate_bounds`, :data:`SEED_BOUND`) and the
``REPRO_WORKERS`` knob behind the CLI's ``--workers`` flag
(:func:`resolve_workers`).
"""

from __future__ import annotations

import os
import warnings

__all__ = [
    "SEED_BOUND",
    "resolve_workers",
    "validate_bounds",
]

#: Exclusive upper bound for user-supplied seeds: one 64-bit entropy
#: word.  ``numpy.random.SeedSequence`` would accept arbitrarily large
#: non-negative integers, but artifacts, manifests and CLI flags store
#: seeds as plain integers that must round-trip through JSON and shell
#: history unambiguously, so the public contract pins one word.
SEED_BOUND: int = 2**64


def validate_bounds(
    *,
    n_trials: int | None = None,
    n_workers: int | None = None,
    seed: int | None = None,
    where: str = "",
) -> None:
    """Validate the shared count/worker/seed knobs in one place.

    ``n_trials`` covers every repeat-count style parameter (trials,
    traces, packets, locations, ...); ``n_workers`` is a pool size;
    ``seed`` must satisfy ``0 <= seed < 2**64`` (:data:`SEED_BOUND`).
    ``None`` means "not supplied" and is always accepted.  ``where``
    names the caller in the error message.
    """
    ctx = f" in {where}" if where else ""
    if seed is not None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seed{ctx} must be an int, got {seed!r}")
        if not 0 <= seed < SEED_BOUND:
            raise ValueError(
                f"seed{ctx} must satisfy 0 <= seed < 2**64, got {seed}"
            )
    if n_trials is not None:
        if not isinstance(n_trials, int) or isinstance(n_trials, bool):
            raise ValueError(f"count{ctx} must be an int, got {n_trials!r}")
        if n_trials < 1:
            raise ValueError(f"count{ctx} must be >= 1, got {n_trials}")
    if n_workers is not None:
        if not isinstance(n_workers, int) or isinstance(n_workers, bool):
            raise ValueError(f"n_workers{ctx} must be an int, got {n_workers!r}")
        if n_workers < 1:
            raise ValueError(f"n_workers{ctx} must be >= 1, got {n_workers}")


def resolve_workers(n_workers: int | None = None) -> int:
    """Resolve the shared worker-count knob.

    An explicit argument wins and is validated strictly (``0``/``-3``
    raise instead of being silently clamped to 1).  Otherwise the
    ``REPRO_WORKERS`` environment variable (set by the CLI's
    ``--workers`` flag) is consulted; a value that does not parse as a
    positive integer is a *misconfiguration*, reported with a
    ``RuntimeWarning`` before falling back to 1 worker.
    """
    if n_workers is not None:
        validate_bounds(n_workers=n_workers, where="resolve_workers")
        return n_workers
    raw = os.environ.get("REPRO_WORKERS", "")
    if not raw:
        return 1
    try:
        value = int(raw)
        validate_bounds(n_workers=value, where="REPRO_WORKERS")
    except ValueError as exc:
        warnings.warn(
            f"ignoring invalid REPRO_WORKERS={raw!r} ({exc}); using 1 worker",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    return value
