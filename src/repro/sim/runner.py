"""Monte-Carlo experiment runner.

Small utility for experiments that repeat a trial function over seeded
RNGs and aggregate scalar metrics -- keeps seeding policy (independent
spawned streams) and aggregation consistent across the experiment
modules.  Trials run serially in the caller's process; an exception
raised by a trial propagates unchanged.

The module also owns the bounds shared by every entry point that takes
a repeat count, a worker count or a seed (:func:`validate_bounds`,
:data:`SEED_BOUND`) and the ``REPRO_WORKERS`` knob behind the CLI's
``--workers`` flag (:func:`resolve_workers`).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MonteCarlo",
    "SEED_BOUND",
    "TrialStats",
    "resolve_workers",
    "validate_bounds",
]

#: Exclusive upper bound for user-supplied seeds: one 64-bit entropy
#: word.  ``numpy.random.SeedSequence`` would accept arbitrarily large
#: non-negative integers, but artifacts, manifests and CLI flags store
#: seeds as plain integers that must round-trip through JSON and shell
#: history unambiguously, so the public contract pins one word.
SEED_BOUND: int = 2**64

#: One trial: rng in, named scalar metrics out.
Trial = Callable[[np.random.Generator], dict[str, float]]


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


@dataclass
class TrialStats:
    """Aggregate of one scalar metric across trials."""

    values: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.values.mean()) if self.values.size else float("nan")

    @property
    def std(self) -> float:
        return float(self.values.std(ddof=1)) if self.values.size > 1 else 0.0

    @property
    def n(self) -> int:
        return int(self.values.size)

    def ci95_halfwidth(self) -> float:
        """95% confidence half-width, Student-t for small n.

        Uses the t quantile at ``n - 1`` degrees of freedom, which the
        normal approximation (1.96) understates badly for the small
        trial counts quick runs use; the two agree asymptotically.
        """
        if self.values.size < 2:
            return 0.0
        from scipy import stats as sp_stats

        t = float(sp_stats.t.ppf(0.975, self.values.size - 1))
        return float(t * self.std / np.sqrt(self.values.size))


@dataclass
class MonteCarlo:
    """Run ``trial(rng) -> dict[str, float]`` over independent streams.

    Seeds are spawned from one root ``SeedSequence`` so trials are
    independent yet the whole run is reproducible from ``seed``.
    """

    n_trials: int
    seed: int = 0

    def run(self, trial: Trial) -> dict[str, TrialStats]:
        validate_bounds(n_trials=self.n_trials, where="MonteCarlo")
        root = np.random.SeedSequence(self.seed)
        return _collect(
            [trial(np.random.default_rng(s)) for s in root.spawn(self.n_trials)]
        )


def _collect(results: list[dict[str, float]]) -> dict[str, TrialStats]:
    """Aggregate per-trial metric dicts, rejecting misaligned key sets.

    Silently merging trials that disagree on their metric keys would
    produce per-key ``TrialStats`` with different ``n`` -- means over
    different trial subsets presented as one population.  The first
    trial defines the contract; any deviation names the trial and the
    key diff.
    """
    collected: dict[str, list[float]] = {}
    first_keys: set[str] = set()
    for index, metrics in enumerate(results):
        keys = set(metrics)
        if index == 0:
            first_keys = keys
        elif keys != first_keys:
            missing = ", ".join(sorted(first_keys - keys)) or "<none>"
            extra = ", ".join(sorted(keys - first_keys)) or "<none>"
            raise ValueError(
                f"trial {index} returned a different metric key set than "
                f"trial 0 (missing: {missing}; unexpected: {extra}); every "
                f"trial must return the same metrics"
            )
        for key, value in metrics.items():
            collected.setdefault(key, []).append(float(value))
    return {k: TrialStats(np.array(v)) for k, v in collected.items()}
