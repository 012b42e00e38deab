"""Lightweight performance instrumentation.

Zero-dependency counters and timers for the hot paths: wrap a region
in :func:`timer` (or decorate with :func:`timed`) and bump
:func:`count` for interesting events.  Everything is process-local and
cheap enough to leave on.

Set ``REPRO_PERF=1`` to print a report at interpreter exit -- per-name
call counts and cumulative/mean wall time, plus the waveform/template
cache counters from :mod:`repro.core.wavecache`.  :func:`report`
renders the same table on demand.

Every PHY/matching kernel entry point bumps a counter named after
itself (``wifi_n.demodulate``, ``viterbi.decode``, ...), so the
``REPRO_PERF=1`` report shows how often each kernel ran.

Robustness events from the fault-tolerant Monte-Carlo runner
(:mod:`repro.sim.runner`) land in the counters section under the
``mc.`` prefix -- ``mc.chunk_retries`` (chunks re-run after a
failure), ``mc.chunk_timeouts`` (chunks abandoned at the wall-clock
deadline), ``mc.worker_crashes`` (pool workers that died mid-chunk) --
so a ``REPRO_PERF=1`` run shows at a glance whether its results
needed any recovery.  All three are counted in the parent process;
workers never mutate shared perf state.
"""

from __future__ import annotations

import atexit
import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

__all__ = [
    "timer",
    "timed",
    "count",
    "counters",
    "gauge",
    "gauges",
    "timings",
    "reset",
    "report",
]

_F = TypeVar("_F", bound=Callable)

#: name -> [n_calls, total_seconds]
_TIMINGS: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])

#: name -> count
_COUNTERS: dict[str, int] = defaultdict(int)

#: name -> [last, min, max, n_samples] for level-style metrics
_GAUGES: dict[str, list[float]] = {}


@contextmanager
def timer(name: str) -> Iterator[None]:
    """Accumulate wall time of the enclosed block under ``name``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        cell = _TIMINGS[name]
        cell[0] += 1
        cell[1] += time.perf_counter() - t0


def timed(name: str | None = None) -> Callable[[_F], _F]:
    """Decorator form of :func:`timer` (defaults to the function name)."""

    def deco(fn: _F) -> _F:
        label = name or f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with timer(label):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return deco


def count(name: str, n: int = 1) -> None:
    """Bump the event counter ``name`` by ``n``."""
    # Telemetry only; worker-side mutations are intentionally local.
    _COUNTERS[name] += n  # reproflow: disable=F001


def counters() -> dict[str, int]:
    """Snapshot of all event counters."""
    return dict(_COUNTERS)


def gauge(name: str, value: float) -> None:
    """Record a level-style sample (queue depth, latency, backlog).

    Unlike :func:`count`, a gauge tracks the *current* value of
    something that goes up and down; the report shows last/min/max so
    a gateway run exposes its high-water queue depths and worst decode
    latency without keeping per-sample history.
    """
    cell = _GAUGES.get(name)
    if cell is None:
        # Telemetry only; process-local like the counters above.
        _GAUGES[name] = [value, value, value, 1]  # reproflow: disable=F001
        return
    cell[0] = value
    cell[1] = min(cell[1], value)
    cell[2] = max(cell[2], value)
    cell[3] += 1


def gauges() -> dict[str, dict[str, float]]:
    """Snapshot of gauges: name -> {last, min, max, n}."""
    return {
        k: {"last": v[0], "min": v[1], "max": v[2], "n": v[3]}
        for k, v in _GAUGES.items()
    }


def timings() -> dict[str, tuple[int, float]]:
    """Snapshot of timers: name -> (n_calls, total_seconds)."""
    return {k: (int(v[0]), float(v[1])) for k, v in _TIMINGS.items()}


def reset() -> None:
    """Clear all timers, counters and gauges."""
    _TIMINGS.clear()
    _COUNTERS.clear()
    _GAUGES.clear()


def report() -> str:
    """Render timers, counters and cache statistics as a text table."""
    lines = ["==== repro perf report ===="]
    t = timings()
    if t:
        lines.append("timers (name, calls, total s, mean ms):")
        width = max(len(k) for k in t)
        for name, (calls, total) in sorted(t.items(), key=lambda kv: -kv[1][1]):
            mean_ms = total / calls * 1e3 if calls else 0.0
            lines.append(f"  {name:<{width}s} {calls:8d} {total:10.4f} {mean_ms:10.4f}")
    c = counters()
    if c:
        lines.append("counters:")
        width = max(len(k) for k in c)
        for name, n in sorted(c.items()):
            lines.append(f"  {name:<{width}s} {n:10d}")
    g = gauges()
    if g:
        lines.append("gauges (name, last, min, max, samples):")
        width = max(len(k) for k in g)
        for name, s in sorted(g.items()):
            lines.append(
                f"  {name:<{width}s} {s['last']:12.4f} {s['min']:12.4f} "
                f"{s['max']:12.4f} {int(s['n']):8d}"
            )
    try:
        from repro.core.wavecache import cache_stats

        stats = cache_stats()
    except Exception:  # pragma: no cover - wavecache import failure
        stats = {}
    if stats:
        lines.append("caches (name, hits, misses, evictions, size/max):")
        width = max(len(k) for k in stats)
        for name, s in sorted(stats.items()):
            lines.append(
                f"  {name:<{width}s} {s['hits']:8d} {s['misses']:8d} "
                f"{s['evictions']:6d} {s['size']:5d}/{s['maxsize']}"
            )
    if len(lines) == 1:
        lines.append("(no samples)")
    return "\n".join(lines)


def _atexit_report() -> None:  # pragma: no cover - exercised via subprocess
    print(report())


if os.environ.get("REPRO_PERF", "") not in ("", "0"):
    atexit.register(_atexit_report)
