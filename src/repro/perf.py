"""Lightweight performance instrumentation.

Zero-dependency counters and gauges for the hot paths: bump
:func:`count` for interesting events and record level-style samples
with :func:`gauge`.  Everything is process-local and cheap enough to
leave on.  Per-layer timing lives outside the package, in perfbench's
spans (``perfbench/tracing.py``).

Set ``REPRO_PERF=1`` to print a report at interpreter exit -- the
counters and gauges, plus the waveform/template cache counters from
:mod:`repro.core.wavecache`.  :func:`report` renders the same table on
demand.

Every PHY/matching kernel entry point bumps a counter named after
itself (``wifi_n.demodulate``, ``viterbi.decode``, ...), so the
``REPRO_PERF=1`` report shows how often each kernel ran.
"""

from __future__ import annotations

import atexit
import os
from collections import defaultdict

__all__ = [
    "count",
    "counters",
    "gauge",
    "gauges",
    "reset",
    "report",
]

#: name -> count
_COUNTERS: dict[str, int] = defaultdict(int)

#: name -> [last, min, max, n_samples] for level-style metrics
_GAUGES: dict[str, list[float]] = {}


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


def reset() -> None:
    """Clear all counters and gauges."""
    _COUNTERS.clear()
    _GAUGES.clear()


def report() -> str:
    """Render counters, gauges and cache statistics as a text table."""
    lines = ["==== repro perf report ===="]
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
