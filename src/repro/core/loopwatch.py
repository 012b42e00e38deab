"""Event-loop lag sanitizer: the runtime counterpart to reproasync C001.

Static analysis proves no *known* blocking primitive is reachable from
async code; this module measures the loop itself, so anything the
analyzer cannot see (a slow C extension, an unexpectedly large batch)
still gets caught.  Enable with ``REPRO_LOOPWATCH=1``:

* a monitor task sleeps for a short interval and records how late it
  wakes up -- that lag is exactly how long some callback monopolized
  the loop; every tick feeds the ``loopwatch.lag_s`` gauge in
  :mod:`repro.perf`;
* a wake-up later than :data:`DEFAULT_THRESHOLD_S` (0.25 s) counts as
  a **violation** (``loopwatch.violations``), which the gateway
  surfaces in :class:`~repro.gateway.service.GatewayStats` and
  ``python -m repro serve --require-clean`` treats as a failure;
* under ``PYTHONASYNCIODEBUG=1`` asyncio logs every callback slower
  than ``loop.slow_callback_duration``; the watcher aligns that knob
  with its own threshold and counts those log records too
  (``slow_callbacks``), so the static C001 story is corroborated by
  two independent runtime signals.

The monitor is wall-clock-only: it draws no RNG and touches no
pipeline state, so enabling it cannot perturb replay determinism.
"""

from __future__ import annotations

import asyncio
import logging
import os
from dataclasses import dataclass

from repro import perf

__all__ = [
    "ENV_FLAG",
    "LoopWatchStats",
    "LoopWatch",
    "enabled",
    "maybe_start",
]

ENV_FLAG = "REPRO_LOOPWATCH"

#: A callback holding the loop longer than this is a violation.  Heavy
#: PHY kernels run ~0.1-3 ms, so a quarter second means something is
#: blocking the loop outright, not just computing.
DEFAULT_THRESHOLD_S = 0.25

#: Monitor tick; small enough to catch one-off stalls, large enough to
#: stay invisible in the latency gauges.
DEFAULT_INTERVAL_S = 0.02


def enabled() -> bool:
    """Is the sanitizer requested via ``REPRO_LOOPWATCH``?"""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


@dataclass
class LoopWatchStats:
    """What one monitored stretch of event loop observed."""

    ticks: int = 0
    max_lag_s: float = 0.0
    #: monitor wake-ups later than the threshold
    violations: int = 0
    #: asyncio-debug "Executing ... took" log records (needs
    #: ``PYTHONASYNCIODEBUG=1``; 0 otherwise)
    slow_callbacks: int = 0


class _SlowCallbackCounter(logging.Handler):
    """Counts asyncio debug-mode slow-callback warnings."""

    def __init__(self, stats: LoopWatchStats) -> None:
        super().__init__(level=logging.WARNING)
        self.stats = stats

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if "Executing" in message and "took" in message:
            self.stats.slow_callbacks += 1
            perf.count("loopwatch.slow_callbacks")


class LoopWatch:
    """One lag monitor; :meth:`start` inside a running loop."""

    def __init__(
        self,
        *,
        interval_s: float = DEFAULT_INTERVAL_S,
        threshold: float = DEFAULT_THRESHOLD_S,
    ) -> None:
        self.interval_s = interval_s
        self.threshold_s = threshold
        self.stats = LoopWatchStats()
        self._task: asyncio.Task | None = None
        self._handler: _SlowCallbackCounter | None = None

    def start(self) -> None:
        if self._task is not None:
            return
        loop = asyncio.get_running_loop()
        # Align asyncio's own debug-mode slow-callback reporting with
        # our budget so both signals agree on what "too slow" means.
        loop.slow_callback_duration = self.threshold_s
        self._handler = _SlowCallbackCounter(self.stats)
        logging.getLogger("asyncio").addHandler(self._handler)
        self._task = asyncio.ensure_future(self._run(loop))

    async def _run(self, loop: asyncio.AbstractEventLoop) -> None:
        last = loop.time()
        while True:
            await asyncio.sleep(self.interval_s)
            now = loop.time()
            lag = max(0.0, (now - last) - self.interval_s)
            last = now
            self.stats.ticks += 1
            if lag > self.stats.max_lag_s:
                self.stats.max_lag_s = lag
            perf.gauge("loopwatch.lag_s", lag)
            if lag >= self.threshold_s:
                self.stats.violations += 1
                perf.count("loopwatch.violations")

    async def stop(self) -> LoopWatchStats:
        """Cancel the monitor and return what it saw."""
        if self._handler is not None:
            logging.getLogger("asyncio").removeHandler(self._handler)
            self._handler = None
        task = self._task
        self._task = None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        perf.gauge("loopwatch.max_lag_s", self.stats.max_lag_s)
        return self.stats


def maybe_start() -> LoopWatch | None:
    """Start a watcher iff ``REPRO_LOOPWATCH`` asks for one."""
    if not enabled():
        return None
    watch = LoopWatch()
    watch.start()
    return watch
