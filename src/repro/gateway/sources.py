"""Async excitation sources: the batch schedules, lifted to a stream.

:class:`AsyncExcitationSource` renders a deterministic
:class:`~repro.sim.traffic.ExcitationSchedule` (same generator, same
arrival times as the batch experiments) and exposes it as an async
iterator of :class:`~repro.sim.traffic.ScheduledPacket`.

``time_scale`` maps schedule time to wall time: ``1.0`` replays in
real time (a live demo), ``0.0`` fast-forwards (tests, benchmarks, and
the equivalence suite) while still yielding to the event loop between
packets so tag tasks and subscribers run interleaved, exactly as they
would at speed.
"""

from __future__ import annotations

import asyncio
import math
from typing import AsyncIterator, Sequence

import numpy as np

from repro.phy.protocols import Protocol
from repro.sim.traffic import ExcitationSchedule, ExcitationSource, ScheduledPacket

__all__ = ["AsyncExcitationSource"]


class AsyncExcitationSource:
    """A schedule of excitation packets, streamed packet by packet."""

    def __init__(
        self,
        sources: Sequence[ExcitationSource],
        *,
        duration_s: float,
        rng: np.random.Generator,
        time_scale: float = 0.0,
        max_packets: int | None = None,
    ) -> None:
        if not (math.isfinite(time_scale) and time_scale >= 0):
            raise ValueError("time_scale must be finite and >= 0")
        if not (math.isfinite(duration_s) and duration_s >= 0):
            raise ValueError("duration_s must be finite and >= 0")
        if max_packets is not None and max_packets < 0:
            raise ValueError("max_packets must be >= 0")
        self.time_scale = time_scale
        # The schedule is rendered eagerly so the packet sequence is a
        # pure function of (sources, duration, rng) -- identical to
        # what the batch driver would replay with the same inputs.
        self.schedule: ExcitationSchedule = ExcitationSchedule.generate(
            list(sources), duration_s=duration_s, rng=rng
        )
        if max_packets is not None:
            self.schedule.packets = self.schedule.packets[:max_packets]
        self._stopped = False

    @property
    def duration_s(self) -> float:
        return self.schedule.duration_s

    def observed_rates(self) -> dict[Protocol, float]:
        """Per-protocol packet rates of the rendered schedule.

        This is the control plane's §4.2.2 decision input: what the
        gateway actually sees on the air, not what the sources were
        configured to emit.
        """
        span = max(self.schedule.duration_s, 1e-12)
        rates: dict[Protocol, float] = {}
        for pkt in self.schedule.packets:
            rates[pkt.protocol] = rates.get(pkt.protocol, 0.0) + 1.0
        return {p: n / span for p, n in rates.items()}

    def stop(self) -> None:
        """Stop the stream after the packet currently being yielded."""
        self._stopped = True

    async def __aiter__(self) -> AsyncIterator[ScheduledPacket]:
        prev_start_s = 0.0
        for scheduled in self.schedule.packets:
            if self._stopped:
                return
            gap_s = (scheduled.start_s - prev_start_s) * self.time_scale
            prev_start_s = scheduled.start_s
            # Always yield to the loop, even fast-forwarded: tag tasks
            # and subscribers must interleave with the air loop.
            await asyncio.sleep(gap_s if gap_s > 0 else 0)
            yield scheduled
