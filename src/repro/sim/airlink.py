"""Waveform-level end-to-end system simulation (batch driver).

Ties everything together: an excitation schedule is rendered packet by
packet into real waveforms, the multiscatter tag identifies each one
and backscatters tag data, the channel attenuates and adds noise, and
per-protocol commodity receivers decode both data streams.  This is
the whole Fig 1 loop at the signal level -- the integration surface
the unit tests cannot cover.

The per-packet signal path lives in :mod:`repro.sim.pipeline`; this
module is the thin batch driver that replays a schedule through it and
aggregates an :class:`AirlinkReport`.  The split exists so the
streaming gateway (:mod:`repro.gateway`) can drive the identical
pipeline one packet at a time -- both drivers produce byte-identical
:class:`~repro.sim.pipeline.PacketOutcome` sequences on the same seed.

Kept deliberately packet-sequential (no waveform-level packet
overlap): the collision regime is studied separately in
:mod:`repro.experiments.fig16_collisions` with composite scenes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rng import fallback_rng
from repro.sim.pipeline import AirlinkPipeline, PacketOutcome
from repro.sim.traffic import ExcitationSchedule

__all__ = ["PacketOutcome", "AirlinkReport", "run_airlink"]


@dataclass
class AirlinkReport:
    """Aggregate outcome of a schedule run through the full loop."""

    outcomes: list[PacketOutcome] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def n_packets(self) -> int:
        return len(self.outcomes)

    @property
    def identification_accuracy(self) -> float:
        if not self.outcomes:
            return 0.0
        hits = sum(1 for o in self.outcomes if o.identified is o.protocol)
        return hits / len(self.outcomes)

    @property
    def tag_bit_error_rate(self) -> float:
        sent = sum(o.tag_bits_sent for o in self.outcomes)
        if sent == 0:
            return 1.0
        good = sum(o.tag_bits_correct for o in self.outcomes)
        return 1.0 - good / sent

    def tag_throughput_kbps(self) -> float:
        good = sum(o.tag_bits_correct for o in self.outcomes)
        return good / max(self.duration_s, 1e-12) / 1e3


def run_airlink(
    schedule: ExcitationSchedule,
    *,
    tag_payload: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    max_packets: int | None = None,
) -> AirlinkReport:
    """Run a schedule through excitation -> tag -> channel -> receiver.

    Each scheduled packet becomes a crafted overlay carrier; a fresh
    :class:`~repro.core.tag.MultiscatterTag` identifies it (signal-level
    pipeline) and backscatters the next chunk of ``tag_payload``; the
    receiver decodes at the RSSI/noise implied by the calibrated link
    budget 2 m from the tag.  ``max_packets`` replays only the first
    that many packets (``None``: all of them; a negative value raises
    ``ValueError``).
    """
    if max_packets is not None and max_packets < 0:
        raise ValueError(f"max_packets must be >= 0 or None, got {max_packets!r}")
    pipeline = AirlinkPipeline()
    rng = fallback_rng(rng)
    payload = (
        np.asarray(tag_payload, dtype=np.uint8)
        if tag_payload is not None
        else rng.integers(0, 2, 4096).astype(np.uint8)
    )
    report = AirlinkReport(duration_s=schedule.duration_s)
    cursor = 0

    for scheduled in schedule.packets[:max_packets]:
        outcome, cursor = pipeline.process(scheduled, payload, cursor, rng)
        report.outcomes.append(outcome)
    return report
