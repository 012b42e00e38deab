"""Excitation-diversity logic (paper §4.2, Fig 18).

Two behaviours are modeled:

* **Adaptation to discontinuous excitations** (Fig 18a): with several
  duty-cycled carriers on the air, a multiscatter tag transmits
  whenever *any* carrier is present, while a single-protocol tag idles
  during its carrier's off phases.
* **Intelligent carrier pick** (Fig 18b): given the observed excitation
  rates, the tag estimates the backscattered goodput of each protocol
  and selects the carrier that meets the application's goodput goal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.overlay import Mode
from repro.core.throughput import OverlayThroughputModel
from repro.phy.protocols import Protocol
from repro.sim.traffic import ExcitationSchedule

__all__ = ["CarrierEstimate", "CarrierSelector", "diversity_timeline"]


@dataclass
class CarrierEstimate:
    """Estimated tag goodput over one carrier (Fig 18b's decision
    evidence)."""

    protocol: Protocol
    observed_rate_pkts: float
    tag_goodput_kbps: float


class CarrierSelector:
    """Pick the excitation that maximizes tag goodput (§4.2.2)."""

    def __init__(
        self,
        *,
        mode: Mode = Mode.MODE_1,
        distance_m: float = 2.0,
        payload_bytes: dict[Protocol, int] | None = None,
    ) -> None:
        self.mode = mode
        self.distance_m = distance_m
        self.payload_bytes = payload_bytes or {}

    def estimate(
        self, protocol: Protocol, observed_rate_pkts: float
    ) -> CarrierEstimate:
        model = OverlayThroughputModel(
            protocol,
            mode=self.mode,
            n_payload_bytes=self.payload_bytes.get(protocol),
        )
        point = model.evaluate(self.distance_m, packet_rate=observed_rate_pkts)
        return CarrierEstimate(
            protocol=protocol,
            observed_rate_pkts=observed_rate_pkts,
            tag_goodput_kbps=point.tag_kbps,
        )

    def pick(
        self,
        observed_rates: dict[Protocol, float],
        *,
        goal_kbps: float = 0.0,
    ) -> tuple[Protocol | None, list[CarrierEstimate]]:
        """The best carrier and all estimates; ``None`` if no carrier
        meets ``goal_kbps``."""
        # Written so that NaN fails it: a NaN goal compares as met.
        if not 0 <= goal_kbps < math.inf:
            raise ValueError(f"goal_kbps must be >= 0 and finite, got {goal_kbps!r}")
        estimates = [
            self.estimate(p, rate) for p, rate in observed_rates.items() if rate > 0
        ]
        estimates.sort(key=lambda e: e.tag_goodput_kbps, reverse=True)
        if not estimates or estimates[0].tag_goodput_kbps < goal_kbps:
            return None, estimates
        return estimates[0].protocol, estimates


def diversity_timeline(
    schedule: ExcitationSchedule,
    *,
    bin_s: float = 0.05,
    tag_protocols: tuple[Protocol, ...] = tuple(Protocol),
    mode: Mode = Mode.MODE_1,
    distance_m: float = 2.0,
) -> dict[str, np.ndarray]:
    """Tag throughput over time under a packet schedule (Fig 18a).

    Returns per-bin tag throughput (kbps) for a tag that can use
    ``tag_protocols``.  A multiscatter tag passes all four protocols; a
    single-protocol tag passes one.
    """
    n_bins = max(int(np.ceil(schedule.duration_s / bin_s)), 1)
    bins = np.zeros(n_bins)
    # A packet's expected tag bits depend only on its protocol and
    # payload size: one model and one PER per pair.
    expected_bits: dict[tuple[Protocol, int], float] = {}
    for pkt in schedule.packets:
        if pkt.protocol not in tag_protocols:
            continue
        payload = pkt.source.resolved_payload()
        key = (pkt.protocol, payload)
        if key not in expected_bits:
            model = OverlayThroughputModel(pkt.protocol, mode=mode, n_payload_bytes=payload)
            _, tag_bits = model.bits_per_packet()
            per = model.link.per(distance_m, payload * 8)
            expected_bits[key] = tag_bits * (1.0 - per)
        idx = min(int(pkt.start_s / bin_s), n_bins - 1)
        bins[idx] += expected_bits[key]
    return {
        "time_s": np.arange(n_bins) * bin_s,
        "tag_kbps": bins / bin_s / 1e3,
    }
