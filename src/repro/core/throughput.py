"""Analytic overlay throughput model (Figs 12, 13c, 14c, 15, 16).

Combines protocol timing (:func:`repro.sim.traffic.packet_airtime_s`),
overlay capacity (:class:`repro.core.overlay.OverlayCodec`), and the
link budget's PER to predict productive and tag throughput at a given
tag-receiver distance.

Two traffic regimes matter in the paper:

* **saturated** (Fig 12's "maximal throughput"): the excitation radio
  sends back-to-back packets separated by an inter-frame space, so the
  packet rate is 1 / (airtime + IFS);
* **rate-limited** (Figs 13/16/18): the excitation runs at a measured
  packet rate (2000/s WiFi, 34-70/s BLE advertising, 20/s ZigBee).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.link import PROTOCOL_LINK_DEFAULTS, BackscatterLink
from repro.core.overlay import Mode, OverlayCodec, OverlayConfig
from repro.phy.protocols import Protocol
from repro.types import Hertz, Meters
from repro.sim.traffic import packet_airtime_s

__all__ = [
    "payload_symbols",
    "SATURATION_PAYLOAD_BYTES",
    "INTERFRAME_SPACE_S",
    "ThroughputPoint",
    "OverlayThroughputModel",
]

#: Payload sizes for the saturated-throughput experiments (WiFi frames
#: of 300 B as in §4.1.4; BLE with data-length extension; ZigBee's
#: 127 B maximum PSDU).
SATURATION_PAYLOAD_BYTES = {
    Protocol.WIFI_B: 300,
    Protocol.WIFI_N: 300,
    Protocol.BLE: 255,
    Protocol.ZIGBEE: 127,
}

#: Inter-frame spacing per protocol (DIFS-ish for WiFi, the BLE
#: minimum inter-PDU gap, 802.15.4 LIFS).
INTERFRAME_SPACE_S = {
    Protocol.WIFI_B: 150e-6,
    Protocol.WIFI_N: 150e-6,
    Protocol.BLE: 150e-6,
    Protocol.ZIGBEE: 640e-6,
}


def payload_symbols(protocol: Protocol, n_payload_bytes: int) -> int:
    """Overlay symbol slots a PSDU of ``n_payload_bytes`` provides."""
    bits = n_payload_bytes * 8
    if protocol in (Protocol.WIFI_B, Protocol.BLE):
        return bits  # 1 bit per DSSS symbol / GFSK bit
    if protocol is Protocol.ZIGBEE:
        return (bits + 3) // 4
    # 802.11n MCS0: 26 data bits per OFDM symbol (incl. service/tail).
    return int(np.ceil((16 + bits + 6) / 26.0))


@dataclass
class ThroughputPoint:
    """Predicted throughputs at one operating point."""

    productive_kbps: float
    tag_kbps: float
    rssi_dbm: float

    @property
    def aggregate_kbps(self) -> float:
        return self.productive_kbps + self.tag_kbps


class OverlayThroughputModel:
    """Productive/tag throughput vs distance for one protocol+mode."""

    def __init__(
        self,
        protocol: Protocol,
        *,
        mode: Mode = Mode.MODE_1,
        link: BackscatterLink | None = None,
        n_payload_bytes: int | None = None,
    ) -> None:
        self.protocol = protocol
        self.link = link or BackscatterLink(PROTOCOL_LINK_DEFAULTS[protocol])
        self.n_payload_bytes = (
            n_payload_bytes
            if n_payload_bytes is not None
            else SATURATION_PAYLOAD_BYTES[protocol]
        )
        self.n_symbols = payload_symbols(protocol, self.n_payload_bytes)
        self.codec = OverlayCodec(
            OverlayConfig.for_mode(protocol, mode, payload_symbols=self.n_symbols)
        )

    @property
    def airtime_s(self) -> float:
        return packet_airtime_s(self.protocol, self.n_payload_bytes)

    def saturated_packet_rate(self) -> Hertz:
        """Back-to-back excitation: 1 / (airtime + IFS)."""
        return 1.0 / (self.airtime_s + INTERFRAME_SPACE_S[self.protocol])

    def bits_per_packet(self) -> tuple[int, int]:
        """(productive, tag) bits carried by one packet."""
        return self.codec.capacity(self.n_symbols)

    def evaluate(
        self,
        distance_m: Meters,
        *,
        packet_rate: Hertz | None = None,
    ) -> ThroughputPoint:
        """Throughput at ``distance_m``; saturated rate by default."""
        rate = packet_rate if packet_rate is not None else self.saturated_packet_rate()
        productive_bits, tag_bits = self.bits_per_packet()
        per = self.link.per(distance_m, self.n_payload_bytes * 8)
        good = rate * (1.0 - per)
        return ThroughputPoint(
            productive_kbps=productive_bits * good / 1e3,
            tag_kbps=tag_bits * good / 1e3,
            rssi_dbm=self.link.rssi_dbm(distance_m),
        )

    def sweep(self, distances_m: np.ndarray) -> list[ThroughputPoint]:
        """Evaluate across a distance sweep at the saturated rate (Fig
        13/14 curves)."""
        return [self.evaluate(float(d)) for d in distances_m]
