"""Excitation traffic generation.

Produces the packet mixes the paper's experiments use: random payloads
per protocol (identification trace sets, §2.2-§2.3), Poisson/periodic
packet schedules at the measured rates (2000 pkt/s WiFi, 70 pkt/s BLE
advertising, 20 pkt/s ZigBee, §3), duty-cycled carriers (Fig 18a), and
time/frequency-colliding excitation pairs (Fig 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.types import FloatArray

from repro.phy import ble, wifi_b, wifi_n, zigbee
from repro.phy.protocols import DEFAULT_PACKET_RATES, Protocol
from repro.phy.waveform import Waveform

__all__ = [
    "random_packet",
    "packet_airtime_s",
    "ExcitationSource",
    "ExcitationSchedule",
    "ScheduledPacket",
]

#: Payload sizes used in the paper's experiments (bytes).
DEFAULT_PAYLOAD_BYTES = {
    Protocol.WIFI_B: 300,
    Protocol.WIFI_N: 300,
    Protocol.BLE: 37,
    Protocol.ZIGBEE: 100,
}


def random_packet(
    protocol: Protocol,
    rng: np.random.Generator,
    *,
    n_payload_bytes: int | None = None,
) -> Waveform:
    """One excitation packet with a random payload.

    The payload is drawn fresh from ``rng`` on every call; the
    payload-independent packet head is cheap because the modulators
    memoize it (the 802.11b PLCP preamble+header chips and the 802.11n
    training/signaling fields are cached per configuration -- see
    :mod:`repro.core.wavecache`), so repeated calls only pay for
    modulating the new payload.
    """
    n = n_payload_bytes
    if n is None:
        n = DEFAULT_PAYLOAD_BYTES[protocol]
    payload = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
    if protocol is Protocol.WIFI_B:
        return wifi_b.modulate(payload)
    if protocol is Protocol.WIFI_N:
        return wifi_n.modulate(payload)
    if protocol is Protocol.BLE:
        return ble.modulate(payload[: min(n, 255)])
    if protocol is Protocol.ZIGBEE:
        return zigbee.modulate(payload[: min(n, 127)])
    raise ValueError(f"unknown protocol {protocol}")


def packet_airtime_s(protocol: Protocol, n_payload_bytes: int) -> float:
    """On-air duration of a packet with an ``n_payload_bytes`` PSDU.

    Computed from protocol timing (preamble/header overhead plus
    payload at the base rate); used by the analytic throughput model.
    """
    bits = n_payload_bytes * 8
    if protocol is Protocol.WIFI_B:
        return 192e-6 + bits / 1e6  # long PLCP + 1 Mbps PSDU
    if protocol is Protocol.WIFI_N:
        n_sym = int(np.ceil((16 + bits + 6) / 26.0))  # MCS0
        return 36e-6 + n_sym * 4e-6
    if protocol is Protocol.BLE:
        return (8 + 32 + 16 + bits + 24) / 1e6  # preamble+AA+hdr+CRC
    if protocol is Protocol.ZIGBEE:
        n_sym = 10 + 2 + int(np.ceil(bits / 4.0))  # SHR + PHR + PSDU
        return n_sym * 16e-6
    raise ValueError(f"unknown protocol {protocol}")


@dataclass(frozen=True)
class ExcitationSource:
    """One radio emitting packets of one protocol.

    ``rate_pkts`` is the average packet rate; ``periodic`` emits on a
    fixed grid (the paper's controlled experiments), otherwise arrival
    times are Poisson.  ``duty_cycle``/``period_s`` gate the source on
    and off (Fig 18a's intermittent carriers); ``phase_s`` offsets the
    gate.  ``center_offset_hz`` places the channel relative to the band
    reference (Fig 16's frequency collisions).
    """

    protocol: Protocol
    rate_pkts: float | None = None
    n_payload_bytes: int | None = None
    periodic: bool = True
    duty_cycle: float = 1.0
    period_s: float = 1.0
    phase_s: float = 0.0
    center_offset_hz: float = 0.0

    def resolved_rate(self) -> float:
        if self.rate_pkts is not None:
            return self.rate_pkts
        return DEFAULT_PACKET_RATES[self.protocol]

    def resolved_payload(self) -> int:
        if self.n_payload_bytes is not None:
            return self.n_payload_bytes
        return DEFAULT_PAYLOAD_BYTES[self.protocol]

    def is_active(self, t: float) -> bool:
        """Whether the duty-cycle gate is open at time ``t``."""
        if self.duty_cycle >= 1.0:
            return True
        frac = ((t - self.phase_s) % self.period_s) / self.period_s
        return frac < self.duty_cycle

    def arrival_times(self, duration_s: float, rng: np.random.Generator) -> FloatArray:
        """Packet start times within [0, duration_s), gate applied."""
        rate = self.resolved_rate()
        if rate <= 0:
            return np.zeros(0)
        if self.periodic:
            times = np.arange(0.0, duration_s, 1.0 / rate)
            times = times + rng.uniform(0.0, 1.0 / rate)
            times = times[times < duration_s]
        else:
            n_expect = rng.poisson(rate * duration_s)
            times = np.sort(rng.uniform(0.0, duration_s, size=n_expect))
        return np.array([t for t in times if self.is_active(t)])


@dataclass
class ScheduledPacket:
    """A packet occurrence on the shared air."""

    protocol: Protocol
    start_s: float
    airtime_s: float
    source: ExcitationSource

    @property
    def end_s(self) -> float:
        return self.start_s + self.airtime_s


@dataclass
class ExcitationSchedule:
    """Packet arrivals from several sources over a time horizon.

    ``collisions`` finds time-overlapping packet pairs -- what the tag
    experiences in Fig 16a since it has no channel filters.
    """

    duration_s: float
    packets: list[ScheduledPacket] = field(default_factory=list)

    @classmethod
    def generate(
        cls,
        sources: list[ExcitationSource],
        duration_s: float,
        rng: np.random.Generator,
    ) -> "ExcitationSchedule":
        sched = cls(duration_s=duration_s)
        for src in sources:
            airtime = packet_airtime_s(src.protocol, src.resolved_payload())
            for t in src.arrival_times(duration_s, rng):
                sched.packets.append(
                    ScheduledPacket(
                        protocol=src.protocol,
                        start_s=float(t),
                        airtime_s=airtime,
                        source=src,
                    )
                )
        sched.packets.sort(key=lambda p: p.start_s)
        return sched

    def collisions(self) -> list[tuple[ScheduledPacket, ScheduledPacket]]:
        """Pairs of packets overlapping in time (any channel)."""
        out = []
        for i, a in enumerate(self.packets):
            for b in self.packets[i + 1 :]:
                if b.start_s >= a.end_s:
                    break
                out.append((a, b))
        return out
