"""Excitation traffic generation.

Produces the packet mixes the paper's experiments use: random payloads
per protocol (identification trace sets, §2.2-§2.3), Poisson/periodic
packet schedules at the measured rates (2000 pkt/s WiFi, 70 pkt/s BLE
advertising, 20 pkt/s ZigBee, §3) and duty-cycled carriers (Fig 18a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.types import FloatArray

from repro.phy import modems
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

#: The longest payload a frame carries: a BLE PDU 255 bytes, an
#: 802.15.4 PSDU 127.
_MAX_PAYLOAD_BYTES = {Protocol.BLE: 255, Protocol.ZIGBEE: 127}


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
    return modems.modulate(protocol, payload[: _MAX_PAYLOAD_BYTES.get(protocol, n)])


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
    gate.  A rate of 0 is a silent source.
    """

    protocol: Protocol
    rate_pkts: float | None = None
    n_payload_bytes: int | None = None
    periodic: bool = True
    duty_cycle: float = 1.0
    period_s: float = 1.0
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if self.rate_pkts is not None and not 0 <= self.rate_pkts < math.inf:
            raise ValueError(f"rate_pkts must be >= 0 and finite, got {self.rate_pkts!r}")
        if self.n_payload_bytes is not None and not 0 <= self.n_payload_bytes < math.inf:
            raise ValueError(
                f"n_payload_bytes must be >= 0 and finite, got {self.n_payload_bytes!r}"
            )
        if not 0 <= self.duty_cycle <= 1:
            raise ValueError(f"duty_cycle must be in [0, 1], got {self.duty_cycle!r}")
        if not 0 < self.period_s < math.inf:
            raise ValueError(f"period_s must be positive and finite, got {self.period_s!r}")
        if not math.isfinite(self.phase_s):
            raise ValueError(f"phase_s must be finite, got {self.phase_s!r}")

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


@dataclass
class ExcitationSchedule:
    """Packet arrivals from several sources over a time horizon."""

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
