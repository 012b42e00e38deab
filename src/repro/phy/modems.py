"""Protocol -> modulator dispatch for a byte payload.

The reference packets the tag's templates are built from, the random
excitation packets and the modem BER validation all modulate a payload
of one of the four protocols at that modem's default settings; this is
the one place that maps a :class:`~repro.phy.protocols.Protocol` to its
modulator.
"""

from __future__ import annotations

from repro.phy import ble, wifi_b, wifi_n, zigbee
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform

__all__ = ["modulate"]


def modulate(protocol: Protocol, payload: bytes) -> Waveform:
    """A ``protocol`` packet carrying ``payload``."""
    if protocol is Protocol.WIFI_B:
        return wifi_b.modulate(payload)
    if protocol is Protocol.WIFI_N:
        return wifi_n.modulate(payload)
    if protocol is Protocol.BLE:
        return ble.modulate(payload)
    if protocol is Protocol.ZIGBEE:
        return zigbee.modulate(payload)
    raise ValueError(f"unknown protocol {protocol}")
