"""Single-commodity-radio decoding of overlay-modulated packets (§2.4).

The receiver demodulates the (frequency-shifted) backscattered packet
with its ordinary PHY chain, then recovers *both* data streams from the
single symbol stream: productive bits from reference symbols, tag bits
from reference-vs-modulatable comparisons.  No second receiver, no
original-channel packet -- the property Figs 9/15 contrast against
Hitchhike and FreeRider.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.overlay import OverlayCodec
from repro.phy import ble, wifi_b, wifi_n, zigbee
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform

__all__ = ["OverlayDecodeOutput", "OverlayDecoder"]


@dataclass
class OverlayDecodeOutput:
    """Both data streams recovered from one packet."""

    productive_bits: np.ndarray
    tag_bits: np.ndarray


class OverlayDecoder:
    """Runs the protocol's commodity receive chain and the overlay
    comparison decode."""

    def __init__(self, codec: OverlayCodec) -> None:
        self.codec = codec

    def symbol_values(self, wave: Waveform) -> np.ndarray:
        """Per-payload-symbol decisions in the comparison domain: the
        receiver's own array (one row of bits per symbol for 802.11n).

        Calls the protocol's ``demodulate_batch`` on the one waveform:
        it has ``demodulate``'s defaults, and it is the decode stage's
        per-protocol entry point that perfbench's ``decode.demod.*``
        spans time.
        """
        protocol = self.codec.config.protocol
        if protocol is Protocol.WIFI_B:
            return wifi_b.demodulate_batch([wave])[0].onair_bits
        if protocol is Protocol.BLE:
            return ble.demodulate_batch([wave])[0].onair_bits
        if protocol is Protocol.ZIGBEE:
            return zigbee.demodulate_batch([wave])[0].symbols
        return wifi_n.demodulate_batch([wave])[0].symbol_bits

    def decode(self, wave: Waveform) -> OverlayDecodeOutput:
        """Decode productive and tag data from a received waveform.

        ``wave`` must be centered on the receiver's channel (use
        :meth:`repro.core.tag_modulation.TagModulator.received_at_shifted_channel`
        first if the tag shifted it).
        """
        productive, tag = self.codec.decode_symbols(self.symbol_values(wave))
        return OverlayDecodeOutput(productive_bits=productive, tag_bits=tag)
