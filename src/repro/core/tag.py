"""The multiscatter tag's state machine (paper Fig 2).

:class:`MultiscatterTag` chains identification -> per-protocol overlay
modulation: whatever excitation arrives, it recognizes the protocol and
backscatters tag data onto it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.identification import IdentificationConfig, ProtocolIdentifier
from repro.core.overlay import Mode, OverlayCodec, OverlayConfig
from repro.core.tag_modulation import TagModulator
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform

__all__ = ["TagReaction", "MultiscatterTag"]


@dataclass
class TagReaction:
    """What the tag did with one excitation packet."""

    identified: Protocol | None
    backscattered: Waveform | None
    tag_bits_sent: np.ndarray

    @property
    def transmitted(self) -> bool:
        return self.backscattered is not None


class MultiscatterTag:
    """The paper's tag: identify any of the four protocols, then overlay
    tag data onto the carrier with the protocol-appropriate modulation
    (Mode 1, at the default frequency shift).
    """

    def __init__(self) -> None:
        self.identifier = ProtocolIdentifier(
            IdentificationConfig(
                sample_rate_hz=2.5e6,
                quantized=True,
                window_us=38.0,
                ordered=True,
            )
        )
        self._modulators: dict[Protocol, TagModulator] = {}

    def modulator_for(self, protocol: Protocol) -> TagModulator:
        """The per-protocol overlay modulator (built once per protocol)."""
        if protocol not in self._modulators:
            codec = OverlayCodec(OverlayConfig.for_mode(protocol, Mode.MODE_1))
            self._modulators[protocol] = TagModulator(codec)
        return self._modulators[protocol]

    def react(
        self,
        wave: Waveform,
        tag_bits: np.ndarray | list[int],
        *,
        incident_power_dbm: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> TagReaction:
        """Identify the excitation and backscatter ``tag_bits`` onto it.

        A misidentification means the tag modulates with the wrong
        symbol timing; the backscattered packet is then useless, which
        the reaction reports as ``backscattered=None``.
        """
        truth = wave.annotations.get("protocol")
        identified = self.identifier.identify(
            wave, incident_power_dbm=incident_power_dbm, rng=rng
        )
        bits = np.asarray(tag_bits, dtype=np.uint8)
        if identified is not truth:
            return TagReaction(
                identified=identified,
                backscattered=None,
                tag_bits_sent=np.zeros(0, np.uint8),
            )
        modulator = self.modulator_for(truth)
        _, tag_capacity = modulator.codec.capacity(
            wave.annotations["n_payload_symbols"]
        )
        used = bits[:tag_capacity]
        return TagReaction(
            identified=identified,
            backscattered=modulator.modulate(wave, used),
            tag_bits_sent=used,
        )
