"""Tag state machines: multiscatter vs single-protocol (paper Fig 2/18).

:class:`MultiscatterTag` chains identification -> per-protocol overlay
modulation: whatever excitation arrives, it recognizes the protocol and
backscatters tag data onto it.  :class:`SingleProtocolTag` models the
prior-art comparison point: it only reacts to its one protocol and sits
idle otherwise (Fig 18a).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.identification import IdentificationConfig, ProtocolIdentifier
from repro.core.overlay import Mode, OverlayCodec, OverlayConfig
from repro.core.tag_modulation import TagModulator
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform

__all__ = ["TagReaction", "MultiscatterTag", "SingleProtocolTag"]


@dataclass
class TagReaction:
    """What the tag did with one excitation packet."""

    identified: Protocol | None
    correct: bool
    backscattered: Waveform | None
    tag_bits_sent: np.ndarray

    @property
    def transmitted(self) -> bool:
        return self.backscattered is not None


class MultiscatterTag:
    """The paper's tag: identify any of the four protocols, then overlay
    tag data onto the carrier with the protocol-appropriate modulation.
    """

    def __init__(
        self,
        *,
        mode: Mode = Mode.MODE_1,
        frequency_shift_hz: float = 10e6,
    ) -> None:
        self.identifier = ProtocolIdentifier(
            IdentificationConfig(
                sample_rate_hz=2.5e6,
                quantized=True,
                window_us=38.0,
                ordered=True,
            )
        )
        self.mode = mode
        self.frequency_shift_hz = frequency_shift_hz
        self._modulators: dict[Protocol, TagModulator] = {}

    def modulator_for(self, protocol: Protocol, n_payload_symbols: int | None = None) -> TagModulator:
        """The per-protocol overlay modulator (cached for modes 1/2)."""
        if self.mode is Mode.MODE_3:
            if n_payload_symbols is None:
                raise ValueError("mode 3 needs the payload size")
            codec = OverlayCodec(
                OverlayConfig.for_mode(
                    protocol, self.mode, payload_symbols=n_payload_symbols
                )
            )
            return TagModulator(codec, frequency_shift_hz=self.frequency_shift_hz)
        if protocol not in self._modulators:
            codec = OverlayCodec(OverlayConfig.for_mode(protocol, self.mode))
            self._modulators[protocol] = TagModulator(
                codec, frequency_shift_hz=self.frequency_shift_hz
            )
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
        the reaction reports as ``correct=False`` /
        ``backscattered=None``.
        """
        truth = wave.annotations.get("protocol")
        result = self.identifier.identify(
            wave, incident_power_dbm=incident_power_dbm, rng=rng
        )
        bits = np.asarray(tag_bits, dtype=np.uint8)
        if result.decision is not truth:
            return TagReaction(
                identified=result.decision,
                correct=False,
                backscattered=None,
                tag_bits_sent=np.zeros(0, np.uint8),
            )
        modulator = self.modulator_for(truth, wave.annotations.get("n_payload_symbols"))
        _, tag_capacity = modulator.codec.capacity(
            wave.annotations["n_payload_symbols"]
        )
        used = bits[:tag_capacity]
        return TagReaction(
            identified=result.decision,
            correct=True,
            backscattered=modulator.modulate(wave, used),
            tag_bits_sent=used,
        )


@dataclass
class SingleProtocolTag:
    """Prior-art comparison tag: bound to one protocol, idle otherwise."""

    protocol: Protocol
    mode: Mode = Mode.MODE_1
    frequency_shift_hz: float = 10e6
    _modulator: TagModulator | None = field(default=None, repr=False)

    def react(
        self,
        wave: Waveform,
        tag_bits: np.ndarray | list[int],
        **_: object,
    ) -> TagReaction:
        truth = wave.annotations.get("protocol")
        if truth is not self.protocol:
            return TagReaction(
                identified=None,
                correct=False,
                backscattered=None,
                tag_bits_sent=np.zeros(0, np.uint8),
            )
        if self._modulator is None:
            codec = OverlayCodec(OverlayConfig.for_mode(self.protocol, self.mode))
            self._modulator = TagModulator(
                codec, frequency_shift_hz=self.frequency_shift_hz
            )
        bits = np.asarray(tag_bits, dtype=np.uint8)
        _, cap = self._modulator.codec.capacity(wave.annotations["n_payload_symbols"])
        used = bits[:cap]
        return TagReaction(
            identified=self.protocol,
            correct=True,
            backscattered=self._modulator.modulate(wave, used),
            tag_bits_sent=used,
        )
