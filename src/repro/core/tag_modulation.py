"""Tag-side backscatter modulation on IQ waveforms (paper §2.4).

The tag is a reflector: it can toggle its antenna impedance, which at
complex baseband means multiplying the incident waveform by a
switching function.  Per protocol:

* **802.11b** (DSSS-PSK): a pi phase toggle per DSSS symbol.  Because
  the receiver decodes differentially, the tag *differentially
  precodes* its flip stream -- it toggles its phase state at the start
  of every symbol whose demodulated bit should flip, which is exactly
  the natural behaviour of holding a reflection phase until the next
  toggle.
* **802.11n** (OFDM): a pi flip across the whole OFDM symbol(s) of a
  gamma-group.
* **ZigBee** (OQPSK): a pi flip across whole PN symbols; the half-chip
  I/Q offset means the flip boundary cuts one Q pulse, damaging at
  most the boundary symbol -- the reason gamma must be >= 2-3 (§2.4
  "ZigBee").
* **BLE** (GFSK): the tag toggles at f_shift +- 500 kHz; the surviving
  mixing sideband mirrors the symbol's frequency deviation, turning a
  1 into a 0 (§2.4 "Bluetooth").  At complex baseband the mirrored
  sideband is the conjugate of the original signal.

``frequency_shift_hz`` moves the backscattered packet to an adjacent
channel to avoid self-interference with the excitation (§2.4, footnote
6-7); the receiver listens on the shifted channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.overlay import OverlayCodec
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform

__all__ = ["TagModulator", "DEFAULT_SHIFT_HZ"]

#: Default backscatter frequency shift (one WiFi channel spacing would
#: be 5 MHz; tags commonly shift by 10-20 MHz.  The simulation treats
#: the shifted channel as clean, so the value only needs to be nonzero
#: to model the retune).
DEFAULT_SHIFT_HZ = 10e6


@dataclass
class TagModulator:
    """Applies overlay tag modulation to an excitation waveform.

    ``codec`` provides the flip layout (which payload symbols encode
    which tag bit); this class turns flags into waveform operations.

    ``clock_ppm`` models the tag's oscillator error: the tag times its
    symbol boundaries off its own 20 MHz clock, so a frequency error
    of e ppm makes the k-th boundary drift by ``k * T_sym * e * 1e-6``
    -- the same physics behind Hitchhike's inter-receiver modulation
    offsets (Fig 9b), here bounded by the tag's per-packet resync at
    the identified preamble.
    """

    codec: OverlayCodec
    frequency_shift_hz: float = DEFAULT_SHIFT_HZ
    clock_ppm: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.frequency_shift_hz):
            raise ValueError(
                f"frequency_shift_hz must be finite, got {self.frequency_shift_hz}"
            )
        # At -1e6 ppm the tag's clock stops and below it runs backwards:
        # its symbol boundaries would no longer increase.
        if not (math.isfinite(self.clock_ppm) and self.clock_ppm > -1e6):
            raise ValueError(
                f"clock_ppm must be finite and above -1e6, got {self.clock_ppm}"
            )

    def _symbol_edges(self, wave: Waveform, n_symbols: int) -> np.ndarray:
        """Sample offset of each payload symbol boundary (``n_symbols + 1``).

        Symbol ``i`` spans ``[edges[i], edges[i + 1])``.  With a clock
        error the boundaries drift linearly from the (resynced) packet
        head.
        """
        edges = np.arange(n_symbols + 1) * wave.annotations["samples_per_symbol"]
        if self.clock_ppm:
            edges = np.rint(edges * (1.0 + self.clock_ppm * 1e-6)).astype(np.intp)
        return wave.annotations["payload_start"] + edges

    def modulate(
        self, wave: Waveform, tag_bits: np.ndarray | list[int]
    ) -> Waveform:
        """Backscatter ``tag_bits`` onto ``wave``.

        Returns the tag's reflected waveform, shifted by
        ``frequency_shift_hz`` (channel effects are applied separately;
        :meth:`received_at_shifted_channel` undoes the shift).
        """
        protocol = self.codec.config.protocol
        ann = wave.annotations
        if ann.get("protocol") is not protocol:
            raise ValueError(
                f"waveform protocol {ann.get('protocol')} does not match "
                f"codec protocol {protocol}"
            )
        n_symbols = ann["n_payload_symbols"]
        flags = self.codec.tag_flip_flags(tag_bits, n_symbols)
        edges = self._symbol_edges(wave, n_symbols)
        out = wave.copy()

        if protocol is not Protocol.BLE:
            # 802.11b precodes differentially: its phase state toggles at
            # flip starts.  The others flip the flagged symbols.
            flipped = np.cumsum(flags) % 2 == 1 if protocol is Protocol.WIFI_B else flags
            inside = np.repeat(flipped, np.diff(edges))[: max(out.iq.size - edges[0], 0)]
            mask = np.zeros(out.iq.size, dtype=bool)
            mask[edges[0] : edges[0] + inside.size] = inside
            np.multiply(out.iq, -1.0, out=out.iq, where=mask)
        else:
            # Mirror contiguous runs of flagged symbols as one segment:
            # the tag holds a single toggling mode across the run, so
            # the mirrored waveform is phase-continuous inside it
            # (per-symbol phase patching would shatter the spectrum).
            idx = np.flatnonzero(flags)
            run_start = None
            prev = None
            runs: list[tuple[int, int]] = []
            for i in idx:
                if run_start is None:
                    run_start = prev = int(i)
                elif i == prev + 1:
                    prev = int(i)
                else:
                    runs.append((run_start, prev))
                    run_start = prev = int(i)
            if run_start is not None:
                runs.append((run_start, prev))
            for a, b in runs:
                lo, hi = edges[a], edges[b + 1]
                seg = out.iq[lo:hi]
                # Surviving sideband of the f +- 500 kHz toggle: the
                # spectrum mirrors, swapping f0 and f1.  Preserve the
                # boundary phase so the discriminator only glitches
                # once per run edge.
                mirrored = np.conj(seg)
                if mirrored.size:
                    mirrored *= np.exp(2j * np.angle(seg[0]))
                out.iq[lo:hi] = mirrored

        if self.frequency_shift_hz:
            out = out.frequency_shifted(self.frequency_shift_hz)
        return out

    def received_at_shifted_channel(self, wave: Waveform) -> Waveform:
        """The receiver retunes to the shifted channel: undo the shift
        so the PHY demodulators (which expect centered baseband) apply."""
        if not self.frequency_shift_hz:
            return wave
        return wave.frequency_shifted(-self.frequency_shift_hz)
