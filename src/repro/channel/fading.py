"""Multipath model.

The paper's indoor deployment sees multipath (hallway reflections).
:class:`MultipathChannel` is an exponential power-delay-profile FIR
channel that frequency-selectively distorts wideband waveforms -- what
the 802.11n receiver's HT-LTF channel estimation exists to undo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.types import ComplexIQ

from repro.phy.waveform import Waveform

__all__ = ["MultipathChannel"]

#: FIR taps per channel.
_N_TAPS = 8


@dataclass
class MultipathChannel:
    """Exponential power-delay-profile FIR channel.

    ``rms_delay_spread_s`` controls frequency selectivity (indoor
    offices: 30-100 ns); eight taps are spaced at the waveform's
    sample period when applied.  Taps are drawn per instance (one
    physical location), normalized to unit mean power, with a
    deterministic ``seed``.
    """

    rms_delay_spread_s: float = 50e-9
    seed: int = 0

    def taps(self, sample_rate: float) -> ComplexIQ:
        """FIR taps at ``sample_rate``, drawn afresh from ``seed``."""
        rng = np.random.default_rng(self.seed)
        dt = 1.0 / sample_rate
        delays = np.arange(_N_TAPS) * dt
        power = np.exp(-delays / max(self.rms_delay_spread_s, 1e-12))
        power = power / power.sum()
        taps = np.sqrt(power / 2.0) * (
            rng.normal(size=_N_TAPS) + 1j * rng.normal(size=_N_TAPS)
        )
        # First tap keeps a strong deterministic component so timing
        # reference (first arrival) is preserved.
        taps[0] = np.sqrt(power[0]) * (0.9 + 0.1j)
        return taps / np.linalg.norm(taps)

    def apply(self, wave: Waveform) -> Waveform:
        """Convolve the waveform with this location's channel."""
        taps = self.taps(wave.sample_rate)
        out = wave.copy()
        out.iq = np.convolve(wave.iq, taps)[: wave.n_samples]
        return out
