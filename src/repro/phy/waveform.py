"""The complex-baseband waveform container every modulator emits.

A :class:`Waveform` couples IQ samples with their sample rate plus the
annotations downstream stages need (protocol, symbol boundaries, where
the payload starts).  It is deliberately a thin, immutable-ish value
type: DSP transforms return new instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.types import ComplexIQ, Decibels, FloatArray, Hertz, Samples, Seconds
from scipy import signal as sp_signal

__all__ = ["Waveform"]


@dataclass
class Waveform:
    """Complex-baseband samples plus metadata.

    Attributes
    ----------
    iq:
        Complex baseband samples (1-D ``complex128``).
    sample_rate:
        Samples per second.
    center_offset_hz:
        Offset of this waveform's channel center from the simulation's
        band reference (used when mixing excitations of different
        channels, Fig 16).
    annotations:
        Free-form metadata.  Modulators set at least ``protocol``,
        ``payload_start`` (sample index of the first payload symbol)
        and ``samples_per_symbol``.
    """

    iq: ComplexIQ
    sample_rate: Hertz
    center_offset_hz: Hertz = 0.0
    annotations: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.iq = np.asarray(self.iq, dtype=np.complex128)
        if self.iq.ndim != 1:
            raise ValueError(f"iq must be 1-D, got shape {self.iq.shape}")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> Samples:
        return self.iq.size

    @property
    def duration_s(self) -> Seconds:
        """Length in seconds."""
        return self.iq.size / self.sample_rate

    def times(self) -> FloatArray:
        """Per-sample timestamps in seconds."""
        return np.arange(self.iq.size) / self.sample_rate

    def mean_power(self) -> float:
        """Mean |iq|^2 (linear power, carrier-normalized units)."""
        if not self.iq.size:
            return 0.0
        return float(np.mean(np.abs(self.iq) ** 2))

    def envelope(self) -> FloatArray:
        """Instantaneous envelope |iq| -- what an ideal detector sees."""
        return np.abs(self.iq)

    # ------------------------------------------------------------------
    # transforms (all return new Waveforms)
    # ------------------------------------------------------------------
    def scaled(self, gain: float) -> "Waveform":
        """Amplitude-scale by ``gain`` (linear)."""
        return replace(self, iq=self.iq * gain, annotations=dict(self.annotations))

    def scaled_db(self, gain_db: Decibels) -> "Waveform":
        """Amplitude-scale by ``gain_db`` (power dB)."""
        return self.scaled(10.0 ** (gain_db / 20.0))

    def frequency_shifted(self, shift_hz: Hertz) -> "Waveform":
        """Mix by ``exp(j 2 pi shift t)`` and track the channel offset."""
        t = self.times()
        iq = self.iq * np.exp(2j * np.pi * shift_hz * t)
        return replace(
            self,
            iq=iq,
            center_offset_hz=self.center_offset_hz + shift_hz,
            annotations=dict(self.annotations),
        )

    def resampled(self, new_rate_hz: Hertz) -> "Waveform":
        """Polyphase-resample to ``new_rate_hz``."""
        if new_rate_hz <= 0:
            raise ValueError("new_rate_hz must be positive")
        if abs(new_rate_hz - self.sample_rate) < 1e-9:
            return replace(self, annotations=dict(self.annotations))
        from fractions import Fraction

        frac = Fraction(new_rate_hz / self.sample_rate).limit_denominator(1000)
        iq = sp_signal.resample_poly(self.iq, frac.numerator, frac.denominator)
        ratio = new_rate_hz / self.sample_rate
        ann = dict(self.annotations)
        for key in ("payload_start", "samples_per_symbol"):
            if key in ann:
                ann[key] = int(round(ann[key] * ratio))
        return Waveform(
            iq=iq,
            sample_rate=new_rate_hz,
            center_offset_hz=self.center_offset_hz,
            annotations=ann,
        )

    def padded(self, before: Samples = 0, after: Samples = 0) -> "Waveform":
        """Zero-pad with silence; shifts ``payload_start`` accordingly."""
        iq = np.concatenate(
            [np.zeros(before, complex), self.iq, np.zeros(after, complex)]
        )
        ann = dict(self.annotations)
        if "payload_start" in ann:
            ann["payload_start"] = ann["payload_start"] + before
        return replace(self, iq=iq, annotations=ann)

    def sliced(self, start: Samples, stop: Samples | None = None) -> "Waveform":
        """Return samples [start, stop) as a new waveform."""
        return replace(
            self, iq=self.iq[start:stop].copy(), annotations=dict(self.annotations)
        )

    def with_annotations(self, **extra: Any) -> "Waveform":
        """Copy with additional annotations."""
        ann = dict(self.annotations)
        ann.update(extra)
        return replace(self, annotations=ann)

    def copy(self) -> "Waveform":
        return replace(self, iq=self.iq.copy(), annotations=dict(self.annotations))

    @staticmethod
    def silence(n_samples: Samples, sample_rate: Hertz) -> "Waveform":
        """All-zero waveform (idle air)."""
        return Waveform(np.zeros(n_samples, complex), sample_rate)

    @staticmethod
    def concatenate(waveforms: list["Waveform"]) -> "Waveform":
        """Join waveforms back-to-back (must share a sample rate)."""
        if not waveforms:
            raise ValueError("need at least one waveform")
        rate = waveforms[0].sample_rate
        if any(abs(w.sample_rate - rate) > 1e-6 for w in waveforms):
            raise ValueError("waveforms must share a sample rate")
        iq = np.concatenate([w.iq for w in waveforms])
        return Waveform(iq, rate)
