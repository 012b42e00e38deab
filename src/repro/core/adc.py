"""Tag ADC model (AD9235 in the prototype, §3).

Samples a rectifier's baseband voltage at a configurable rate and
resolution.  Three paper-relevant behaviours:

* **rate**: 20 Msps down to 1 Msps (the Fig 7/8 sweeps);
* **reference voltage** (§2.3 note 3): codes are spread over
  [0, v_ref], with v_ref matched to the clamp rectifier's full-scale
  range so the input uses most of the output codes;
* **EN duty-cycling** (§2.3 note 1): the FPGA gates the ADC between
  packets; modeled as an enable window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from repro.types import FloatArray, Hertz, Seconds, Volts
from scipy import signal as sp_signal

from repro.core.rectifier import RectifierOutput
from repro.phy.waveform import sosfilt

__all__ = ["Adc", "AdcCapture"]


@dataclass
class AdcCapture:
    """Digitized baseband: integer codes plus acquisition metadata."""

    codes: np.ndarray
    sample_rate: Hertz
    v_ref: Volts
    n_bits: int

    def volts(self) -> FloatArray:
        """Codes converted back to volts."""
        full_scale = (1 << self.n_bits) - 1
        return self.codes.astype(float) * self.v_ref / full_scale


@lru_cache(maxsize=16)
def _antialias_design(wn: float) -> tuple[np.ndarray, np.ndarray]:
    """4th-order Butterworth low-pass at normalized cutoff ``wn``: the
    ``sos`` sections and their unit-step steady state ``zi``.

    Both arrays are read-only.
    """
    sos = sp_signal.butter(4, wn, output="sos")
    zi = sp_signal.sosfilt_zi(sos)
    sos.flags.writeable = False
    zi.flags.writeable = False
    return sos, zi


@dataclass(frozen=True)
class Adc:
    """A sampling + quantization stage.

    ``sample_rate`` is the output rate (samples are taken at uniform
    times via linear interpolation of the analog trace, so any
    rectifier-side rate is accepted).  ``n_bits`` is the code width
    (the paper's correlator uses 9 of the AD9235's bits).
    """

    sample_rate: Hertz = 20e6
    n_bits: int = 9
    #: Reference voltage: the top of the code range.
    v_ref: ClassVar[Volts] = 0.25

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not 0 < self.sample_rate < math.inf:
            raise ValueError(
                f"sample_rate must be positive and finite, got {self.sample_rate!r}"
            )
        if not 1 <= self.n_bits <= 16:
            raise ValueError(f"n_bits must be in 1..16, got {self.n_bits!r}")

    def _bandlimit(self, analog: RectifierOutput, n: int | None = None) -> FloatArray:
        """Anti-aliasing low-pass of the ADC driver stage, over the
        first ``n`` samples (all by default).

        The converter's input network band-limits the envelope to
        ~0.4x the sampling rate; without this, sub-sample timing
        jitter aliases the fast DSSS/OFDM envelope ripple into noise
        and template correlation collapses at low rates.  The filter
        is causal and its initial state depends only on the first
        sample, so a prefix filters to the prefix of the full output.
        """
        v = analog.voltage[:n]
        cutoff = 0.4 * self.sample_rate
        nyq = analog.sample_rate / 2.0
        if cutoff >= nyq or not v.size:
            return v
        sos, zi = _antialias_design(cutoff / nyq)
        # Start the filter in steady state at the first sample's level
        # so the capture window is not polluted by a startup ramp.
        return sosfilt(sos, v, zi * v[0])

    def samples_read(
        self, input_rate: Hertz, duration_s: Seconds, *, phase_s: Seconds = 0.0
    ) -> int:
        """How many leading samples of an ``input_rate`` trace a capture
        of ``duration_s`` reads when its grid starts at ``phase_s``.

        That is every sample up to the grid's last instant plus that
        instant's interpolation neighbour, and one guard sample so float
        rounding never makes the count short.  A trace cut to this
        prefix digitizes to the same codes as the whole trace.
        """
        t_last = phase_s + max(self._n_out(duration_s) - 1, 0) / self.sample_rate
        return max(int(np.floor(t_last * input_rate)), 0) + 3

    def _n_out(self, duration_s: Seconds) -> int:
        return max(int(np.floor(duration_s * self.sample_rate)), 0)

    def capture(
        self,
        analog: RectifierOutput,
        *,
        duration_s: Seconds | None = None,
        phase_s: Seconds = 0.0,
    ) -> AdcCapture:
        """Digitize ``analog`` from its start for ``duration_s`` (all of
        it by default).

        ``phase_s`` offsets the sampling grid (sub-sample timing is not
        synchronized to the packet in a real tag).
        """
        total_s = analog.voltage.size / analog.sample_rate
        if duration_s is None:
            duration_s = total_s
        t0 = phase_s
        n_out = self._n_out(duration_s)
        times = t0 + np.arange(n_out) / self.sample_rate
        times = np.clip(times, 0.0, total_s - 1.0 / analog.sample_rate)
        # Only the head the grid reaches is band-limited and read.
        n_in = min(
            self.samples_read(analog.sample_rate, duration_s, phase_s=t0),
            analog.voltage.size,
        )
        src_t = np.arange(n_in) / analog.sample_rate
        volts = np.interp(times, src_t, self._bandlimit(analog, n_in))
        full_scale = (1 << self.n_bits) - 1
        codes = np.clip(
            np.round(volts / self.v_ref * full_scale), 0, full_scale
        ).astype(np.int32)
        return AdcCapture(
            codes=codes,
            sample_rate=self.sample_rate,
            v_ref=self.v_ref,
            n_bits=self.n_bits,
        )
