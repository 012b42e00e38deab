"""The complex-baseband waveform container every modulator emits.

A :class:`Waveform` couples IQ samples with their sample rate plus the
annotations downstream stages need (protocol, symbol boundaries, where
the payload starts).  It is deliberately a thin, immutable-ish value
type: DSP transforms return new instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any

import numpy as np

from repro.types import ComplexIQ, Hertz, Samples, Seconds
from scipy import signal as sp_signal
from scipy.signal._sosfilt import _sosfilt

__all__ = ["Waveform", "sosfilt"]


def sosfilt(sos: np.ndarray, x: np.ndarray, zi: np.ndarray | None = None) -> np.ndarray:
    """``scipy.signal.sosfilt`` of a 1-D ``x``: the filtered signal only.

    Prepares the arrays as ``sosfilt`` does -- the operands' result
    dtype, a C-contiguous ``(1, n)`` copy of ``x`` and the
    ``(n_sections, 2)`` initial state ``zi`` (zeros when ``None``) as
    ``(1, n_sections, 2)`` -- and calls scipy's compiled kernel, which
    filters in place.  For an 860-sample window the public wrapper's
    array-API dispatch, validation and axis moves cost about four times
    the kernel.  The kernel is private: ``ci/constraints.txt`` pins the
    scipy that computed every digest, and
    ``tests/sim/test_packet_path_equivalence.py`` holds this function to
    ``sp_signal.sosfilt``.
    """
    # The kernel indexes its buffers by these shapes unchecked.
    if np.ndim(x) != 1 or np.ndim(sos) != 2 or np.shape(sos)[1] != 6:
        raise ValueError("sosfilt takes a 1-D x and (n_sections, 6) sections")
    dtype = np.result_type(sos, x) if zi is None else np.result_type(sos, x, zi)
    y = np.array(x, dtype=dtype, order="C", ndmin=2)
    n_sections = sos.shape[0]
    if zi is None:
        state = np.zeros((1, n_sections, 2), dtype=dtype)
    else:
        state = np.array(zi, dtype=dtype, order="C").reshape(1, n_sections, 2)
    # The kernel needs writable sections; memoized designs are read-only.
    _sosfilt(np.array(sos, dtype=dtype), y, state)
    return y[0]


@lru_cache(maxsize=16)
def _resample_taps(up: int, down: int) -> np.ndarray:
    """The low-pass ``resample_poly`` designs for a reduced ``up/down``
    ratio when it is given no window: a Kaiser (beta 5) FIR of
    ``2 * 10 * max(up, down) + 1`` taps cut off at ``1 / max(up, down)``.

    Read-only: ``resample_poly`` copies an array window before scaling
    it by ``up``.
    """
    max_rate = max(up, down)
    taps = sp_signal.firwin(2 * 10 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 5.0))
    taps.flags.writeable = False
    return taps


#: Length, in samples, from which NumPy elides the ``np.exp`` temporary
#: of ``iq * np.exp(...)`` (its 256 KiB threshold over 16-byte samples)
#: and evaluates ``exp * iq`` in place.  The two operand orders can
#: round the imaginary part differently.
_ELIDE_SAMPLES = 16384


@lru_cache(maxsize=16)
def _shift_phasor(shift_hz: Hertz, sample_rate: Hertz, n: Samples) -> np.ndarray:
    """``exp(j 2 pi shift t)`` over ``n`` samples at ``sample_rate``.

    Read-only: every caller multiplies it into a new array.
    """
    phasor = np.exp(2j * np.pi * shift_hz * (np.arange(n) / sample_rate))
    phasor.flags.writeable = False
    return phasor


@dataclass
class Waveform:
    """Complex-baseband samples plus metadata.

    Attributes
    ----------
    iq:
        Complex baseband samples (1-D ``complex128``).
    sample_rate:
        Samples per second.
    annotations:
        Free-form metadata.  Modulators set at least ``protocol``,
        ``payload_start`` (sample index of the first payload symbol)
        and ``samples_per_symbol``.
    """

    iq: ComplexIQ
    sample_rate: Hertz
    annotations: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.iq = np.asarray(self.iq, dtype=np.complex128)
        if self.iq.ndim != 1:
            raise ValueError(f"iq must be 1-D, got shape {self.iq.shape}")
        # Written so that NaN fails it.
        if not 0 < self.sample_rate < math.inf:
            raise ValueError(
                f"sample_rate must be positive and finite, got {self.sample_rate!r}"
            )

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

    def mean_power(self) -> float:
        """Mean |iq|^2 (linear power, carrier-normalized units)."""
        if not self.iq.size:
            return 0.0
        # ``** 2`` on a float array is ``np.square``: square in place.
        power = np.abs(self.iq)
        np.square(power, out=power)
        return float(np.mean(power))

    # ------------------------------------------------------------------
    # transforms (all return new Waveforms)
    # ------------------------------------------------------------------
    def frequency_shifted(self, shift_hz: Hertz, *, memo: bool = True) -> "Waveform":
        """Mix by ``exp(j 2 pi shift t)``.

        The phasor is memoized per ``(shift, rate, length)``: a tag's
        fixed channel shift repeats on every packet of a carrier.  A
        shift that never repeats (a receiver's per-packet CFO estimate)
        passes ``memo=False`` and computes the same phasor without
        touching the memo.  The product keeps the operand order of an
        inline ``np.exp``, whose temporary NumPy elides from
        :data:`_ELIDE_SAMPLES` on.
        """
        phasor_of = _shift_phasor if memo else _shift_phasor.__wrapped__
        phasor = phasor_of(shift_hz, self.sample_rate, self.iq.size)
        if self.iq.size < _ELIDE_SAMPLES:
            iq = self.iq * phasor
        else:
            iq = phasor * self.iq
        return replace(self, iq=iq, annotations=dict(self.annotations))

    def resampled(self, new_rate_hz: Hertz) -> "Waveform":
        """Polyphase-resample to ``new_rate_hz``."""
        if not 0 < new_rate_hz < math.inf:
            raise ValueError(
                f"new_rate_hz must be positive and finite, got {new_rate_hz!r}"
            )
        if abs(new_rate_hz - self.sample_rate) < 1e-9:
            return replace(self, annotations=dict(self.annotations))
        from fractions import Fraction

        frac = Fraction(new_rate_hz / self.sample_rate).limit_denominator(1000)
        up, down = frac.numerator, frac.denominator
        # The taps are real, so I and Q are filtered as two real rows:
        # given a complex input, resample_poly would cast them to complex
        # and run complex-by-complex products.
        rows = np.stack([self.iq.real, self.iq.imag])
        if up != down:  # at 1/1 resample_poly returns its input unfiltered
            rows = sp_signal.resample_poly(
                rows, up, down, axis=-1, window=_resample_taps(up, down)
            )
        # Part by part: ``rows[0] + 1j * rows[1]`` can turn -0.0 into +0.0.
        iq = np.empty(rows.shape[1], dtype=np.complex128)
        iq.real, iq.imag = rows
        ratio = new_rate_hz / self.sample_rate
        ann = dict(self.annotations)
        for key in ("payload_start", "samples_per_symbol"):
            if key in ann:
                ann[key] = int(round(ann[key] * ratio))
        return Waveform(iq=iq, sample_rate=new_rate_hz, annotations=ann)

    def padded(self, before: Samples) -> "Waveform":
        """Lead with ``before`` samples of silence; shifts
        ``payload_start`` accordingly."""
        iq = np.concatenate([np.zeros(before, complex), self.iq])
        ann = dict(self.annotations)
        if "payload_start" in ann:
            ann["payload_start"] = ann["payload_start"] + before
        return replace(self, iq=iq, annotations=ann)

    def copy(self) -> "Waveform":
        return replace(self, iq=self.iq.copy(), annotations=dict(self.annotations))
