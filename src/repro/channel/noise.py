"""Thermal noise models.

AWGN is parameterized by an SNR relative to the waveform's own power.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.types import DbmPower, Decibels, Hertz

from repro.phy.waveform import Waveform
from repro.rng import fallback_rng

__all__ = ["noise_floor_dbm", "awgn"]

#: Thermal noise density at 290 K, dBm/Hz.
THERMAL_NOISE_DBM_PER_HZ = -174.0

#: Receiver noise figure (commodity 2.4 GHz radios), dB.
NOISE_FIGURE_DB = 7.0

#: Largest magnitude ``awgn`` accepts for an SNR, dB: far past any
#: radio link, and well inside the range where
#: ``10 ** (x / 10)`` neither overflows nor underflows to zero.
_DB_LIMIT = 300.0


def noise_floor_dbm(bandwidth_hz: Hertz) -> DbmPower:
    """Receiver noise floor: -174 + 10 log10(B) + NF."""
    # Written so that NaN fails it.
    if not 0 < bandwidth_hz < math.inf:
        raise ValueError(f"bandwidth_hz must be positive and finite, got {bandwidth_hz!r}")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * np.log10(bandwidth_hz) + NOISE_FIGURE_DB


def awgn(
    wave: Waveform,
    *,
    snr_db: Decibels,
    rng: np.random.Generator | None = None,
) -> Waveform:
    """Add white Gaussian noise ``snr_db`` (within +-300 dB) below the
    waveform's mean power."""
    rng = fallback_rng(rng)
    if not -_DB_LIMIT <= snr_db <= _DB_LIMIT:  # written so that NaN fails it
        raise ValueError(f"snr_db must be within +-{_DB_LIMIT:g} dB, got {snr_db!r}")
    noise_power = wave.mean_power() / (10.0 ** (snr_db / 10.0))
    if not 0 <= noise_power < math.inf:  # written so that NaN fails it
        raise ValueError(f"noise power must be >= 0 and finite, got {noise_power!r}")
    # Circular complex Gaussian noise of mean power ``noise_power``: two
    # real draws, I then Q, each scaled and added to its part of the
    # signal.  The complex form ``wave.iq + sigma * (re + 1j * im)``
    # gives the same noise parts but for the sign of an exact zero, and
    # adding a noise part to a signal part that is not -0.0 removes it.
    sigma = np.sqrt(noise_power / 2.0)
    n = wave.n_samples
    re = rng.normal(size=n)
    im = rng.normal(size=n)
    re *= sigma
    im *= sigma
    iq = np.empty(n, dtype=np.complex128)
    np.add(wave.iq.real, re, out=iq.real)
    np.add(wave.iq.imag, im, out=iq.imag)
    return replace(wave, iq=iq, annotations=dict(wave.annotations))
