"""Thermal noise models.

AWGN is parameterized either by an SNR relative to the waveform's own
power or by an absolute noise power under the library's 0 dBm == unit
power convention.
"""

from __future__ import annotations

import math

import numpy as np

from repro.types import ComplexIQ, DbmPower, Decibels, Hertz, Milliwatts, Samples

from repro.phy.waveform import Waveform
from repro.rng import fallback_rng

__all__ = ["noise_floor_dbm", "awgn", "complex_noise"]

#: Thermal noise density at 290 K, dBm/Hz.
THERMAL_NOISE_DBM_PER_HZ = -174.0

#: Default receiver noise figure (commodity 2.4 GHz radios), dB.
DEFAULT_NOISE_FIGURE_DB = 7.0


def noise_floor_dbm(bandwidth_hz: Hertz, noise_figure_db: Decibels = DEFAULT_NOISE_FIGURE_DB) -> DbmPower:
    """Receiver noise floor: -174 + 10 log10(B) + NF."""
    # Each check is written so that NaN fails it.
    if not 0 < bandwidth_hz < math.inf:
        raise ValueError(f"bandwidth_hz must be positive and finite, got {bandwidth_hz!r}")
    if not 0 <= noise_figure_db < math.inf:
        raise ValueError(
            f"noise_figure_db must be >= 0 and finite, got {noise_figure_db!r}"
        )
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * np.log10(bandwidth_hz) + noise_figure_db


def complex_noise(n: Samples, power_mw: Milliwatts, rng: np.random.Generator) -> ComplexIQ:
    """Circular complex Gaussian samples of mean power ``power_mw``."""
    if not 0 <= power_mw < math.inf:  # written so that NaN fails it
        raise ValueError(f"power_mw must be >= 0 and finite, got {power_mw!r}")
    sigma = np.sqrt(power_mw / 2.0)
    return sigma * (rng.normal(size=n) + 1j * rng.normal(size=n))


def awgn(
    wave: Waveform,
    *,
    snr_db: Decibels | None = None,
    noise_power_dbm: DbmPower | None = None,
    rng: np.random.Generator | None = None,
) -> Waveform:
    """Add white Gaussian noise.

    Exactly one of ``snr_db`` (relative to the waveform's mean power)
    or ``noise_power_dbm`` (absolute, 0 dBm == unit power) must be
    given.
    """
    if (snr_db is None) == (noise_power_dbm is None):
        raise ValueError("give exactly one of snr_db or noise_power_dbm")
    rng = fallback_rng(rng)
    if snr_db is not None:
        if not math.isfinite(snr_db):
            raise ValueError(f"snr_db must be finite, got {snr_db!r}")
        signal_power = wave.mean_power()
        noise_power = signal_power / (10.0 ** (snr_db / 10.0))
    else:
        if not math.isfinite(noise_power_dbm):
            raise ValueError(f"noise_power_dbm must be finite, got {noise_power_dbm!r}")
        noise_power = 10.0 ** (noise_power_dbm / 10.0)
    noisy = wave.copy()
    noisy.iq = noisy.iq + complex_noise(wave.n_samples, noise_power, rng)
    return noisy
