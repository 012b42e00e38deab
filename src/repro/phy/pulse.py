"""Pulse-shaping filters used by the PHY modulators.

* Gaussian taps for GFSK (BLE, BT = 0.5)
* half-sine shaping for 802.15.4 OQPSK (MSK-like)
* root-raised-cosine for DSSS chip shaping
* rectangular (sample-and-hold) upsampling
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.types import ComplexIQ, FloatArray

__all__ = [
    "gaussian_taps",
    "half_sine_pulse",
    "rrc_taps",
    "upsample_hold",
    "shape_chips",
]


def gaussian_taps(bt: float, sps: int, span: int = 3) -> FloatArray:
    """Gaussian filter taps for GFSK with bandwidth-time product ``bt``.

    ``sps`` samples per symbol, ``span`` symbols each side.  Taps are
    normalized to unit sum so the peak frequency deviation of the
    shaped FSK signal is preserved.
    """
    if bt <= 0 or sps < 1 or span < 1:
        raise ValueError("bt, sps and span must be positive")
    t = np.arange(-span * sps, span * sps + 1) / sps
    # Standard GMSK Gaussian response: sigma = sqrt(ln 2) / (2 pi BT).
    sigma = np.sqrt(np.log(2.0)) / (2.0 * np.pi * bt)
    taps = np.exp(-(t**2) / (2.0 * sigma**2))
    return taps / taps.sum()


def half_sine_pulse(sps: int) -> FloatArray:
    """Half-sine chip pulse over one chip period (802.15.4 OQPSK)."""
    if sps < 1:
        raise ValueError("sps must be >= 1")
    n = np.arange(sps)
    return np.sin(np.pi * (n + 0.5) / sps)


@lru_cache(maxsize=16)
def rrc_taps(beta: float, sps: int, span: int = 6) -> FloatArray:
    """Root-raised-cosine taps (unit energy), rolloff ``beta``.

    Memoized and read-only: every 802.11b modulation asks for the same
    taps, and callers only convolve with them.
    """
    if not 0 < beta <= 1:
        raise ValueError("beta must be in (0, 1]")
    n = np.arange(-span * sps, span * sps + 1, dtype=float)
    t = n / sps
    taps = np.empty_like(t)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-12:
            taps[i] = 1.0 - beta + 4.0 * beta / np.pi
        elif abs(abs(ti) - 1.0 / (4.0 * beta)) < 1e-9:
            taps[i] = (beta / np.sqrt(2.0)) * (
                (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * beta))
                + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * beta))
            )
        else:
            num = np.sin(np.pi * ti * (1.0 - beta)) + 4.0 * beta * ti * np.cos(
                np.pi * ti * (1.0 + beta)
            )
            den = np.pi * ti * (1.0 - (4.0 * beta * ti) ** 2)
            taps[i] = num / den
    taps = taps / np.sqrt(np.sum(taps**2))
    taps.flags.writeable = False
    return taps


def upsample_hold(symbols: np.ndarray, sps: int) -> ComplexIQ:
    """Sample-and-hold upsampling (each value repeated ``sps`` times)."""
    if sps < 1:
        raise ValueError("sps must be >= 1")
    return np.repeat(np.asarray(symbols), sps)


def shape_chips(chips: np.ndarray, sps: int, taps: np.ndarray | None = None) -> ComplexIQ:
    """Upsample ``chips`` by ``sps`` and optionally filter with ``taps``.

    With ``taps`` given, uses impulse upsampling + FIR filtering and
    compensates the filter group delay so output sample ``k*sps`` sits
    at the center of chip ``k``.
    """
    chips = np.asarray(chips, dtype=complex)
    if taps is None:
        return upsample_hold(chips, sps)
    up = np.zeros(chips.size * sps, dtype=complex)
    up[::sps] = chips
    shaped = np.convolve(up, np.asarray(taps, dtype=float))
    delay = (len(taps) - 1) // 2
    return shaped[delay : delay + up.size]
