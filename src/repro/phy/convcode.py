"""IEEE 802.11 rate-1/2 binary convolutional code (K=7, g0=133, g1=171).

The encoder here plus :mod:`repro.phy.viterbi` form the BCC pair used by
the 802.11n data path at MCS0 (the only coded rate the paper's overlay
modulation exercises).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.types import BitArray, FloatArray

__all__ = [
    "G0",
    "G1",
    "CONSTRAINT",
    "ERASURE",
    "PUNCTURE_PATTERNS",
    "encode",
    "puncture",
    "depuncture",
    "depuncture_soft",
]

#: Marker for punctured positions fed to the Viterbi decoder.
ERASURE = 2

#: 802.11 puncturing patterns (§17.3.5.6): per coding-rate keep masks
#: over the interleaved (A, B) output stream.
PUNCTURE_PATTERNS: dict[str, tuple[int, ...]] = {
    "1/2": (1, 1),
    "2/3": (1, 1, 1, 0),
    "3/4": (1, 1, 1, 0, 0, 1),
    "5/6": (1, 1, 1, 0, 0, 1, 1, 0, 0, 1),
}

#: Generator polynomials, octal 133 / 171 per 802.11-2016 §17.3.5.6.
G0 = 0o133
G1 = 0o171
CONSTRAINT = 7


def _taps(poly: int) -> np.ndarray:
    return np.array([(poly >> i) & 1 for i in range(CONSTRAINT)], dtype=np.uint8)


_TAPS0 = _taps(G0)
_TAPS1 = _taps(G1)


def puncture(coded: np.ndarray | list[int], rate: str) -> BitArray:
    """Drop coded bits per the 802.11 pattern for ``rate``."""
    if rate not in PUNCTURE_PATTERNS:
        raise ValueError(f"unknown coding rate {rate!r}")
    arr = np.asarray(coded, dtype=np.uint8)
    pattern = np.array(PUNCTURE_PATTERNS[rate], dtype=bool)
    mask = np.tile(pattern, -(-arr.size // pattern.size))[: arr.size]
    return arr[mask]


def depuncture(punctured: np.ndarray | list[int], rate: str) -> BitArray:
    """Re-insert :data:`ERASURE` markers at the punctured positions."""
    return _depunctured(punctured, rate, np.uint8, ERASURE)


def depuncture_soft(llrs: np.ndarray | list[float], rate: str) -> FloatArray:
    """Re-insert zero LLRs at the punctured positions (soft path)."""
    return _depunctured(llrs, rate, float, 0.0)


def _depunctured(values: np.ndarray | list[Any], rate: str, dtype: type, fill: float) -> np.ndarray:
    """``values`` back at the stream positions ``rate`` keeps, ``fill`` at
    the punctured ones, up to the last position ``values`` covers."""
    if rate not in PUNCTURE_PATTERNS:
        raise ValueError(f"unknown coding rate {rate!r}")
    arr = np.asarray(values, dtype=dtype)
    pattern = np.array(PUNCTURE_PATTERNS[rate], dtype=bool)
    n_periods = -(-arr.size // int(pattern.sum()))
    slots = np.flatnonzero(np.tile(pattern, n_periods))[: arr.size]
    out = np.full(slots[-1] + 1 if arr.size else 0, fill, dtype=dtype)
    out[slots] = arr
    return out


def encode(bits: np.ndarray | list[int]) -> BitArray:
    """Encode at rate 1/2; output interleaves (A, B) streams per input bit.

    The shift register starts at all-zero as the standard requires (the
    scrambled service field's leading zeros flush it in real frames).
    Each output is the GF(2) inner product of the generator taps with
    the current input window, i.e. a mod-2 convolution of the whole
    input with the taps -- which is how it is computed here.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bits must be 1-D")
    out = np.empty(2 * arr.size, dtype=np.uint8)
    if arr.size == 0:
        return out
    # Zero-state start means the convolution's leading transient IS the
    # encoder output; positions past arr.size - 1 belong to the (unsent)
    # flush tail and are dropped.
    out[0::2] = np.convolve(arr, _TAPS0)[: arr.size] & 1
    out[1::2] = np.convolve(arr, _TAPS1)[: arr.size] & 1
    return out
