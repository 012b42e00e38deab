"""802.11 OFDM per-symbol BCC interleaver.

Two permutations per 802.11-2016 §17.3.5.7, specialized to one spatial
stream and no frequency rotation (the 20 MHz MCS0 case the paper uses).
``n_cbps`` is coded bits per symbol (48 at MCS0), ``n_bpsc`` bits per
subcarrier (1 for BPSK).
"""

from __future__ import annotations

import numpy as np

from repro.types import BitArray, IntArray

__all__ = ["interleave", "permutation"]


def permutation(n_cbps: int, n_bpsc: int) -> IntArray:
    """Index map: output position of each input bit ``k``."""
    if n_cbps % 16:
        raise ValueError("n_cbps must be a multiple of 16")
    s = max(n_bpsc // 2, 1)
    k = np.arange(n_cbps)
    i = (n_cbps // 16) * (k % 16) + (k // 16)
    j = s * (i // s) + (i + n_cbps - (16 * i) // n_cbps) % s
    return j


def interleave(bits: np.ndarray) -> BitArray:
    """Interleave a BPSK stream symbol by symbol at MCS0 (48 coded bits
    per symbol, one per subcarrier; length a multiple of 48)."""
    n_cbps = 48
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size % n_cbps:
        raise ValueError(f"stream length {arr.size} not a multiple of {n_cbps}")
    perm = permutation(n_cbps, 1)
    out = np.empty_like(arr)
    for start in range(0, arr.size, n_cbps):
        block = arr[start : start + n_cbps]
        seg = np.empty(n_cbps, dtype=np.uint8)
        seg[perm] = block
        out[start : start + n_cbps] = seg
    return out
