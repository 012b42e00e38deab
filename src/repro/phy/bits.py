"""Bit-level utilities shared by all PHY implementations.

Everything here operates on NumPy ``uint8`` arrays of 0/1 values.  The
2.4 GHz standards transmit bytes least-significant-bit first, so the
packing helpers default to LSB-first.

Contents:

* bit/byte packing (:func:`bits_from_bytes`, :func:`bytes_from_bits`)
* generic Galois LFSR (:class:`Lfsr`)
* the CRCs the receivers check (802.15.4 CRC-16, BLE CRC-24, 802.11b
  PLCP header CRC-16)
* the 802.11b self-synchronizing scrambler and the 802.11a/n
  frame-synchronous scrambler
* BLE data whitening
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.types import BitArray

__all__ = [
    "bits_from_bytes",
    "bytes_from_bits",
    "bits_from_int",
    "int_from_bits",
    "Lfsr",
    "crc16_ccitt",
    "crc16_80211b_plcp",
    "crc24_ble",
    "scramble_80211b",
    "descramble_80211b",
    "scramble_80211_frame",
    "ble_whitening_sequence",
    "whiten_ble",
]


def _as_bits(bits: np.ndarray | list[int]) -> BitArray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D bit array, got shape {arr.shape}")
    if arr.size and arr.max() > 1:
        raise ValueError("bit array contains values other than 0/1")
    return arr


def bits_from_bytes(data: bytes | bytearray | np.ndarray, *, lsb_first: bool = True) -> BitArray:
    """Expand bytes into a bit array (LSB-first by default, as on air)."""
    byte_arr = np.frombuffer(bytes(data), dtype=np.uint8)
    bit_order = "little" if lsb_first else "big"
    return np.unpackbits(byte_arr, bitorder=bit_order)


def bytes_from_bits(bits: np.ndarray | list[int], *, lsb_first: bool = True) -> bytes:
    """Pack a bit array back into bytes; length must be a multiple of 8."""
    arr = _as_bits(bits)
    if arr.size % 8:
        raise ValueError(f"bit count {arr.size} is not a multiple of 8")
    bit_order = "little" if lsb_first else "big"
    return np.packbits(arr, bitorder=bit_order).tobytes()


def bits_from_int(value: int, width: int, *, lsb_first: bool = True) -> BitArray:
    """Expand an integer into ``width`` bits."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    bits = np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)
    return bits if lsb_first else bits[::-1]


def int_from_bits(bits: np.ndarray | list[int], *, lsb_first: bool = True) -> int:
    """Pack a bit array into an integer."""
    arr = _as_bits(bits)
    if not lsb_first:
        arr = arr[::-1]
    return int(sum(int(b) << i for i, b in enumerate(arr)))


class Lfsr:
    """Fibonacci LFSR over GF(2) with arbitrary taps.

    ``taps`` are exponents of the feedback polynomial excluding the
    constant term; e.g. the 802.11b scrambler polynomial
    ``x^7 + x^4 + 1`` is ``Lfsr(taps=(7, 4), state=seed, width=7)``.
    The output bit each step is the XOR of the tapped state bits
    (state bit *i* holds the value delayed by *i+1* steps).
    """

    def __init__(self, taps: tuple[int, ...], state: int, width: int) -> None:
        if not taps or max(taps) > width:
            raise ValueError("taps must be non-empty and fit within width")
        if state <= 0 or state >= (1 << width):
            raise ValueError("state must be a non-zero value within width bits")
        self.taps = taps
        self.width = width
        self.state = state

    def next_bit(self) -> int:
        """Advance one step and return the generated bit."""
        out = 0
        for t in self.taps:
            out ^= (self.state >> (t - 1)) & 1
        self.state = ((self.state << 1) | out) & ((1 << self.width) - 1)
        return out


@lru_cache(maxsize=64)
def _lfsr_cycle(taps: tuple[int, ...], seed: int, width: int) -> BitArray:
    """One full period of an :class:`Lfsr` output stream.

    LFSR sequences are purely state-driven, so the stream is the cycle
    the state walks (at most ``2^width - 1`` long) repeated forever.
    Generating the cycle once and tiling it replaces the per-bit Python
    loop for the frame-synchronous scrambler and BLE whitening.
    """
    if max(taps) != width:
        raise ValueError("cycle generation requires an invertible LFSR (max tap == width)")
    lfsr = Lfsr(taps=taps, state=seed, width=width)
    out: list[int] = []
    start = lfsr.state
    while True:
        out.append(lfsr.next_bit())
        if lfsr.state == start:
            break
    return np.array(out, dtype=np.uint8)


def _reflected_crc_table(poly: int) -> list[int]:
    """256-entry byte-update table for a reflected (LSB-first) CRC."""
    reg = np.arange(256, dtype=np.uint64)
    for _ in range(8):
        reg = np.where(reg & 1, (reg >> np.uint64(1)) ^ np.uint64(poly), reg >> np.uint64(1))
    return [int(x) for x in reg]


_CRC16_TABLE = _reflected_crc_table(0x8408)


def _msb_crc_table(poly: int, width: int) -> list[int]:
    """256-entry byte-update table for a left-shifting (MSB-in) CRC."""
    top = 1 << (width - 1)
    mask = (1 << width) - 1
    table = []
    for i in range(256):
        reg = i << (width - 8)
        for _ in range(8):
            reg = ((reg << 1) ^ poly) & mask if reg & top else (reg << 1) & mask
        table.append(reg)
    return table


_CRC24_TABLE = _msb_crc_table(0x00065B, 24)


def _reflected_crc(bits: np.ndarray, table: list[int], poly: int, reg: int) -> int:
    """Run a reflected CRC over an LSB-first bit stream.

    Whole bytes go through the table (one Python iteration per 8 bits);
    any trailing partial byte falls back to bit-at-a-time, so arbitrary
    bit counts still work.
    """
    n_bytes = bits.size // 8
    if n_bytes:
        for byte in np.packbits(bits[: n_bytes * 8], bitorder="little").tolist():
            reg = (reg >> 8) ^ table[(reg ^ byte) & 0xFF]
    for b in bits[n_bytes * 8 :]:
        fb = (reg ^ int(b)) & 1
        reg >>= 1
        if fb:
            reg ^= poly
    return reg


def _crc_generic(bits: np.ndarray, poly: int, width: int, init: int) -> int:
    """Bitwise CRC with MSB-first shifting over an LSB-first bit stream."""
    reg = init
    top = 1 << (width - 1)
    mask = (1 << width) - 1
    for b in bits:
        fb = ((reg >> (width - 1)) & 1) ^ int(b)
        reg = (reg << 1) & mask
        if fb:
            reg ^= poly & mask
    return reg


def crc16_ccitt(data_bits: np.ndarray | list[int], *, init: int = 0x0000) -> BitArray:
    """CRC-16-CCITT (poly 0x1021) as used by IEEE 802.15.4, LSB-first bits."""
    arr = _as_bits(data_bits)
    # 802.15.4 processes LSB-first with a reflected implementation
    # (poly 0x8408, the reflection of 0x1021).
    reg = _reflected_crc(arr, _CRC16_TABLE, 0x8408, init)
    return bits_from_int(reg, 16)


def crc16_80211b_plcp(header_bits: np.ndarray | list[int]) -> BitArray:
    """802.11b PLCP header CRC-16 (CCITT, init all ones, complemented)."""
    arr = _as_bits(header_bits)
    reg = _crc_generic(arr, poly=0x1021, width=16, init=0xFFFF)
    reg ^= 0xFFFF
    # Transmitted MSB of the register first per 802.11-2016 figure 16-5.
    return bits_from_int(reg, 16, lsb_first=False)


def crc24_ble(data_bits: np.ndarray | list[int], *, init: int = 0x555555) -> BitArray:
    """BLE CRC-24 (poly x^24+x^10+x^9+x^6+x^4+x^3+x+1), LSB-first output.

    ``init`` is 0x555555 for advertising channel PDUs (Core Spec v5,
    Vol 6 Part B §3.1.1).
    """
    arr = _as_bits(data_bits)
    # BLE shifts LSB-first through the register; poly bits per spec.
    poly = 0x00065B  # x^10+x^9+x^6+x^4+x^3+x+1 (x^24 implied)
    reg = init
    # Each stream bit XORs into the register top, so 8 bits at a time
    # collapse into one table step (first bit in the byte's MSB).
    n_bytes = arr.size // 8
    if n_bytes:
        for byte in np.packbits(arr[: n_bytes * 8], bitorder="big").tolist():
            reg = ((reg << 8) & 0xFFFFFF) ^ _CRC24_TABLE[((reg >> 16) & 0xFF) ^ byte]
    for b in arr[n_bytes * 8 :]:
        fb = ((reg >> 23) & 1) ^ int(b)
        reg = (reg << 1) & 0xFFFFFF
        if fb:
            reg ^= poly
    # CRC transmitted MSB of register last -> LSB-first over 24 bits of
    # the *reversed* register per spec transmission order.
    return bits_from_int(reg, 24, lsb_first=False)


def _build_80211b_scramble_luts() -> tuple[list[int], list[int]]:
    """(output byte, next state) per (state, input byte), flattened.

    The self-synchronizing scrambler's state after 8 bits depends only
    on the starting state and the 8 input bits, so one table lookup
    advances a whole byte.  Built vectorized over all 128 x 256
    combinations; flattened to plain lists because scalar indexing of
    Python lists inside the per-byte loop beats NumPy scalar indexing.
    """
    state = np.repeat(np.arange(128, dtype=np.int64), 256).reshape(128, 256)
    byte = np.tile(np.arange(256, dtype=np.int64), 128).reshape(128, 256)
    out = np.zeros((128, 256), dtype=np.int64)
    for k in range(8):
        bit = (byte >> k) & 1
        fb = ((state >> 3) & 1) ^ ((state >> 6) & 1)
        s = bit ^ fb
        out |= s << k
        state = ((state << 1) | s) & 0x7F
    return out.reshape(-1).tolist(), state.reshape(-1).tolist()


_SCR11B_OUT, _SCR11B_STATE = _build_80211b_scramble_luts()


def scramble_80211b(bits: np.ndarray | list[int], *, seed: int = 0x6C) -> BitArray:
    """802.11b self-synchronizing scrambler (x^7 + x^4 + 1).

    ``seed`` 0x6C is the initial register for long-preamble frames
    (0x1B for short).  The scrambler output feeds back into the shift
    register, so the descrambler is self-synchronizing.

    The output recurrence ``s[i] = b[i] ^ s[i-4] ^ s[i-7]`` is serial
    in its own output, so this runs byte-at-a-time through precomputed
    (state, byte) tables rather than bit-at-a-time.
    """
    arr = _as_bits(bits)
    state = seed & 0x7F
    n_bytes = arr.size // 8
    out = np.empty_like(arr)
    if n_bytes:
        out_bytes = [0] * n_bytes
        for i, byte in enumerate(np.packbits(arr[: n_bytes * 8], bitorder="little").tolist()):
            key = (state << 8) | byte
            out_bytes[i] = _SCR11B_OUT[key]
            state = _SCR11B_STATE[key]
        out[: n_bytes * 8] = np.unpackbits(np.array(out_bytes, dtype=np.uint8), bitorder="little")
    for i in range(n_bytes * 8, arr.size):
        fb = ((state >> 3) & 1) ^ ((state >> 6) & 1)
        s = int(arr[i]) ^ fb
        out[i] = s
        state = ((state << 1) | s) & 0x7F
    return out


def descramble_80211b(bits: np.ndarray | list[int], *, seed: int = 0x6C) -> BitArray:
    """Inverse of :func:`scramble_80211b` (self-synchronizing form).

    The descrambler's shift register holds the last seven *received*
    bits, all of which are known up front: output ``i`` is simply
    ``rx[i] ^ rx[i-4] ^ rx[i-7]`` with the seed supplying the history
    before the stream starts.  That makes this side fully vectorized.
    """
    arr = _as_bits(bits)
    n = arr.size
    history = np.array([(seed >> (6 - j)) & 1 for j in range(7)], dtype=np.uint8)
    ext = np.concatenate([history, arr])
    return arr ^ ext[3 : 3 + n] ^ ext[:n]


def scramble_80211_frame(bits: np.ndarray | list[int], *, seed: int = 0x5D) -> BitArray:
    """802.11a/g/n frame-synchronous scrambler (x^7 + x^4 + 1).

    Unlike the 802.11b scrambler the register is free-running from
    ``seed``; applying the function twice with the same seed is the
    identity, so it serves as its own descrambler.
    """
    arr = _as_bits(bits)
    cycle = _lfsr_cycle((7, 4), seed & 0x7F, 7)
    return arr ^ np.resize(cycle, arr.size)


def ble_whitening_sequence(channel: int, n: int) -> BitArray:
    """BLE whitening sequence for ``channel`` (x^7 + x^4 + 1, seeded).

    Register initialized to ``1 | channel`` per Core Spec Vol 6 Part B
    §3.2: position 0 set to one, positions 1..6 the channel index MSB
    first.
    """
    if not 0 <= channel <= 39:
        raise ValueError(f"BLE channel must be 0..39, got {channel}")
    return np.resize(_ble_whiten_cycle(channel), n)


@lru_cache(maxsize=40)
def _ble_whiten_cycle(channel: int) -> BitArray:
    """One period of the BLE whitening LFSR for ``channel``.

    The Galois-form register (x^7 + x^4 + 1) is invertible, so the
    state walk from any seed is a pure cycle; generate it once per
    channel and tile.
    """
    # State bits: x6..x0; init x6=1, x5..x0 = channel bits b5..b0.
    state = (1 << 6) | (channel & 0x3F)
    start = state
    out: list[int] = []
    while True:
        b = state & 1  # x0 output
        out.append(b)
        state >>= 1
        if b:
            state ^= 0x44  # feed back into x6 and x2 (x^7 + x^4 + 1)
        if state == start:
            break
    return np.array(out, dtype=np.uint8)


def whiten_ble(bits: np.ndarray | list[int], channel: int) -> BitArray:
    """Apply (or remove -- it is an involution) BLE whitening."""
    arr = _as_bits(bits)
    return arr ^ ble_whitening_sequence(channel, arr.size)
