"""Bluetooth Low Energy LE 1M physical layer (GFSK, complex baseband).

Implements the advertising-channel frame the paper's BLE excitation
uses: preamble 0xAA, advertising access address 0x8E89BED6, whitened
PDU + CRC-24, GFSK with modulation index 0.5 and BT = 0.5 (Core Spec
v5.x Vol 6 Part B).

The receiver is a discriminator (instantaneous-frequency) demodulator,
matching how commodity BLE chips make bit decisions.  That matters for
overlay modulation: the tag's FSK shift mirrors a symbol's frequency
deviation (§2.4 "Bluetooth"), and the discriminator then naturally
reads the flipped bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro import perf
from repro.core import contracts
from repro.phy import bits as bitlib
from repro.phy import pulse
from repro.phy.batch import require_nonempty
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform, sosfilt

__all__ = [
    "ADVERTISING_ACCESS_ADDRESS",
    "modulate",
    "demodulate",
    "demodulate_batch",
    "BleDecodeResult",
]

#: Advertising channel access address (fixed by the spec).  The
#: identification templates rely on it (§2.3.2: the fixed broadcast
#: address is what lets the matching window extend to 40 us).
ADVERTISING_ACCESS_ADDRESS = 0x8E89BED6

#: LE 1M: symbol rate and peak deviation (modulation index 0.5).
_SYMBOL_RATE = 1e6
_FREQ_DEVIATION_HZ = 250e3
#: Oversampling of the 1 Msym/s stream.
_SAMPLES_PER_SYMBOL = 8
_SAMPLE_RATE = _SYMBOL_RATE * _SAMPLES_PER_SYMBOL
#: Gaussian filter bandwidth-time product.
_BT = 0.5
#: The primary advertising channel; it selects the whitening seed.
_CHANNEL = 37

_AA_BITS = bitlib.bits_from_int(ADVERTISING_ACCESS_ADDRESS, 32)
#: One preamble octet, alternating so its last bit differs from the
#: AA's first bit, per spec (AA LSB=0 -> 0xAA).
_PREAMBLE = np.tile([0, 1], 4).astype(np.uint8) ^ _AA_BITS[0]
_N_PREAMBLE_BITS = _PREAMBLE.size


def _frame_bits(payload: bytes) -> tuple[np.ndarray, int]:
    """Assemble on-air bits; returns (bits, index of first payload bit).

    PDU = 2-byte header (type/flags + length) + payload; header+payload
    +CRC are whitened.
    """
    header = bytes([0x02, len(payload) & 0xFF])  # ADV_NONCONN_IND
    pdu_bits = bitlib.bits_from_bytes(header + payload)
    crc_bits = bitlib.crc24_ble(pdu_bits)
    whitened = bitlib.whiten_ble(np.concatenate([pdu_bits, crc_bits]), _CHANNEL)
    bits = np.concatenate([_PREAMBLE, _AA_BITS, whitened])
    payload_bit_index = _PREAMBLE.size + _AA_BITS.size + 16  # skip header
    return bits, payload_bit_index


@contracts.dtypes(np.uint8)
def modulate(payload: bytes | np.ndarray) -> Waveform:
    """Modulate an advertising PDU payload into a GFSK waveform.

    ``payload`` may also be a raw on-air bit array (no framing or
    whitening applied) for carrier-crafting use.
    """
    perf.count("ble.modulate")
    bits, payload_bit, n_payload_bits, whitened = _onair_bits(payload)

    sps = _SAMPLES_PER_SYMBOL
    nrz = 2.0 * bits.astype(float) - 1.0
    taps = pulse.gaussian_taps(_BT, sps)
    shaped = np.convolve(np.repeat(nrz, sps), taps)
    delay = (len(taps) - 1) // 2
    shaped = shaped[delay : delay + bits.size * sps]

    # Frequency modulation: integrate the shaped NRZ stream.
    phase = 2.0 * np.pi * _FREQ_DEVIATION_HZ * np.cumsum(shaped) / _SAMPLE_RATE
    iq = np.exp(1j * phase)
    return Waveform(
        iq=iq,
        sample_rate=_SAMPLE_RATE,
        annotations={
            "protocol": Protocol.BLE,
            "payload_start": payload_bit * sps,
            "samples_per_symbol": sps,
            "n_payload_symbols": bits.size - payload_bit,
            "n_payload_bits": n_payload_bits,
            "n_frame_bits": bits.size,
            "whitened": whitened,
        },
    )


def _onair_bits(payload: bytes | np.ndarray) -> tuple[np.ndarray, int, int, bool]:
    """On-air bit assembly for :func:`modulate`.

    Returns ``(bits, first_payload_bit, n_payload_bits, whitened)``.
    """
    if isinstance(payload, (bytes, bytearray)):
        bits, payload_bit = _frame_bits(bytes(payload))
        return bits, payload_bit, len(payload) * 8, True
    raw = np.asarray(payload, dtype=np.uint8)
    bits = np.concatenate([_PREAMBLE, _AA_BITS, raw])
    return bits, _PREAMBLE.size + _AA_BITS.size, raw.size, False


@dataclass
class BleDecodeResult:
    """Receiver output.

    ``payload_bits`` is the dewhitened PDU payload (header stripped
    when the frame was byte-framed); ``onair_bits`` is the raw bit
    stream after the access address -- the overlay decoder's comparison
    domain (whitening is an additive involution, so tag flips map 1:1
    between the two).
    """

    payload_bits: np.ndarray
    onair_bits: np.ndarray


@lru_cache(maxsize=8)
def _rx_filter(sps: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Receive channel filter for ``sps`` samples per symbol: the 4th-order
    Butterworth ``sos`` at ~0.7x the symbol rate, its unit-step steady
    state ``zi`` and the odd-extension length ``sosfiltfilt`` gives it by
    default, ``3 * (2 * n_sections + 1 - min(#(b2 == 0), #(a2 == 0)))``.

    Both arrays are read-only.
    """
    from scipy import signal as sp_signal

    cutoff = 0.7 / sps  # ~0.7 x symbol rate, normalized to Nyquist
    sos = sp_signal.butter(4, 2.0 * cutoff, output="sos")
    zi = sp_signal.sosfilt_zi(sos)
    n_taps = 2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
    sos.flags.writeable = False
    zi.flags.writeable = False
    return sos, zi, 3 * int(n_taps)


def _filtfilt(iq: np.ndarray, sps: int) -> np.ndarray:
    """``scipy.signal.sosfiltfilt(sos, iq)`` with the memoized design:
    the same odd extension at both ends, a forward pass started in steady
    state at the first sample, a backward pass started at the last
    output, and the extension cut off again.  ``iq`` must be longer than
    the extension.
    """
    sos, zi, edge = _rx_filter(sps)
    ext = np.concatenate(
        (2 * iq[:1] - iq[edge:0:-1], iq, 2 * iq[-1:] - iq[-2 : -(edge + 2) : -1])
    )
    y = sosfilt(sos, ext, zi * ext[:1])
    y = sosfilt(sos, y[::-1], zi * y[-1:])
    return y[::-1][edge:-edge]


def demodulate(wave: Waveform) -> BleDecodeResult:
    """Discriminator demodulation of a BLE waveform.

    No CRC-24 check: the paper turns the NICs' CRC checking off (§3),
    so the raw decisions are delivered.
    """
    perf.count("ble.demodulate")
    ann = wave.annotations
    if ann.get("protocol") is not Protocol.BLE:
        raise ValueError("waveform is not annotated as BLE")
    sps = ann["samples_per_symbol"]
    n_bits = ann["n_frame_bits"]

    # Pre-detection channel filter: a discriminator is hypersensitive
    # to wideband noise ("click" noise), so real receivers band-limit
    # to ~the symbol rate first.
    iq = wave.iq
    if sps >= 4 and iq.size > 24:
        # Zero-phase filtering keeps the symbol grid aligned (a real
        # receiver compensates the filter's group delay in its timing
        # recovery).
        iq = _filtfilt(iq, sps)

    # Instantaneous frequency from phase differences.
    dphi = np.angle(iq[1:] * np.conj(iq[:-1]))
    dphi = np.concatenate([[0.0], dphi])

    # CFO appears as a DC offset of the discriminator; the alternating
    # preamble has zero mean deviation, so its mean dphi estimates the
    # offset (standard GFSK preamble AFC).
    pre = dphi[: _N_PREAMBLE_BITS * sps]
    dc = float(pre.mean()) if pre.size else 0.0
    dphi = dphi - dc

    # Integrate-and-dump over the central half of each symbol (all
    # symbols at once; zero-padding keeps a truncated final symbol
    # equal to summing its short segment).
    need = n_bits * sps
    if dphi.size < need:
        dphi = np.pad(dphi, (0, need - dphi.size))
    core = dphi[:need].reshape(n_bits, sps)[:, sps // 4 : sps - sps // 4]
    decisions = (core.sum(axis=1) > 0).astype(np.uint8)

    pdu_onair = decisions[_N_PREAMBLE_BITS + 32 :]

    framed = ann.get("whitened", True)
    if framed:
        pdu = bitlib.whiten_ble(pdu_onair, _CHANNEL)
    else:
        pdu = pdu_onair.copy()

    n_payload_bits = ann.get("n_payload_bits", max(pdu.size - 16 - 24, 0))
    if framed and pdu.size >= 16 + 24:
        payload_bits = pdu[16 : 16 + n_payload_bits]
    else:
        payload_bits = pdu[:n_payload_bits]
    return BleDecodeResult(payload_bits=payload_bits, onair_bits=pdu_onair)


def demodulate_batch(waves: Sequence[Waveform]) -> list[BleDecodeResult]:
    """:func:`demodulate` applied to each waveform, in input order.

    An empty batch raises ``ValueError``.
    """
    require_nonempty(waves, "ble.demodulate_batch")
    return [demodulate(w) for w in waves]
