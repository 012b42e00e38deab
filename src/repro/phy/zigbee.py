"""IEEE 802.15.4 2.4 GHz physical layer (OQPSK/DSSS, complex baseband).

Implements the ZigBee excitation the paper uses: 250 kbps, 62.5 ksym/s,
each 4-bit symbol spread to a 32-chip PN sequence at 2 Mchip/s, OQPSK
with half-sine pulse shaping and the half-chip I/Q offset (§2.4
"ZigBee").

The receiver reconstructs chip soft values and picks the best-matched
PN sequence among the 16 -- exactly the decision rule of commodity
radios that the paper's gamma >= 3 argument relies on: a tag phase flip
complements a symbol's chips, which still correlates decisively with a
*different* table entry, while the flip boundary only damages the
symbol it cuts through.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.types import BitArray, ComplexIQ, Hertz

from repro import perf
from repro.core import contracts
from repro.phy import bits as bitlib
from repro.phy import pulse
from repro.phy.batch import require_nonempty
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform

__all__ = [
    "PN_TABLE",
    "modulate",
    "demodulate",
    "demodulate_batch",
    "estimate_cfo",
    "ZigbeeDecodeResult",
    "CHIPS_PER_SYMBOL",
]

CHIPS_PER_SYMBOL = 32
CHIP_RATE = 2e6
#: Oversampling of the 2 Mchip/s stream.  Each I/Q chip lasts two chip
#: periods (1 us) with the Q branch offset by half of that.
_SAMPLES_PER_CHIP = 4

#: PN sequence for data symbol 0 (802.15.4-2015 Table 12-1, c0..c31).
_PN0 = np.array(
    [1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1,
     0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0],
    dtype=np.uint8,
)


def _build_pn_table() -> np.ndarray:
    """All 16 PN sequences: symbols 1-7 are 4-chip cyclic shifts of
    symbol 0; symbols 8-15 conjugate (invert the odd/Q chips)."""
    table = np.empty((16, CHIPS_PER_SYMBOL), dtype=np.uint8)
    for k in range(8):
        table[k] = np.roll(_PN0, 4 * k)
    q_mask = np.zeros(CHIPS_PER_SYMBOL, dtype=np.uint8)
    q_mask[1::2] = 1
    for k in range(8):
        table[8 + k] = table[k] ^ q_mask
    return table


PN_TABLE = _build_pn_table()
_PN_BIPOLAR = 2.0 * PN_TABLE.astype(float) - 1.0

#: Per-chip projection axis: I chips live on the real axis, Q chips on
#: the imaginary axis.  ``_PICK`` selects exactly those parts from a
#: symbol's complex chips viewed as float64 (re, im) pairs, and
#: ``_IDEAL_CONJ[s]`` is the conjugate of PN symbol ``s``'s ideal chips.
_Q_AXIS = np.resize(np.array([1.0, 1j], dtype=np.complex128), CHIPS_PER_SYMBOL)
_PICK = 2 * np.arange(CHIPS_PER_SYMBOL) + np.arange(CHIPS_PER_SYMBOL) % 2
_IDEAL_CONJ = np.conj(_PN_BIPOLAR * _Q_AXIS)

#: SFD value 0xA7 -> symbols [7, 0xA] (low nibble first).
_SFD_SYMBOLS = (0x7, 0xA)

#: Number of zero symbols in the SHR preamble (4 bytes of zeros).
_N_PREAMBLE_SYMBOLS = 8


@contracts.shapes("n_bits -> n_bits//4")
def symbols_from_bits(bits: np.ndarray) -> BitArray:
    """Pack bits into 4-bit symbols, low nibble first (LSB-first bits)."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size % 4:
        raise ValueError("bit count must be a multiple of 4")
    blocks = arr.reshape(-1, 4)
    return (blocks * np.array([1, 2, 4, 8], dtype=np.uint8)).sum(axis=1)


@contracts.shapes("n_sym -> n_sym*4")
def bits_from_symbols(symbols: np.ndarray) -> BitArray:
    """Inverse of :func:`symbols_from_bits`."""
    arr = np.asarray(symbols, dtype=np.uint8)
    return ((arr[:, None] >> np.arange(4, dtype=np.uint8)) & 1).astype(np.uint8).ravel()


@contracts.shapes("n")
@contracts.dtypes(np.uint8)
def _oqpsk_waveform(chips: np.ndarray) -> ComplexIQ:
    """Half-sine OQPSK: even chips -> I, odd chips -> Q (offset Tc/2)."""
    bipolar = 2.0 * chips.astype(float) - 1.0
    i_chips = bipolar[0::2]
    q_chips = bipolar[1::2]
    # Each I (and Q) chip occupies 1 us = 2 chip periods; consecutive
    # same-branch pulses abut without overlap, so the waveform is just
    # the scaled pulses laid out back to back.
    sps_ichip = 2 * _SAMPLES_PER_CHIP
    p = pulse.half_sine_pulse(sps_ichip)
    half = sps_ichip // 2
    n_total = chips.size * _SAMPLES_PER_CHIP + half
    i_wave = np.zeros(n_total)
    q_wave = np.zeros(n_total)
    i_wave[: i_chips.size * sps_ichip] = (i_chips[:, None] * p).ravel()
    q_wave[half : half + q_chips.size * sps_ichip] = (q_chips[:, None] * p).ravel()
    return (i_wave + 1j * q_wave) / np.sqrt(2.0)


def _payload_bits(payload: bytes | np.ndarray) -> BitArray:
    """Normalize a PSDU (bytes or bit array) to its on-air bit stream."""
    if isinstance(payload, (bytes, bytearray)):
        return bitlib.bits_from_bytes(payload)
    payload_bits = np.asarray(payload, dtype=np.uint8)
    if payload_bits.size % 4:
        raise ValueError("payload bit count must be a multiple of 4")
    return payload_bits


@contracts.dtypes(np.uint8)
def modulate(payload: bytes | np.ndarray) -> Waveform:
    """Modulate a PSDU (bytes or bit array) into an 802.15.4 waveform.

    The frame is SHR (8 zero symbols + SFD 0xA7) + PHR (length byte) +
    PSDU symbols, with no FCS: the paper turns CRC checking *off* at
    the NICs.
    """
    perf.count("zigbee.modulate")
    payload_bits = _payload_bits(payload)

    phr = bitlib.bits_from_int((payload_bits.size // 8) & 0x7F, 8)
    header_symbols = np.concatenate(
        [
            np.zeros(_N_PREAMBLE_SYMBOLS, dtype=np.uint8),
            np.array(_SFD_SYMBOLS, dtype=np.uint8),
            symbols_from_bits(phr),
        ]
    )
    payload_symbols = symbols_from_bits(payload_bits)
    symbols = np.concatenate([header_symbols, payload_symbols])
    chips = PN_TABLE[symbols].ravel()
    iq = _oqpsk_waveform(chips)

    samples_per_symbol = CHIPS_PER_SYMBOL * _SAMPLES_PER_CHIP
    return Waveform(
        iq=iq,
        sample_rate=CHIP_RATE * _SAMPLES_PER_CHIP,
        annotations={
            "protocol": Protocol.ZIGBEE,
            "payload_start": header_symbols.size * samples_per_symbol,
            "samples_per_symbol": samples_per_symbol,
            "n_payload_symbols": payload_symbols.size,
            "n_header_symbols": header_symbols.size,
        },
    )


@dataclass
class ZigbeeDecodeResult:
    """Receiver output.

    ``symbols`` are the best-match PN decisions for the PSDU;
    ``payload_bits`` the corresponding bit stream.
    """

    payload_bits: np.ndarray
    symbols: np.ndarray


def _chip_matched_outputs(wave: Waveform, n_chips: int) -> ComplexIQ:
    """Complex matched-filter outputs per chip (half-sine correlation).

    Each I (Q) chip is a half-sine pulse spanning 2 chip periods;
    correlating against the pulse (instead of point-sampling the peak)
    collects the full chip energy.  Keeping the outputs complex lets
    the demodulator apply per-symbol phase tracking before taking the
    I/Q projections.
    """
    ann = wave.annotations
    spc = ann["samples_per_symbol"] // CHIPS_PER_SYMBOL
    sps_ichip = 2 * spc
    half = sps_ichip // 2
    p = pulse.half_sine_pulse(sps_ichip)
    p = p / np.sum(p)
    iq = wave.iq
    n_i = (n_chips + 1) // 2
    n_q = n_chips // 2
    # I pulses tile [0, n_i * len); Q pulses the same grid offset by
    # half a pulse.  Zero-padding the capture keeps truncated trailing
    # chips equal to the short-segment dot product.
    needed = half + n_q * sps_ichip if n_q else n_i * sps_ichip
    needed = max(needed, n_i * sps_ichip)
    padded = iq if iq.size >= needed else np.pad(iq, (0, needed - iq.size))
    out = np.zeros(n_chips, dtype=complex)
    out[0::2] = padded[: n_i * sps_ichip].reshape(n_i, sps_ichip) @ p
    if n_q:
        out[1::2] = padded[half : half + n_q * sps_ichip].reshape(n_q, sps_ichip) @ p
    return out


def estimate_cfo(wave: Waveform) -> Hertz:
    """CFO estimate from the SHR preamble's repeating zero symbols.

    Consecutive preamble symbols are identical 16 us waveforms, so the
    phase of their lag-one-symbol correlation measures the offset
    (unambiguous to +-31.25 kHz -- ample for 802.15.4's +-40 ppm).
    """
    ann = wave.annotations
    sym_len = ann["samples_per_symbol"]
    n_pre = min(ann.get("n_header_symbols", 10) - 2, 7)
    if n_pre < 1 or wave.iq.size < (n_pre + 1) * sym_len:
        return 0.0
    a = wave.iq[: n_pre * sym_len]
    b = wave.iq[sym_len : (n_pre + 1) * sym_len]
    corr = np.sum(b * np.conj(a))
    period_s = sym_len / wave.sample_rate
    return float(np.angle(corr) / (2.0 * np.pi * period_s))


def demodulate(wave: Waveform) -> ZigbeeDecodeResult:
    """Best-match PN sequence detection, as commodity radios do.

    The waveform is derotated by the preamble-estimated frequency
    offset before the coherent chip sampling.
    """
    perf.count("zigbee.demodulate")
    ann = wave.annotations
    if ann.get("protocol") is not Protocol.ZIGBEE:
        raise ValueError("waveform is not annotated as ZigBee")
    cfo = estimate_cfo(wave)
    if abs(cfo) > 0.5:
        wave = wave.frequency_shifted(-cfo, memo=False)
        wave.annotations = ann
    n_header = ann["n_header_symbols"]
    n_payload = ann["n_payload_symbols"]
    n_symbols = n_header + n_payload
    z = _chip_matched_outputs(wave, n_symbols * CHIPS_PER_SYMBOL)

    # Decision-directed phase tracking: residual CFO/phase noise is
    # re-estimated from each decided symbol (a one-shot derotation is
    # not enough over a multi-millisecond coherent packet).
    # The loop is serial, so it calls the scalar and array methods
    # directly: ``cmath.exp``, ``.argmax()`` and ``.sum()`` give the same
    # values as their NumPy wrappers, and ``np.arctan2`` is what
    # ``np.angle`` computes (``math.atan2`` can differ in the last bit).
    symbols = np.empty(n_symbols, dtype=np.uint8)
    phase = 0.0
    for k, zk in enumerate(z.reshape(n_symbols, CHIPS_PER_SYMBOL)):
        rotated = zk * cmath.exp(-1j * phase)
        seg = rotated.view(np.float64)[_PICK]
        scores = _PN_BIPOLAR @ seg
        best = int(scores.argmax())
        symbols[k] = best
        # Residual phase of this symbol relative to its decision: the
        # ideal rotated outputs are (+-1) on I chips and (+-j) on Q
        # chips, so projecting onto the decided chips re-centers them
        # on the real axis.
        residual = (rotated * _IDEAL_CONJ[best]).sum()
        if abs(residual) > 1e-12:
            phase += 0.5 * float(np.arctan2(residual.imag, residual.real))

    payload_symbols = symbols[n_header:]
    return ZigbeeDecodeResult(
        payload_bits=bits_from_symbols(payload_symbols), symbols=payload_symbols
    )


def demodulate_batch(waves: Sequence[Waveform]) -> list[ZigbeeDecodeResult]:
    """:func:`demodulate` applied to each waveform, in input order.

    An empty batch raises ``ValueError``.
    """
    require_nonempty(waves, "zigbee.demodulate_batch")
    return [demodulate(w) for w in waves]
