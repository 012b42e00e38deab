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
from repro.phy.waveform import Waveform
from repro.types import Hertz

__all__ = [
    "ADVERTISING_ACCESS_ADDRESS",
    "BleConfig",
    "modulate",
    "demodulate",
    "demodulate_batch",
    "BleDecodeResult",
]

#: Advertising channel access address (fixed by the spec).
ADVERTISING_ACCESS_ADDRESS = 0x8E89BED6

#: Supported PHYs: symbol rate and peak deviation (index 0.5 for both).
_PHY_PARAMS = {"1M": (1e6, 250e3), "2M": (2e6, 500e3)}


@dataclass(frozen=True)
class BleConfig:
    """Modulator configuration.

    ``samples_per_symbol`` sets oversampling of the 1 Msym/s stream;
    ``channel`` selects the whitening seed (37 is the primary
    advertising channel); ``access_address`` defaults to the
    advertising AA the identification templates rely on (§2.3.2: the
    fixed broadcast address is what lets the matching window extend to
    40 us).
    """

    samples_per_symbol: int = 8
    channel: int = 37
    access_address: int = ADVERTISING_ACCESS_ADDRESS
    bt: float = 0.5
    phy: str = "1M"

    @property
    def symbol_rate(self) -> Hertz:
        return _PHY_PARAMS[self.phy][0]

    @property
    def freq_deviation_hz(self) -> Hertz:
        return _PHY_PARAMS[self.phy][1]

    @property
    def sample_rate(self) -> Hertz:
        return self.symbol_rate * self.samples_per_symbol

    def __post_init__(self) -> None:
        if self.samples_per_symbol < 2:
            raise ValueError("samples_per_symbol must be >= 2")
        if not 0 <= self.channel <= 39:
            raise ValueError("channel must be 0..39")
        if self.phy not in _PHY_PARAMS:
            raise ValueError(f"unsupported BLE PHY {self.phy!r}")


def _frame_bits(payload: bytes, cfg: BleConfig) -> tuple[np.ndarray, int]:
    """Assemble on-air bits; returns (bits, index of first payload bit).

    PDU = 2-byte header (type/flags + length) + payload; header+payload
    +CRC are whitened.  The preamble alternates starting so its last
    bit differs from the AA's first bit, per spec (AA LSB=0 -> 0xAA).
    """
    aa_bits = bitlib.bits_from_int(cfg.access_address, 32)
    n_pre = 16 if cfg.phy == "2M" else 8  # LE 2M: 2-octet preamble
    preamble = np.tile([0, 1], n_pre // 2).astype(np.uint8)
    if aa_bits[0] == 1:
        preamble = 1 - preamble
    header = bytes([0x02, len(payload) & 0xFF])  # ADV_NONCONN_IND
    pdu_bits = bitlib.bits_from_bytes(header + payload)
    crc_bits = bitlib.crc24_ble(pdu_bits)
    whitened = bitlib.whiten_ble(np.concatenate([pdu_bits, crc_bits]), cfg.channel)
    bits = np.concatenate([preamble, aa_bits, whitened])
    payload_bit_index = preamble.size + aa_bits.size + 16  # skip header
    return bits, payload_bit_index


@contracts.dtypes(np.uint8)
def modulate(payload: bytes | np.ndarray, config: BleConfig | None = None) -> Waveform:
    """Modulate an advertising PDU payload into a GFSK waveform.

    ``payload`` may also be a raw on-air bit array (no framing or
    whitening applied) for carrier-crafting use.
    """
    perf.count("ble.modulate")
    cfg = config or BleConfig()
    bits, payload_bit, n_payload_bits, whitened = _onair_bits(payload, cfg)

    sps = cfg.samples_per_symbol
    nrz = 2.0 * bits.astype(float) - 1.0
    taps = pulse.gaussian_taps(cfg.bt, sps)
    shaped = np.convolve(np.repeat(nrz, sps), taps)
    delay = (len(taps) - 1) // 2
    shaped = shaped[delay : delay + bits.size * sps]

    # Frequency modulation: integrate the shaped NRZ stream.
    phase = 2.0 * np.pi * cfg.freq_deviation_hz * np.cumsum(shaped) / cfg.sample_rate
    iq = np.exp(1j * phase)
    return Waveform(
        iq=iq,
        sample_rate=cfg.sample_rate,
        annotations={
            "protocol": Protocol.BLE,
            "payload_start": payload_bit * sps,
            "samples_per_symbol": sps,
            "n_payload_symbols": bits.size - payload_bit,
            "n_payload_bits": n_payload_bits,
            "channel": cfg.channel,
            "n_frame_bits": bits.size,
            "n_preamble_bits": 16 if cfg.phy == "2M" else 8,
            "whitened": whitened,
        },
    )


def _onair_bits(
    payload: bytes | np.ndarray, cfg: BleConfig
) -> tuple[np.ndarray, int, int, bool]:
    """On-air bit assembly for :func:`modulate`.

    Returns ``(bits, first_payload_bit, n_payload_bits, whitened)``.
    """
    if isinstance(payload, (bytes, bytearray)):
        bits, payload_bit = _frame_bits(bytes(payload), cfg)
        return bits, payload_bit, len(payload) * 8, True
    raw = np.asarray(payload, dtype=np.uint8)
    aa_bits = bitlib.bits_from_int(cfg.access_address, 32)
    n_pre = 16 if cfg.phy == "2M" else 8
    preamble = np.tile([0, 1], n_pre // 2).astype(np.uint8)
    if aa_bits[0] == 1:
        preamble = 1 - preamble
    bits = np.concatenate([preamble, aa_bits, raw])
    return bits, preamble.size + aa_bits.size, raw.size, False


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
    crc_ok: bool
    access_address: int


@lru_cache(maxsize=8)
def _rx_filter(sps: int) -> np.ndarray:
    """Receive channel filter for ``sps`` samples per symbol: 4th-order
    Butterworth ``sos`` at ~0.7x the symbol rate.

    Read-only: scipy's filters need writable sections, so callers hand
    them a copy.
    """
    from scipy import signal as sp_signal

    cutoff = 0.7 / sps  # ~0.7 x symbol rate, normalized to Nyquist
    sos = sp_signal.butter(4, 2.0 * cutoff, output="sos")
    sos.flags.writeable = False
    return sos


def demodulate(wave: Waveform, *, dewhiten: bool = True) -> BleDecodeResult:
    """Discriminator demodulation of a BLE waveform."""
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
        from scipy import signal as sp_signal

        # Zero-phase filtering keeps the symbol grid aligned (a real
        # receiver compensates the filter's group delay in its timing
        # recovery).
        iq = sp_signal.sosfiltfilt(_rx_filter(sps).copy(), iq)

    # Instantaneous frequency from phase differences.
    dphi = np.angle(iq[1:] * np.conj(iq[:-1]))
    dphi = np.concatenate([[0.0], dphi])

    # CFO appears as a DC offset of the discriminator; the alternating
    # preamble has zero mean deviation, so its mean dphi estimates the
    # offset (standard GFSK preamble AFC).
    n_pre_bits = ann.get("n_preamble_bits", 8)
    pre = dphi[: n_pre_bits * sps]
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

    aa_start = ann.get("n_preamble_bits", 8)
    aa = bitlib.int_from_bits(decisions[aa_start : aa_start + 32])
    pdu_onair = decisions[aa_start + 32 :]

    framed = ann.get("whitened", True)
    if framed and dewhiten and "channel" in ann:
        pdu = bitlib.whiten_ble(pdu_onair, ann["channel"])
    else:
        pdu = pdu_onair.copy()

    n_payload_bits = ann.get("n_payload_bits", max(pdu.size - 16 - 24, 0))
    crc_ok = False
    if framed and pdu.size >= 16 + 24:
        body = pdu[: 16 + n_payload_bits]
        crc_rx = pdu[16 + n_payload_bits : 16 + n_payload_bits + 24]
        crc_ok = bool(
            crc_rx.size == 24 and np.array_equal(bitlib.crc24_ble(body), crc_rx)
        )
        payload_bits = pdu[16 : 16 + n_payload_bits]
    else:
        payload_bits = pdu[:n_payload_bits]
    return BleDecodeResult(
        payload_bits=payload_bits,
        onair_bits=pdu_onair,
        crc_ok=crc_ok,
        access_address=aa,
    )


def demodulate_batch(
    waves: Sequence[Waveform], *, dewhiten: bool = True
) -> list[BleDecodeResult]:
    """:func:`demodulate` applied to each waveform, in input order.

    An empty batch raises ``ValueError``.
    """
    require_nonempty(waves, "ble.demodulate_batch")
    return [demodulate(w, dewhiten=dewhiten) for w in waves]
