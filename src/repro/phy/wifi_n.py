"""802.11n 20 MHz OFDM physical layer (mixed-mode format).

Implements the greenfield-free frame the paper's excitation uses:

* L-STF (8 us) + L-LTF (8 us) + L-SIG (4 us)        -- legacy preamble
* HT-SIG (8 us) + HT-STF (4 us) + HT-LTF (4 us)     -- HT preamble
* HT data symbols (4 us each), single spatial stream

The full single-stream 20 MHz MCS ladder (0-7) is supported: BPSK,
QPSK, 16-QAM and 64-QAM with BCC rates 1/2, 2/3, 3/4 and 5/6
(puncturing + erasure-aware Viterbi).  The paper's excitation uses
MCS0; Fig 17's reference-symbol sweep uses MCS0/1/3.

The receiver is a standard coherent OFDM chain: HT-LTF channel
estimation, per-symbol equalization, pilot common-phase tracking,
constellation demapping, HT deinterleaving, Viterbi, descrambling.
The pilot phase corrector deliberately only tracks phase modulo pi
(slew-limited), as a real PLL-based tracker cannot instantaneously
follow a pi jump -- this is what lets a tag's full-symbol phase flip
(overlay modulation, §2.4) survive into the decoded bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro import perf
from repro.core import contracts
from repro.phy import bits as bitlib
from repro.phy import convcode, viterbi
from repro.phy.batch import require_nonempty
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform
from repro.types import Hertz

__all__ = [
    "WifiNConfig",
    "modulate",
    "demodulate",
    "demodulate_batch",
    "WifiNDecodeResult",
    "estimate_cfo",
    "N_FFT",
    "CP_LEN",
    "SYMBOL_LEN",
    "HT_DATA_CARRIERS",
]

N_FFT = 64
CP_LEN = 16
SYMBOL_LEN = N_FFT + CP_LEN  # 80 samples = 4 us at 20 Msps
SAMPLE_RATE = 20e6

#: Pilot subcarrier indices and base values (802.11-2016 §17.3.5.9).
PILOT_CARRIERS = np.array([-21, -7, 7, 21])
PILOT_VALUES = np.array([1.0, 1.0, 1.0, -1.0])

#: HT 20 MHz data subcarriers: -28..28 minus DC and pilots (52 total).
HT_DATA_CARRIERS = np.array(
    [k for k in range(-28, 29) if k != 0 and k not in (-21, -7, 7, 21)]
)

#: Legacy (L-SIG) data subcarriers: -26..26 minus DC and pilots (48).
LEGACY_DATA_CARRIERS = np.array(
    [k for k in range(-26, 27) if k != 0 and k not in (-21, -7, 7, 21)]
)

# L-STF frequency-domain sequence on subcarriers -26..26.
_S26 = np.sqrt(13.0 / 6.0) * np.array(
    [0, 0, 1 + 1j, 0, 0, 0, -1 - 1j, 0, 0, 0, 1 + 1j, 0, 0, 0, -1 - 1j, 0, 0, 0,
     -1 - 1j, 0, 0, 0, 1 + 1j, 0, 0, 0, 0, 0, 0, 0, -1 - 1j, 0, 0, 0, -1 - 1j,
     0, 0, 0, 1 + 1j, 0, 0, 0, 1 + 1j, 0, 0, 0, 1 + 1j, 0, 0, 0, 1 + 1j, 0, 0],
    dtype=complex,
)

# L-LTF frequency-domain sequence on subcarriers -26..26.
_L26 = np.array(
    [1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1,
     1, 1, 1, 1, 0, 1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1,
     -1, -1, 1, -1, 1, -1, 1, 1, 1, 1],
    dtype=complex,
)

# HT-LTF on subcarriers -28..28 (L-LTF extended by {1,1} / {-1,-1}).
_HTLTF28 = np.concatenate([np.array([1.0, 1.0]), _L26, np.array([-1.0, -1.0])]).astype(
    complex
)

#: Pilot polarity sequence p_0..p_126 (802.11-2016 equation 17-25).
PILOT_POLARITY = np.array(
    [1, 1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1, -1, 1, -1, -1, 1, 1, -1,
     1, 1, -1, 1, 1, 1, 1, 1, 1, -1, 1, 1, 1, -1, 1, 1, -1, -1, 1, 1, 1, -1, 1,
     -1, -1, -1, 1, -1, 1, -1, -1, 1, -1, -1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1,
     -1, 1, -1, 1, -1, 1, 1, -1, -1, -1, 1, 1, -1, -1, -1, -1, 1, -1, -1, 1,
     -1, 1, 1, 1, 1, -1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, -1, 1, 1, -1,
     1, -1, 1, 1, 1, -1, -1, 1, -1, -1, -1, 1, 1, 1, -1, -1, -1, -1, -1, -1, -1]
)

#: HT modulation-and-coding sets (single stream, 20 MHz):
#: mcs -> (constellation, coded bits/subcarrier, BCC rate).
_MCS_TABLE = {
    0: ("BPSK", 1, "1/2"),
    1: ("QPSK", 2, "1/2"),
    2: ("QPSK", 2, "3/4"),
    3: ("16QAM", 4, "1/2"),
    4: ("16QAM", 4, "3/4"),
    5: ("64QAM", 6, "2/3"),
    6: ("64QAM", 6, "3/4"),
    7: ("64QAM", 6, "5/6"),
}

#: Frame-synchronous scrambler initial state.
_SCRAMBLER_SEED = 0x5D

#: Numerator/denominator per coding-rate string.
_RATE_FRACTION = {"1/2": (1, 2), "2/3": (2, 3), "3/4": (3, 4), "5/6": (5, 6)}


@dataclass(frozen=True)
class WifiNConfig:
    """Modulator configuration for the HT data portion.

    ``mcs`` selects the single-stream 20 MHz MCS (0-7).
    """

    mcs: int = 0

    def __post_init__(self) -> None:
        if self.mcs not in _MCS_TABLE:
            raise ValueError(f"unsupported MCS {self.mcs}; supported: {sorted(_MCS_TABLE)}")

    @property
    def constellation(self) -> str:
        return _MCS_TABLE[self.mcs][0]

    @property
    def n_bpsc(self) -> int:
        """Coded bits per subcarrier."""
        return _MCS_TABLE[self.mcs][1]

    @property
    def coding_rate(self) -> str:
        """BCC rate string ("1/2", "2/3", "3/4", "5/6")."""
        return _MCS_TABLE[self.mcs][2]

    @property
    def n_cbps(self) -> int:
        """Coded bits per OFDM symbol (52 data carriers)."""
        return 52 * self.n_bpsc

    @property
    def n_dbps(self) -> int:
        """Data bits per OFDM symbol."""
        num, den = _RATE_FRACTION[self.coding_rate]
        return self.n_cbps * num // den

    @property
    def sample_rate(self) -> Hertz:
        return SAMPLE_RATE


# ----------------------------------------------------------------------
# constellation mapping
# ----------------------------------------------------------------------
#: Gray-coded axis levels indexed by the packed axis bits (b0 most
#: significant): 16QAM {00,01,10,11} -> {-3,-1,3,1}, 64QAM
#: {000..111} -> {-7,-5,-1,-3,7,5,1,3}.
_QAM16_LEVELS = np.array([-3.0, -1.0, 3.0, 1.0])
_QAM64_LEVELS = np.array([-7.0, -5.0, -1.0, -3.0, 7.0, 5.0, 1.0, 3.0])


def _map_bits(bits: np.ndarray, constellation: str) -> np.ndarray:
    """Gray-map coded bits to constellation points (unit average power)."""
    b = np.asarray(bits, dtype=np.uint8)
    if constellation == "BPSK":
        return 2.0 * b.astype(float) - 1.0 + 0j
    if constellation == "QPSK":
        pairs = b.reshape(-1, 2)
        i = (2.0 * pairs[:, 0] - 1.0) / np.sqrt(2.0)
        q = (2.0 * pairs[:, 1] - 1.0) / np.sqrt(2.0)
        return i + 1j * q
    if constellation == "16QAM":
        quads = b.reshape(-1, 4).astype(np.intp)
        i = _QAM16_LEVELS[2 * quads[:, 0] + quads[:, 1]]
        q = _QAM16_LEVELS[2 * quads[:, 2] + quads[:, 3]]
        return (i + 1j * q) / np.sqrt(10.0)
    if constellation == "64QAM":
        groups = b.reshape(-1, 6).astype(np.intp)
        i = _QAM64_LEVELS[4 * groups[:, 0] + 2 * groups[:, 1] + groups[:, 2]]
        q = _QAM64_LEVELS[4 * groups[:, 3] + 2 * groups[:, 4] + groups[:, 5]]
        return (i + 1j * q) / np.sqrt(42.0)
    raise ValueError(f"unknown constellation {constellation}")


def _demap_symbols(points: np.ndarray, constellation: str) -> np.ndarray:
    """Hard-decision demap back to coded bits."""
    pts = np.asarray(points, dtype=complex)
    if constellation == "BPSK":
        return (pts.real > 0).astype(np.uint8)
    if constellation == "QPSK":
        out = np.empty(pts.size * 2, dtype=np.uint8)
        out[0::2] = pts.real > 0
        out[1::2] = pts.imag > 0
        return out

    if constellation == "16QAM":
        def axis_bits(v: np.ndarray) -> np.ndarray:
            scaled = v * np.sqrt(10.0)
            b0 = (scaled > 0).astype(np.uint8)
            b1 = (np.abs(scaled) < 2.0).astype(np.uint8)
            return np.stack([b0, b1], axis=1)

        ib = axis_bits(pts.real)
        qb = axis_bits(pts.imag)
        return np.concatenate([ib, qb], axis=1).ravel()

    # 64QAM: per-axis Gray decisions at thresholds 0 / +-4 / +-2,6.
    def axis_bits64(v: np.ndarray) -> np.ndarray:
        scaled = v * np.sqrt(42.0)
        b0 = (scaled > 0).astype(np.uint8)
        b1 = (np.abs(scaled) < 4.0).astype(np.uint8)
        b2 = ((np.abs(scaled) > 2.0) & (np.abs(scaled) < 6.0)).astype(np.uint8)
        return np.stack([b0, b1, b2], axis=1)

    ib = axis_bits64(pts.real)
    qb = axis_bits64(pts.imag)
    return np.concatenate([ib, qb], axis=1).ravel()


# ----------------------------------------------------------------------
# HT interleaver (20 MHz, one spatial stream)
# ----------------------------------------------------------------------
def _demap_soft(
    points: np.ndarray, constellation: str, csi: np.ndarray | None = None
) -> np.ndarray:
    """Max-log LLRs per coded bit (positive = bit 1 more likely).

    ``csi`` holds per-subcarrier |H|^2 weights: equalization amplifies
    noise on faded subcarriers, so their LLRs must count less.
    """
    pts = np.asarray(points, dtype=complex)
    w = np.ones(pts.size) if csi is None else np.asarray(csi, dtype=float)
    if constellation == "BPSK":
        return 2.0 * pts.real * w
    if constellation == "QPSK":
        out = np.empty(pts.size * 2)
        out[0::2] = np.sqrt(2.0) * pts.real * w
        out[1::2] = np.sqrt(2.0) * pts.imag * w
        return out

    def axis_llrs(v: np.ndarray, levels: int) -> np.ndarray:
        if levels == 4:  # 16QAM axis, scaled to integer grid
            s = v * np.sqrt(10.0)
            return np.stack([s, 2.0 - np.abs(s)], axis=1)
        s = v * np.sqrt(42.0)  # 64QAM axis
        return np.stack([s, 4.0 - np.abs(s), 2.0 - np.abs(np.abs(s) - 4.0)], axis=1)

    n_axis = 4 if constellation == "16QAM" else 8
    i_llrs = axis_llrs(pts.real, n_axis)
    q_llrs = axis_llrs(pts.imag, n_axis)
    llrs = np.concatenate([i_llrs, q_llrs], axis=1)
    if csi is not None:
        llrs = llrs * np.asarray(csi, dtype=float)[:, None]
    return llrs.ravel()


@lru_cache(maxsize=16)
def _ht_permutation(n_cbps: int, n_bpsc: int) -> np.ndarray:
    """HT interleaver output index for each input index k (§20.3.11.8.2)."""
    n_col = 13
    n_row = 4 * n_bpsc
    s = max(n_bpsc // 2, 1)
    k = np.arange(n_cbps)
    i = n_row * (k % n_col) + k // n_col
    j = s * (i // s) + (i + n_cbps - (n_col * i) // n_cbps) % s
    return j


def _ht_blocks(bits: np.ndarray, n_bpsc: int) -> np.ndarray:
    """A coded stream as one row of ``52 * n_bpsc`` bits per OFDM symbol."""
    arr = np.asarray(bits, dtype=np.uint8)
    n_cbps = 52 * n_bpsc
    if arr.size % n_cbps:
        raise ValueError(f"stream length {arr.size} not a multiple of {n_cbps}")
    return arr.reshape(-1, n_cbps)


@contracts.shapes("n -> n")
def ht_interleave(bits: np.ndarray, n_bpsc: int) -> np.ndarray:
    """Interleave a coded stream symbol by symbol (length a multiple of
    ``52 * n_bpsc``)."""
    blocks = _ht_blocks(bits, n_bpsc)
    out = np.empty_like(blocks)
    out[:, _ht_permutation(blocks.shape[1], n_bpsc)] = blocks
    return out.ravel()


@contracts.shapes("n -> n")
def ht_deinterleave(bits: np.ndarray, n_bpsc: int) -> np.ndarray:
    """Inverse of :func:`ht_interleave`."""
    blocks = _ht_blocks(bits, n_bpsc)
    return blocks[:, _ht_permutation(blocks.shape[1], n_bpsc)].ravel()


# ----------------------------------------------------------------------
# OFDM symbol construction
# ----------------------------------------------------------------------
def _freq_to_time(carriers: dict[int, complex]) -> np.ndarray:
    """64-point IFFT of a sparse subcarrier map (no CP)."""
    spec = np.zeros(N_FFT, dtype=complex)
    for k, v in carriers.items():
        spec[k % N_FFT] = v
    return np.fft.ifft(spec) * N_FFT / np.sqrt(52.0)


def _pilot_polarity(n_sym: int, first: int) -> np.ndarray:
    """Pilot polarities p_first, p_first+1, ... of ``n_sym`` symbols."""
    return PILOT_POLARITY[(np.arange(n_sym) + first) % PILOT_POLARITY.size]


def _modulate_symbols(
    points: np.ndarray, carriers: np.ndarray, polarity: np.ndarray
) -> np.ndarray:
    """80-sample OFDM symbols with CP and pilots, one per row of
    ``points``, built with one 2-D IFFT."""
    spec = np.zeros((points.shape[0], N_FFT), dtype=complex)
    spec[:, carriers % N_FFT] = points
    spec[:, PILOT_CARRIERS % N_FFT] = PILOT_VALUES * polarity[:, None]
    body = np.fft.ifft(spec, axis=1) * N_FFT / np.sqrt(52.0)
    return np.concatenate([body[:, -CP_LEN:], body], axis=1).ravel()


def _receive_symbols(
    iq: np.ndarray,
    start: int,
    n_sym: int,
    h: np.ndarray,
    carriers: np.ndarray,
    polarity: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Equalized, phase-corrected data points of ``n_sym`` OFDM symbols
    (one row each) and the common phase error applied to each.

    All symbols go through one 2-D FFT; a frame cut short is
    zero-padded to whole symbols.
    """
    need = n_sym * SYMBOL_LEN
    seg = iq[start : start + need]
    if seg.size < need:
        seg = np.pad(seg, (0, need - seg.size))
    body = seg.reshape(n_sym, SYMBOL_LEN)[:, CP_LEN:]
    eq = np.fft.fft(body, axis=1) * np.sqrt(52.0) / N_FFT / h
    # Pilot-based common phase error.  The correction is tracked
    # continuously but only within its modulo-pi class: the applied
    # value is the representative of angle(corr) + k*pi closest to
    # the previous symbol's correction.  Slow drift (residual CFO)
    # is followed without the sign flips a per-symbol wrap at
    # +-pi/2 would cause, while a tag-induced pi flip -- a jump of
    # exactly pi -- stays in the same class and is never "fixed".
    expected = PILOT_VALUES * polarity[:, None]
    corr = np.sum(eq[:, PILOT_CARRIERS % N_FFT] * np.conj(expected), axis=1)
    cpes = np.empty(n_sym)
    prev = 0.0
    for s, raw in enumerate(np.angle(corr).tolist()):
        prev = raw + np.rint((prev - raw) / np.pi) * np.pi
        cpes[s] = prev
    eq = eq * np.exp(-1j * cpes)[:, None]
    return eq[:, carriers % N_FFT], cpes


@lru_cache(maxsize=1)
def _l_stf() -> np.ndarray:
    """Legacy short training field: 160 samples (10 x 16-sample periods)."""
    spec = {k: _S26[k + 26] for k in range(-26, 27)}
    body = _freq_to_time(spec)
    period = np.concatenate([body, body, body[:32]])
    return period


@lru_cache(maxsize=1)
def _l_ltf() -> np.ndarray:
    """Legacy long training field: 32-sample GI2 + 2 x 64 samples."""
    spec = {k: _L26[k + 26] for k in range(-26, 27)}
    body = _freq_to_time(spec)
    return np.concatenate([body[-32:], body, body])


@lru_cache(maxsize=1)
def _ht_ltf() -> np.ndarray:
    """HT long training field: one guarded symbol over 57 carriers."""
    spec = {k: _HTLTF28[k + 28] for k in range(-28, 29)}
    body = _freq_to_time(spec)
    return np.concatenate([body[-CP_LEN:], body])


def _ht_stf() -> np.ndarray:
    """HT short training field: 4 us (first half of an L-STF)."""
    return _l_stf()[:80]


def _legacy_bpsk_symbol(bits24: np.ndarray, *, qbpsk: bool = False) -> np.ndarray:
    """Legacy-format signaling symbol (L-SIG / HT-SIG): 24 info bits."""
    coded = convcode.encode(bits24)
    from repro.phy.interleaver import interleave as legacy_interleave

    inter = legacy_interleave(coded)
    points = _map_bits(inter, "BPSK")
    if qbpsk:
        points = points * 1j  # HT-SIG uses 90-degree rotated BPSK
    return _modulate_symbols(points[None, :], LEGACY_DATA_CARRIERS, np.ones(1))


@lru_cache(maxsize=64)
def _l_sig(rate_bits: int, length: int) -> np.ndarray:
    """L-SIG symbol: RATE(4) RSVD(1) LENGTH(12) PARITY(1) TAIL(6)."""
    bits = np.concatenate(
        [
            bitlib.bits_from_int(rate_bits, 4),
            np.zeros(1, np.uint8),
            bitlib.bits_from_int(length & 0xFFF, 12),
            np.zeros(1, np.uint8),  # parity placeholder, fixed below
            np.zeros(6, np.uint8),
        ]
    )
    bits[17] = bits[:17].sum() % 2  # even parity over first 17 bits
    return _legacy_bpsk_symbol(bits)


@lru_cache(maxsize=64)
def _ht_sig(mcs: int, length: int) -> np.ndarray:
    """HT-SIG (2 QBPSK symbols); CRC field simplified to zeros."""
    bits = np.concatenate(
        [
            bitlib.bits_from_int(mcs & 0x7F, 7),
            np.zeros(1, np.uint8),  # CBW 20/40
            bitlib.bits_from_int(length & 0xFFFF, 16),
            np.zeros(24, np.uint8),  # smoothing..CRC..tail, simplified
        ]
    )
    sym1 = _legacy_bpsk_symbol(bits[:24], qbpsk=True)
    sym2 = _legacy_bpsk_symbol(bits[24:], qbpsk=True)
    return np.concatenate([sym1, sym2])


# ----------------------------------------------------------------------
# modulator
# ----------------------------------------------------------------------
@contracts.dtypes(np.uint8)
def modulate(
    payload: bytes | np.ndarray,
    config: WifiNConfig | None = None,
    *,
    data_bits: np.ndarray | None = None,
) -> Waveform:
    """Modulate a PSDU into an 802.11n waveform.

    ``payload`` is the PSDU (bytes or bit array).  Alternatively pass
    ``data_bits`` to control the entire data-bit stream (SERVICE +
    PSDU + tail + pad) directly -- the overlay carrier generator uses
    this to align crafted bit groups with OFDM symbol boundaries.
    """
    perf.count("wifi_n.modulate")
    cfg = config or WifiNConfig()
    if data_bits is None:
        if isinstance(payload, (bytes, bytearray)):
            psdu = bitlib.bits_from_bytes(payload)
        else:
            psdu = np.asarray(payload, dtype=np.uint8)
        stream = np.concatenate([np.zeros(16, np.uint8), psdu, np.zeros(6, np.uint8)])
    else:
        stream = np.asarray(data_bits, dtype=np.uint8)
        psdu = stream[16:]

    n_sym = max(1, int(np.ceil(stream.size / cfg.n_dbps)))
    pad = n_sym * cfg.n_dbps - stream.size
    stream = np.concatenate([stream, np.zeros(pad, np.uint8)])

    scrambled = bitlib.scramble_80211_frame(stream, seed=_SCRAMBLER_SEED)
    coded = convcode.puncture(convcode.encode(scrambled), cfg.coding_rate)

    points = _map_bits(ht_interleave(coded, cfg.n_bpsc), cfg.constellation)
    data = _modulate_symbols(
        points.reshape(n_sym, -1), HT_DATA_CARRIERS, _pilot_polarity(n_sym, 3)
    )

    preamble = np.concatenate(
        [
            _l_stf(),
            _l_ltf(),
            _l_sig(0b1011, max(1, psdu.size // 8)),
            _ht_sig(cfg.mcs, max(1, psdu.size // 8)),
            _ht_stf(),
            _ht_ltf(),
        ]
    )
    iq = np.concatenate([preamble, data])
    payload_start = preamble.size
    return Waveform(
        iq=iq,
        sample_rate=cfg.sample_rate,
        annotations={
            "protocol": Protocol.WIFI_N,
            "mcs": cfg.mcs,
            "payload_start": payload_start,
            "samples_per_symbol": SYMBOL_LEN,
            "n_payload_symbols": n_sym,
            "n_stream_bits": stream.size,
            "ht_ltf_start": payload_start - SYMBOL_LEN,
        },
    )


# ----------------------------------------------------------------------
# receiver
# ----------------------------------------------------------------------
@dataclass
class WifiNDecodeResult:
    """Receiver output.

    ``psdu_bits`` is the descrambled PSDU (the data stream without its
    16-bit SERVICE field, tail and pad); ``symbol_bits`` groups the whole
    descrambled data stream (SERVICE + PSDU + tail + pad) by originating
    OFDM symbol, one row per symbol -- the overlay decoder's comparison
    unit (§2.4, 802.11n case).
    """

    psdu_bits: np.ndarray
    symbol_bits: np.ndarray


def estimate_cfo(wave: Waveform) -> Hertz:
    """Carrier-frequency-offset estimate from the training fields.

    Coarse stage: L-STF 16-sample periodicity (unambiguous to
    +-625 kHz); fine stage: L-LTF 64-sample repetition (+-156 kHz).
    Returns the estimated CFO in Hz.
    """
    x = wave.iq
    fs = wave.sample_rate
    if x.size < 320:
        return 0.0
    # Coarse: autocorrelation at lag 16 over the L-STF (samples 16..144).
    stf = x[16:144]
    c16 = np.sum(stf * np.conj(x[0:128]))
    coarse = np.angle(c16) / (2.0 * np.pi * 16.0 / fs)
    # Fine: the two L-LTF bodies at 192 and 256.
    b1 = x[192:256]
    b2 = x[256:320]
    c64 = np.sum(b2 * np.conj(b1))
    fine = np.angle(c64) / (2.0 * np.pi * 64.0 / fs)
    # Combine: fine is accurate but aliases every fs/64; unwrap it to
    # the nearest alias of the coarse estimate.
    alias = fs / 64.0
    k = np.round((coarse - fine) / alias)
    return float(fine + k * alias)


def _estimate_channel(wave: Waveform) -> np.ndarray:
    """Channel estimate on the 56 HT carriers from the HT-LTF."""
    start = wave.annotations["ht_ltf_start"] + CP_LEN
    body = wave.iq[start : start + N_FFT]
    spec = np.fft.fft(body) * np.sqrt(52.0) / N_FFT
    h = np.zeros(N_FFT, dtype=complex)
    ks = np.arange(-28, 29)
    nz = _HTLTF28 != 0
    idx = ks[nz] % N_FFT
    h[idx] = spec[idx] / _HTLTF28[nz]
    return h


def demodulate(
    wave: Waveform,
    *,
    n_psdu_bits: int | None = None,
    soft: bool = False,
) -> WifiNDecodeResult:
    """Coherent 802.11n receive chain (timing from frame annotations).

    The standard two-stage (L-STF coarse + L-LTF fine) frequency-offset
    estimator derotates the waveform before channel estimation.
    ``soft`` switches to max-log LLR demapping and
    soft-decision Viterbi (~2 dB gain over hard decisions).
    """
    perf.count("wifi_n.demodulate")
    ann = wave.annotations
    if ann.get("protocol") is not Protocol.WIFI_N:
        raise ValueError("waveform is not annotated as 802.11n")
    cfg = WifiNConfig(mcs=ann["mcs"])
    cfo = estimate_cfo(wave)
    if abs(cfo) > 1.0:
        wave = wave.frequency_shifted(-cfo, memo=False)
    h = _estimate_channel(wave)
    # Guard against nulls.
    h = np.where(np.abs(h) < 1e-12, 1e-12, h)

    n_sym = ann["n_payload_symbols"]
    points, _ = _receive_symbols(
        wave.iq,
        ann["payload_start"],
        n_sym,
        h,
        HT_DATA_CARRIERS,
        _pilot_polarity(n_sym, 3),
    )
    if soft:
        csi = np.abs(h[HT_DATA_CARRIERS % N_FFT]) ** 2
        llrs = _demap_soft(points.ravel(), cfg.constellation, np.tile(csi, n_sym))
        perm = _ht_permutation(cfg.n_cbps, cfg.n_bpsc)
        llr_stream = llrs.reshape(n_sym, cfg.n_cbps)[:, perm].ravel()
        llr_stream = convcode.depuncture_soft(llr_stream, cfg.coding_rate)
        scrambled = viterbi.decode_soft(llr_stream, n_info=ann["n_stream_bits"])
    else:
        hard = _demap_symbols(points.ravel(), cfg.constellation)
        coded_stream = convcode.depuncture(
            ht_deinterleave(hard, cfg.n_bpsc), cfg.coding_rate
        )
        scrambled = viterbi.decode(coded_stream, n_info=ann["n_stream_bits"])
    # Pad the Viterbi output to the padded stream length before
    # descrambling so the additive sequence aligns.
    n_stream = ann["n_stream_bits"]
    n_padded = n_sym * cfg.n_dbps
    if scrambled.size < n_padded:
        scrambled = np.pad(scrambled, (0, n_padded - scrambled.size))
    data_bits = bitlib.scramble_80211_frame(scrambled, seed=_SCRAMBLER_SEED)[:n_padded]

    psdu = data_bits[16:n_stream - 6] if n_stream >= 22 else data_bits[16:]
    if n_psdu_bits is not None:
        psdu = psdu[:n_psdu_bits]
    symbol_bits = data_bits.reshape(n_sym, cfg.n_dbps)
    return WifiNDecodeResult(psdu_bits=psdu, symbol_bits=symbol_bits)


def demodulate_batch(waves: Sequence[Waveform]) -> list[WifiNDecodeResult]:
    """:func:`demodulate` applied to each waveform, in input order.

    An empty batch raises ``ValueError``.
    """
    require_nonempty(waves, "wifi_n.demodulate_batch")
    return [demodulate(w) for w in waves]
