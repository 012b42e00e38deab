"""802.11b DSSS/CCK physical layer (complex baseband).

Implements the long-preamble PLCP format of 802.11b-1999 at the rates
the paper uses: 1 Mbps (DBPSK/Barker), 2 Mbps (DQPSK/Barker) and
5.5 Mbps (CCK), plus a coherent software receiver.

Structure on air (long preamble):

* SYNC: 128 scrambled ones            (128 us @ 1 Mbps DBPSK)
* SFD:  0xF3A0, LSB first             (16 us)
* PLCP header: SIGNAL, SERVICE, LENGTH, CRC-16 (48 us @ 1 Mbps)
* PSDU at the negotiated rate

Everything before the PSDU always runs at 1 Mbps DBPSK with Barker
spreading, which is what gives the protocol its distinctive 144 us
packet-detection field (paper §2.2).
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
    "BARKER11",
    "WifiBConfig",
    "modulate",
    "demodulate",
    "demodulate_batch",
    "WifiBDecodeResult",
]

#: Barker-11 spreading sequence (+1/-1 chips), per 802.11-2016 §16.4.6.4.
BARKER11 = np.array([1, -1, 1, 1, -1, 1, 1, 1, -1, -1, -1], dtype=float)

#: SFD for the long preamble, transmitted LSB first (0xF3A0 -> 16 bits).
_SFD_LONG = bitlib.bits_from_int(0xF3A0, 16)

#: SFD for the short preamble: the long SFD time-reversed (0x05CF).
_SFD_SHORT = bitlib.bits_from_int(0x05CF, 16)

#: SIGNAL field values (rate in 100 kbps units).
_SIGNAL_BY_RATE = {1.0: 0x0A, 2.0: 0x14, 5.5: 0x37, 11.0: 0x6E}
_RATE_BY_SIGNAL = {v: k for k, v in _SIGNAL_BY_RATE.items()}

#: DQPSK phase increments for dibits (d0, d1) per 802.11 Table 16-2,
#: indexed by ``2*d0 + d1``.
_DQPSK_PHASE_LUT = np.array([0.0, np.pi / 2, 3 * np.pi / 2, np.pi])

#: Quadrant index (0/90/180/270 degrees) back to the (d0, d1) dibit.
_DQPSK_INV_LUT = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)

#: CCK 5.5 Mbps phi2 choices indexed by bit d2 (phi2 = pi/2 + d2*pi).
_CCK55_PHI2 = (np.pi / 2, 3 * np.pi / 2)

#: CCK 11 Mbps QPSK mapping for the (phi2, phi3, phi4) dibit pairs.
_CCK11_QPSK = {(0, 0): 0.0, (0, 1): np.pi / 2, (1, 0): np.pi, (1, 1): 3 * np.pi / 2}

#: The same mapping as an array indexed by ``2*a + b``.
_CCK11_QPSK_LUT = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])

#: Per-chip (phi2, phi3, phi4) participation and sign in the CCK
#: codeword (802.11-2016 equation 16-1); phi1 is on every chip.
_CCK_PHI_COEF = np.array(
    [
        [1, 1, 1],
        [0, 1, 1],
        [1, 0, 1],
        [0, 0, 1],
        [1, 1, 0],
        [0, 1, 0],
        [1, 0, 0],
        [0, 0, 0],
    ],
    dtype=float,
)
_CCK_CHIP_SIGN = np.array([1, 1, 1, -1, 1, 1, -1, 1], dtype=float)


def _rate_tenths(rate_mbps: float) -> int:
    """802.11b rate as integer tenths of Mbps for exact discrimination."""
    return int(round(rate_mbps * 10.0))


@dataclass(frozen=True)
class WifiBConfig:
    """Modulator configuration.

    ``rate_mbps`` selects the PSDU rate (1, 2 or 5.5); the preamble and
    header always run at 1 Mbps.  ``samples_per_chip`` sets the
    oversampling of the 11 Mchip/s stream, so the sample rate is
    ``11e6 * samples_per_chip``.  ``shaped`` applies RRC chip shaping
    (needed for realistic envelopes at the tag's rectifier).
    """

    rate_mbps: float = 1.0
    samples_per_chip: int = 2
    shaped: bool = True
    scrambler_seed: int | None = None
    short_preamble: bool = False

    @property
    def sample_rate(self) -> Hertz:
        return 11e6 * self.samples_per_chip

    @property
    def rate_tenths(self) -> int:
        """PSDU rate in integer tenths of Mbps (10/20/55/110).

        Rate discrimination compares these integers: exact float
        equality on ``rate_mbps`` is banned by reprolint R002.
        """
        return _rate_tenths(self.rate_mbps)

    @property
    def seed(self) -> int:
        """Scrambler seed: 0x6C for long-, 0x1B for short-preamble
        frames unless overridden (802.11-2016 §16.2.4/§16.2.5)."""
        if self.scrambler_seed is not None:
            return self.scrambler_seed
        return 0x1B if self.short_preamble else 0x6C

    def __post_init__(self) -> None:
        if self.rate_mbps not in (1.0, 2.0, 5.5, 11.0):
            raise ValueError(f"unsupported 802.11b rate {self.rate_mbps}")
        if self.samples_per_chip < 1:
            raise ValueError("samples_per_chip must be >= 1")
        if self.short_preamble and self.rate_tenths == 10:
            raise ValueError("the short preamble excludes the 1 Mbps PSDU rate")


# ----------------------------------------------------------------------
# symbol-level mapping (shared by modulator and the overlay layer)
# ----------------------------------------------------------------------
def _dbpsk_phases(bits: np.ndarray, phase0: float = 0.0) -> np.ndarray:
    """Differentially encode bits into absolute symbol phases."""
    increments = np.where(np.asarray(bits, dtype=np.uint8) == 1, np.pi, 0.0)
    return phase0 + np.cumsum(increments)


def _dqpsk_phases(bits: np.ndarray, phase0: float = 0.0) -> np.ndarray:
    """Differentially encode dibits into absolute symbol phases."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size % 2:
        raise ValueError("DQPSK needs an even number of bits")
    pairs = arr.reshape(-1, 2)
    increments = _DQPSK_PHASE_LUT[2 * pairs[:, 0] + pairs[:, 1]]
    return phase0 + np.cumsum(increments)


@contracts.shapes("n -> n*11")
def _barker_chips(phases: np.ndarray) -> np.ndarray:
    """Spread one complex symbol per phase with Barker-11."""
    symbols = np.exp(1j * phases)
    return (symbols[:, None] * BARKER11[None, :]).ravel()


def _cck55_chips(bits: np.ndarray, phase0: float) -> tuple[np.ndarray, float]:
    """CCK 5.5 Mbps: 4 bits/symbol onto 8 complex chips.

    Returns the chip array and the final cumulative phi1 so successive
    calls stay differentially coherent.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size % 4:
        raise ValueError("CCK 5.5 needs a multiple of 4 bits")
    d = arr.reshape(-1, 4)
    # (d0, d1) differentially encode phi1; even/odd symbol parity
    # offset (pi on odd symbols) is omitted -- it cancels in our
    # differential receiver and does not affect the envelope.
    phi1 = phase0 + np.cumsum(_DQPSK_PHASE_LUT[2 * d[:, 0] + d[:, 1]])
    phi2 = np.pi / 2 + d[:, 2] * np.pi
    phi3 = np.zeros(d.shape[0])
    phi4 = d[:, 3] * np.pi
    chips = _cck_codewords(phi1, phi2, phi3, phi4).ravel()
    return chips, float(phi1[-1]) if phi1.size else phase0


def _cck11_chips(bits: np.ndarray, phase0: float) -> tuple[np.ndarray, float]:
    """CCK 11 Mbps: 8 bits/symbol onto 8 complex chips."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size % 8:
        raise ValueError("CCK 11 needs a multiple of 8 bits")
    d = arr.reshape(-1, 8)
    phi1 = phase0 + np.cumsum(_DQPSK_PHASE_LUT[2 * d[:, 0] + d[:, 1]])
    phi2 = _CCK11_QPSK_LUT[2 * d[:, 2] + d[:, 3]] + np.pi / 2
    phi3 = _CCK11_QPSK_LUT[2 * d[:, 4] + d[:, 5]]
    phi4 = _CCK11_QPSK_LUT[2 * d[:, 6] + d[:, 7]]
    chips = _cck_codewords(phi1, phi2, phi3, phi4).ravel()
    return chips, float(phi1[-1]) if phi1.size else phase0


@contracts.shapes("n ; n ; n ; n -> n,8")
def _cck_codewords(
    phi1: np.ndarray, phi2: np.ndarray, phi3: np.ndarray, phi4: np.ndarray
) -> np.ndarray:
    """8-chip CCK codewords for per-symbol phase arrays; shape (n, 8)."""
    phases = phi1[:, None] + np.stack([phi2, phi3, phi4], axis=1) @ _CCK_PHI_COEF.T
    return _CCK_CHIP_SIGN * np.exp(1j * phases)


def _cck_codeword(phi1: float, phi2: float, phi3: float, phi4: float) -> np.ndarray:
    """The 8-chip CCK codeword per 802.11-2016 equation 16-1."""
    return _cck_codewords(
        np.array([phi1]), np.array([phi2]), np.array([phi3]), np.array([phi4])
    )[0]


def _plcp_header_bits(rate_mbps: float, length_bytes: int) -> np.ndarray:
    """SIGNAL + SERVICE + LENGTH + CRC16 (48 bits, pre-scrambling)."""
    signal = bitlib.bits_from_int(_SIGNAL_BY_RATE[rate_mbps], 8)
    service = bitlib.bits_from_int(0x00, 8)
    duration_us = int(np.ceil(length_bytes * 8 / rate_mbps))
    length = bitlib.bits_from_int(duration_us, 16)
    head = np.concatenate([signal, service, length])
    crc = bitlib.crc16_80211b_plcp(head)
    return np.concatenate([head, crc])


# ----------------------------------------------------------------------
# modulator
# ----------------------------------------------------------------------
@lru_cache(maxsize=256)
def _cached_head(
    rate_mbps: float, n_psdu_bytes: int, seed: int, short_preamble: bool
) -> tuple[np.ndarray, float, int, int]:
    """Spread chips for the scrambled SYNC+SFD+PLCP header.

    Everything before the PSDU is fully determined by (rate, PSDU byte
    count, scrambler seed, preamble format), so traffic generators that
    vary only the payload reuse the ~144 us detection field instead of
    re-spreading it per packet.  Returns ``(head_chips, last_phase,
    scrambler_state_after_head, n_head_bits)``; the chips array is
    shared -- callers must not mutate it.
    """
    if short_preamble:
        sync = np.zeros(56, dtype=np.uint8)
        sfd = _SFD_SHORT
    else:
        sync = np.ones(128, dtype=np.uint8)
        sfd = _SFD_LONG
    header = _plcp_header_bits(rate_mbps, n_psdu_bytes)
    pre_scramble = np.concatenate([sync, sfd, header])
    head_bits = bitlib.scramble_80211b(pre_scramble, seed=seed)

    if short_preamble:
        # Short format: SYNC+SFD at 1 Mbps DBPSK, header at 2 Mbps DQPSK.
        n_sync = sync.size + sfd.size
        sync_phases = _dbpsk_phases(head_bits[:n_sync])
        hdr_phases = _dqpsk_phases(head_bits[n_sync:], phase0=sync_phases[-1])
        head_phases = np.concatenate([sync_phases, hdr_phases])
    else:
        head_phases = _dbpsk_phases(head_bits)
    head_chips = _barker_chips(head_phases)
    last_phase = float(head_phases[-1]) if head_phases.size else 0.0

    # The self-synchronizing scrambler register is the last 7 output
    # bits, most recent in bit 0 -- what the PSDU scramble resumes from.
    state_after = 0
    for k in range(7):
        state_after |= int(head_bits[-1 - k]) << k
    return head_chips, last_phase, state_after, pre_scramble.size


@contracts.dtypes(np.uint8)
def modulate(
    payload: bytes | np.ndarray,
    config: WifiBConfig | None = None,
    *,
    scrambled_domain: bool = False,
) -> Waveform:
    """Modulate a PSDU into an 802.11b complex-baseband waveform.

    ``payload`` may be bytes or a bit array.  With
    ``scrambled_domain=True`` the given bits are placed on air directly
    (post-scrambler domain) -- this is what overlay-modulation carrier
    crafting uses, because the tag operates on on-air symbols (see
    :mod:`repro.core.overlay`); the pre-scrambler payload that a
    commodity sender would be handed is recoverable via
    :func:`repro.phy.bits.descramble_80211b`.
    """
    perf.count("wifi_b.modulate")
    cfg = config or WifiBConfig()
    if isinstance(payload, (bytes, bytearray)):
        payload_bits = bitlib.bits_from_bytes(payload)
    else:
        payload_bits = np.asarray(payload, dtype=np.uint8)

    head_chips, last_phase, scr_state, n_head = _cached_head(
        cfg.rate_mbps, (payload_bits.size + 7) // 8, cfg.seed, cfg.short_preamble
    )

    if scrambled_domain:
        # The preamble+header stay scrambled normally; payload bits go
        # on air untouched.
        psdu_bits = payload_bits
    else:
        # Resume the self-synchronizing scrambler where the head's
        # register left off -- identical to scrambling the whole frame
        # in one pass.
        psdu_bits = bitlib.scramble_80211b(payload_bits, seed=scr_state)

    if cfg.rate_tenths == 10:
        psdu_phases = _dbpsk_phases(psdu_bits, phase0=last_phase)
        psdu_chips = _barker_chips(psdu_phases)
        chips_per_symbol = 11
    elif cfg.rate_tenths == 20:
        if psdu_bits.size % 2:
            psdu_bits = np.concatenate([psdu_bits, np.zeros(1, np.uint8)])
        psdu_phases = _dqpsk_phases(psdu_bits, phase0=last_phase)
        psdu_chips = _barker_chips(psdu_phases)
        chips_per_symbol = 11
    elif cfg.rate_tenths == 55:
        pad = (-psdu_bits.size) % 4
        if pad:
            psdu_bits = np.concatenate([psdu_bits, np.zeros(pad, np.uint8)])
        psdu_chips, _ = _cck55_chips(psdu_bits, phase0=last_phase)
        chips_per_symbol = 8
    else:  # CCK 11
        pad = (-psdu_bits.size) % 8
        if pad:
            psdu_bits = np.concatenate([psdu_bits, np.zeros(pad, np.uint8)])
        psdu_chips, _ = _cck11_chips(psdu_bits, phase0=last_phase)
        chips_per_symbol = 8

    chips = np.concatenate([head_chips, psdu_chips])
    taps = pulse.rrc_taps(0.5, cfg.samples_per_chip) if cfg.shaped else None
    iq = pulse.shape_chips(chips, cfg.samples_per_chip, taps)

    payload_start = head_chips.size * cfg.samples_per_chip
    return Waveform(
        iq=iq,
        sample_rate=cfg.sample_rate,
        annotations={
            "protocol": Protocol.WIFI_B,
            "rate_mbps": cfg.rate_mbps,
            "payload_start": payload_start,
            "samples_per_symbol": chips_per_symbol * cfg.samples_per_chip,
            "n_payload_symbols": psdu_chips.size // chips_per_symbol,
            "payload_bits": psdu_bits.copy(),
            "scrambler_seed": cfg.seed,
            "short_preamble": cfg.short_preamble,
            "n_head_bits": n_head,
            "scrambled_domain": scrambled_domain,
        },
    )


# ----------------------------------------------------------------------
# receiver
# ----------------------------------------------------------------------
@dataclass
class WifiBDecodeResult:
    """Receiver output: descrambled PSDU bits plus on-air symbol info."""

    payload_bits: np.ndarray
    onair_bits: np.ndarray
    header_ok: bool
    rate_mbps: float


@contracts.shapes("_ -> _,_")
def _symbol_matrix(iq: np.ndarray, sym_len: int, n_symbols: int, start: int) -> np.ndarray:
    """Consecutive symbol-length segments as rows, zero-padded at the end."""
    end = start + n_symbols * sym_len
    seg = iq[start:end]
    if seg.size < n_symbols * sym_len:
        seg = np.pad(seg, (0, n_symbols * sym_len - seg.size))
    return seg.reshape(n_symbols, sym_len)


@contracts.shapes("_ -> _")
def _despread_barker(iq: np.ndarray, sps: int, n_symbols: int, start: int) -> np.ndarray:
    """Correlate each 11-chip window with Barker; complex symbol values."""
    chip_kernel = np.repeat(BARKER11, sps) / (11 * sps)
    return _symbol_matrix(iq, 11 * sps, n_symbols, start) @ chip_kernel


@contracts.shapes("n -> n")
def _diff_bits(symbols: np.ndarray, prev: complex) -> np.ndarray:
    """DBPSK differential decision against the previous symbol."""
    ref = np.concatenate([[prev], symbols[:-1]])
    return (np.real(symbols * np.conj(ref)) < 0).astype(np.uint8)


@contracts.shapes("n -> n*2")
def _diff_dibits(symbols: np.ndarray, prev: complex) -> np.ndarray:
    """DQPSK differential decision; returns interleaved (d0, d1) bits."""
    ref = np.concatenate([[prev], symbols[:-1]])
    rot = symbols * np.conj(ref)
    phase = np.mod(np.angle(rot) + np.pi / 4, 2 * np.pi)
    quadrant = (phase // (np.pi / 2)).astype(int)  # 0,1,2,3 -> 0,90,180,270
    return _DQPSK_INV_LUT[quadrant].ravel()


def _build_cck_banks() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Candidate codeword banks (phi1 = 0) for the CCK searches.

    Bank rows are in the same nesting order the scalar search used, so
    first-``argmax`` reproduces its strictly-greater tie rule.  The
    paired bit tables give the data bits each row encodes.
    """
    cw55 = np.empty((4, 8), dtype=complex)
    bits55 = np.empty((4, 2), dtype=np.uint8)
    for d2 in (0, 1):
        for d3 in (0, 1):
            i = 2 * d2 + d3
            cw55[i] = _cck_codeword(0.0, _CCK55_PHI2[d2], 0.0, d3 * np.pi)
            bits55[i] = (d2, d3)

    dibits = list(_CCK11_QPSK.items())
    cw11 = np.empty((64, 8), dtype=complex)
    bits11 = np.empty((64, 6), dtype=np.uint8)
    i = 0
    for (d23, p2) in dibits:
        for (d45, p3) in dibits:
            for (d67, p4) in dibits:
                cw11[i] = _cck_codeword(0.0, p2 + np.pi / 2, p3, p4)
                bits11[i] = (*d23, *d45, *d67)
                i += 1
    return cw55, bits55, cw11, bits11


_CCK55_BANK, _CCK55_BITS, _CCK11_BANK, _CCK11_BITS = _build_cck_banks()


def _cck_decode(
    iq: np.ndarray,
    sps: int,
    n_symbols: int,
    start: int,
    prev: complex,
    bank: np.ndarray,
    bank_bits: np.ndarray,
) -> np.ndarray:
    """Differential-coherent CCK demodulation against a codeword bank.

    Correlates every symbol with every candidate codeword in one
    matmul, picks the best per symbol, then recovers the (d0, d1)
    dibit from the symbol-to-symbol phase of the winning correlations.
    """
    if n_symbols == 0:
        return np.zeros(0, dtype=np.uint8)
    chips = _symbol_matrix(iq, 8 * sps, n_symbols, start).reshape(n_symbols, 8, sps).mean(axis=2)
    corr = chips @ bank.conj().T  # (n_symbols, n_codewords)
    best = np.argmax(np.abs(corr), axis=1)
    corr_best = corr[np.arange(n_symbols), best]

    # phi1 recovered from the correlation phase, differentially.
    ref = np.concatenate([[prev], corr_best[:-1]])
    # Exact-zero guard (integer compare, R002): only a correlation that
    # is exactly zero has no usable phase reference.
    rot = corr_best * np.where(np.abs(ref) == 0, 1.0 + 0j, np.conj(ref))
    phase = np.mod(np.angle(rot) + np.pi / 4, 2 * np.pi)
    quadrant = (phase // (np.pi / 2)).astype(int)
    return np.hstack([_DQPSK_INV_LUT[quadrant], bank_bits[best]]).ravel()


def _cck11_decode(iq: np.ndarray, sps: int, n_symbols: int, start: int, prev: complex) -> np.ndarray:
    """Differential-coherent CCK 11 Mbps demodulation (64-way search)."""
    return _cck_decode(iq, sps, n_symbols, start, prev, _CCK11_BANK, _CCK11_BITS)


def _cck55_decode(iq: np.ndarray, sps: int, n_symbols: int, start: int, prev: complex) -> np.ndarray:
    """Differential-coherent CCK 5.5 demodulation."""
    return _cck_decode(iq, sps, n_symbols, start, prev, _CCK55_BANK, _CCK55_BITS)


def demodulate(
    wave: Waveform,
    *,
    n_payload_bits: int | None = None,
) -> WifiBDecodeResult:
    """Commodity-receiver demodulation of an 802.11b waveform.

    Uses the annotated frame timing (``payload_start``), as a hardware
    receiver would after preamble synchronization, then performs real
    despreading, differential decisions, and descrambling.  ``CRC``
    checking is intentionally absent: the paper disables NIC CRC so raw
    payload bits are delivered (§3 "the CRC functions of NICs are
    turned off").
    """
    perf.count("wifi_b.demodulate")
    ann = wave.annotations
    if ann.get("protocol") is not Protocol.WIFI_B:
        raise ValueError("waveform is not annotated as 802.11b")
    sps = ann["samples_per_symbol"] // (11 if ann["rate_mbps"] in (1.0, 2.0) else 8)
    rate = ann["rate_mbps"]
    payload_start = ann["payload_start"]
    short = ann.get("short_preamble", False)
    n_head_symbols = payload_start // (11 * sps)

    head_syms = _despread_barker(wave.iq, sps, n_head_symbols, 0)
    if short:
        # SYNC(56) + SFD(16) at DBPSK, then 24 DQPSK header symbols.
        n_sync = 72
        sync_bits = _diff_bits(head_syms[1:n_sync], head_syms[0])
        first_bit = np.uint8(np.real(head_syms[0]) < 0)
        hdr_bits = _diff_dibits(head_syms[n_sync:], head_syms[n_sync - 1])
        head_onair = np.concatenate([[first_bit], sync_bits, hdr_bits])
        sync_len = n_sync
    else:
        head_onair = _diff_bits(head_syms[1:], head_syms[0])
        first_bit = np.uint8(np.real(head_syms[0]) < 0)
        head_onair = np.concatenate([[first_bit], head_onair])
        sync_len = 144

    n_sym = ann["n_payload_symbols"]
    prev = head_syms[-1] if head_syms.size else 1.0 + 0j
    tenths = _rate_tenths(rate)
    if tenths == 10:
        syms = _despread_barker(wave.iq, sps, n_sym, payload_start)
        psdu_onair = _diff_bits(syms, prev)
    elif tenths == 20:
        syms = _despread_barker(wave.iq, sps, n_sym, payload_start)
        psdu_onair = _diff_dibits(syms, prev)
    elif tenths == 55:
        psdu_onair = _cck55_decode(wave.iq, sps, n_sym, payload_start, prev)
    else:
        psdu_onair = _cck11_decode(wave.iq, sps, n_sym, payload_start, prev)

    onair = np.concatenate([head_onair, psdu_onair])
    descrambled = bitlib.descramble_80211b(
        onair, seed=ann.get("scrambler_seed", 0x6C)
    )

    n_head_bits = head_onair.size
    header_bits = descrambled[sync_len:n_head_bits]
    header_ok = bool(
        header_bits.size == 48
        and np.array_equal(
            bitlib.crc16_80211b_plcp(header_bits[:32]), header_bits[32:48]
        )
    )
    signal = bitlib.int_from_bits(header_bits[:8]) if header_bits.size == 48 else 0
    decoded_rate = _RATE_BY_SIGNAL.get(signal, rate)

    payload_bits = descrambled[n_head_bits:]
    if n_payload_bits is not None:
        payload_bits = payload_bits[:n_payload_bits]
    return WifiBDecodeResult(
        payload_bits=payload_bits,
        onair_bits=psdu_onair,
        header_ok=header_ok,
        rate_mbps=decoded_rate,
    )


def demodulate_batch(
    waves: Sequence[Waveform],
    *,
    n_payload_bits: int | None = None,
) -> list[WifiBDecodeResult]:
    """:func:`demodulate` applied to each waveform, in input order.

    An empty batch raises ``ValueError``.
    """
    require_nonempty(waves, "wifi_b.demodulate_batch")
    return [demodulate(w, n_payload_bits=n_payload_bits) for w in waves]

