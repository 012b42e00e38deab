"""Legacy 802.11a/g OFDM physical layer (non-HT, 20 MHz).

The paper's overlay modulation covers "the OFDM modulation that covers
802.11a/g/n/ac/ax" (footnote 5).  This module supplies the legacy
(48-data-subcarrier) format: L-STF + L-LTF + L-SIG followed by legacy
data symbols at 6-54 Mbps.  It shares the training fields, BCC,
constellation maps, and puncturing with :mod:`repro.phy.wifi_n` and
differs in the interleaver (16-column legacy form), subcarrier count,
and the SIGNAL-field rate encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import contracts
from repro.phy import bits as bitlib
from repro.phy import convcode, viterbi
from repro.phy.interleaver import deinterleave as legacy_deinterleave
from repro.phy.interleaver import interleave as legacy_interleave
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform
from repro.types import Hertz
from repro.phy.wifi_n import (
    LEGACY_DATA_CARRIERS,
    N_FFT,
    SYMBOL_LEN,
    _demap_symbols,
    _l_ltf,
    _l_sig,
    _l_stf,
    _map_bits,
    _modulate_symbols,
    _pilot_polarity,
    _receive_symbols,
)

__all__ = ["WifiAConfig", "modulate", "demodulate", "RATE_TABLE"]

SAMPLE_RATE = 20e6

#: rate (Mbps) -> (constellation, bits/subcarrier, coding rate, L-SIG
#: RATE bits) per 802.11-2016 Table 17-6.
RATE_TABLE = {
    6.0: ("BPSK", 1, "1/2", 0b1011),
    9.0: ("BPSK", 1, "3/4", 0b1111),
    12.0: ("QPSK", 2, "1/2", 0b1010),
    18.0: ("QPSK", 2, "3/4", 0b1110),
    24.0: ("16QAM", 4, "1/2", 0b1001),
    36.0: ("16QAM", 4, "3/4", 0b1101),
    48.0: ("64QAM", 6, "2/3", 0b1000),
    54.0: ("64QAM", 6, "3/4", 0b1100),
}

_RATE_FRACTION = {"1/2": (1, 2), "2/3": (2, 3), "3/4": (3, 4)}


@dataclass(frozen=True)
class WifiAConfig:
    """Modulator configuration: ``rate_mbps`` selects the legacy rate."""

    rate_mbps: float = 6.0
    scrambler_seed: int = 0x5D

    def __post_init__(self) -> None:
        if self.rate_mbps not in RATE_TABLE:
            raise ValueError(
                f"unsupported 802.11a/g rate {self.rate_mbps}; "
                f"supported: {sorted(RATE_TABLE)}"
            )

    @property
    def constellation(self) -> str:
        return RATE_TABLE[self.rate_mbps][0]

    @property
    def n_bpsc(self) -> int:
        return RATE_TABLE[self.rate_mbps][1]

    @property
    def coding_rate(self) -> str:
        return RATE_TABLE[self.rate_mbps][2]

    @property
    def n_cbps(self) -> int:
        return 48 * self.n_bpsc

    @property
    def n_dbps(self) -> int:
        num, den = _RATE_FRACTION[self.coding_rate]
        return self.n_cbps * num // den

    @property
    def sample_rate(self) -> Hertz:
        return SAMPLE_RATE


@contracts.dtypes(np.uint8)
def modulate(payload: bytes | np.ndarray, config: WifiAConfig | None = None) -> Waveform:
    """Modulate a PSDU into a legacy OFDM waveform."""
    cfg = config or WifiAConfig()
    if isinstance(payload, (bytes, bytearray)):
        psdu = bitlib.bits_from_bytes(payload)
    else:
        psdu = np.asarray(payload, dtype=np.uint8)
    stream = np.concatenate([np.zeros(16, np.uint8), psdu, np.zeros(6, np.uint8)])
    n_sym = max(1, int(np.ceil(stream.size / cfg.n_dbps)))
    pad = n_sym * cfg.n_dbps - stream.size
    stream = np.concatenate([stream, np.zeros(pad, np.uint8)])

    scrambled = bitlib.scramble_80211_frame(stream, seed=cfg.scrambler_seed)
    coded = convcode.puncture(convcode.encode(scrambled), cfg.coding_rate)

    inter = legacy_interleave(coded, n_cbps=cfg.n_cbps, n_bpsc=cfg.n_bpsc)
    points = _map_bits(inter, cfg.constellation)
    data = _modulate_symbols(
        points.reshape(n_sym, -1), LEGACY_DATA_CARRIERS, _pilot_polarity(n_sym, 1)
    )

    preamble = np.concatenate(
        [
            _l_stf(),
            _l_ltf(),
            _l_sig(RATE_TABLE[cfg.rate_mbps][3], max(1, psdu.size // 8)),
        ]
    )
    iq = np.concatenate([preamble, data])
    return Waveform(
        iq=iq,
        sample_rate=cfg.sample_rate,
        annotations={
            "protocol": Protocol.WIFI_N,  # same OFDM family for the tag
            "legacy_ofdm": True,
            "rate_mbps": cfg.rate_mbps,
            "payload_start": preamble.size,
            "samples_per_symbol": SYMBOL_LEN,
            "n_payload_symbols": n_sym,
            "n_stream_bits": stream.size,
            "scrambler_seed": cfg.scrambler_seed,
            "l_ltf_start": 160,
        },
    )


def demodulate(wave: Waveform, *, n_psdu_bits: int | None = None) -> np.ndarray:
    """Legacy OFDM receive chain; returns the PSDU bits.

    Channel estimation uses the L-LTF (the legacy training field), and
    the data path is :func:`repro.phy.wifi_n.demodulate`'s with the
    48-subcarrier mapping and the 16-column interleaver.
    """
    ann = wave.annotations
    if not ann.get("legacy_ofdm"):
        raise ValueError("waveform is not annotated as legacy OFDM")
    cfg = WifiAConfig(
        rate_mbps=ann["rate_mbps"], scrambler_seed=ann.get("scrambler_seed", 0x5D)
    )

    # Channel estimate from the first L-LTF body.
    from repro.phy.wifi_n import _L26

    start_ltf = ann["l_ltf_start"] + 32
    body = wave.iq[start_ltf : start_ltf + N_FFT]
    spec = np.fft.fft(body) * np.sqrt(52.0) / N_FFT
    h = np.ones(N_FFT, dtype=complex)
    for k in range(-26, 27):
        ref = _L26[k + 26]
        if ref != 0:
            h[k % N_FFT] = spec[k % N_FFT] / ref
    h = np.where(np.abs(h) < 1e-12, 1e-12, h)

    n_sym = ann["n_payload_symbols"]
    points, _ = _receive_symbols(
        wave.iq,
        ann["payload_start"],
        n_sym,
        h,
        LEGACY_DATA_CARRIERS,
        _pilot_polarity(n_sym, 1),
    )
    hard = _demap_symbols(points.ravel(), cfg.constellation)
    coded_stream = legacy_deinterleave(hard, n_cbps=cfg.n_cbps, n_bpsc=cfg.n_bpsc)
    coded_stream = convcode.depuncture(coded_stream, cfg.coding_rate)
    scrambled = viterbi.decode(coded_stream, n_info=ann["n_stream_bits"])
    n_padded = n_sym * cfg.n_dbps
    if scrambled.size < n_padded:
        scrambled = np.pad(scrambled, (0, n_padded - scrambled.size))
    data_bits = bitlib.scramble_80211_frame(scrambled, seed=cfg.scrambler_seed)[:n_padded]
    psdu = data_bits[16 : ann["n_stream_bits"] - 6]
    if n_psdu_bits is not None:
        psdu = psdu[:n_psdu_bits]
    return psdu
