"""Dyadic backscatter link budget and analytic error-rate models.

The backscatter path is excitation radio -> tag -> receiver: the tag
re-radiates what it hears, so the received power stacks two path
losses plus the tag's backscatter (reflection/modulation) loss.  The
paper's Figs 13-14 sweep the tag-receiver distance with the
excitation radio 0.8 m from the tag; this module reproduces those
RSSI/BER/throughput curves analytically from SNR, with constants
calibrated once (DESIGN.md §5) so the LoS maximum ranges land near the
paper's 28 m (WiFi) / 22 m (ZigBee) / 20 m (BLE).

Error-rate models are the standard waterfall formulas per modulation
family (DBPSK+DSSS, coded OFDM-BPSK, noncoherent GFSK, 802.15.4
16-ary quasi-orthogonal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from repro.channel import pathloss
from repro.channel.noise import noise_floor_dbm
from repro.phy.protocols import Protocol
from repro.types import Bits, DbmPower, Decibels, Hertz, Meters, Ratio

__all__ = [
    "LinkBudget",
    "BackscatterLink",
    "PROTOCOL_LINK_DEFAULTS",
    "ber_dbpsk",
    "ber_coded_ofdm_bpsk",
    "ber_gfsk_noncoherent",
    "ber_802154",
]


# ----------------------------------------------------------------------
# error-rate waterfalls (input: Eb/N0 in linear units)
# ----------------------------------------------------------------------
def _q(x: np.ndarray | float) -> np.ndarray | float:
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def ber_dbpsk(ebn0_lin: float) -> float:
    """Differentially-coherent BPSK (802.11b 1 Mbps after despreading)."""
    return float(np.clip(0.5 * np.exp(-max(ebn0_lin, 0.0)), 0.0, 0.5))


def ber_coded_ofdm_bpsk(ebn0_lin: float) -> float:
    """BPSK with rate-1/2 K=7 BCC, hard decisions (802.11n MCS0).

    Modeled as uncoded BPSK shifted by an effective hard-decision
    coding gain of 3.8 dB.
    """
    eff = ebn0_lin * 10.0 ** (3.8 / 10.0)
    return float(np.clip(_q(np.sqrt(2.0 * eff)), 0.0, 0.5))


def ber_gfsk_noncoherent(ebn0_lin: float) -> float:
    """Noncoherent binary FSK with modulation index 0.5 (BLE LE 1M)."""
    return float(np.clip(0.5 * np.exp(-0.5 * max(ebn0_lin, 0.0)), 0.0, 0.5))


#: ``(k, (-1)^k C(16, k))`` for k = 2..16: the union bound's signed
#: binomials, computed once rather than on every call.
_SIGNED_COMB16 = tuple((k, (-1.0) ** k * special.comb(16, k)) for k in range(2, 17))


def ber_802154(ebn0_lin: float) -> float:
    """IEEE 802.15.4 O-QPSK/DSSS BER (16-ary quasi-orthogonal union
    bound, the standard closed form used in 802.15.4 analyses)."""
    snr = max(ebn0_lin, 0.0)
    total = 0.0
    for k, coef in _SIGNED_COMB16:
        total += coef * np.exp(20.0 * snr * (1.0 / k - 1.0))
    ber = (8.0 / 15.0) * (1.0 / 16.0) * total
    return float(np.clip(ber, 0.0, 0.5))


_BER_MODEL = {
    Protocol.WIFI_B: ber_dbpsk,
    Protocol.WIFI_N: ber_coded_ofdm_bpsk,
    Protocol.BLE: ber_gfsk_noncoherent,
    Protocol.ZIGBEE: ber_802154,
}


# ----------------------------------------------------------------------
# link budget
# ----------------------------------------------------------------------
#: Antenna gain of the excitation radio and of the receiver, dBi.
TX_GAIN_DBI = 3.0
RX_GAIN_DBI = 3.0

#: The tag's backscatter (reflection/modulation) loss, dB.
BACKSCATTER_LOSS_DB = 12.0

#: Excitation-to-tag distance of the paper's Figs 13-14, m.
D_TX_TAG_M = 0.8


@dataclass(frozen=True)
class LinkBudget:
    """Static RF parameters of one excitation protocol's link.

    ``calibration_offset_db`` absorbs unmodeled implementation margins
    (cable losses, imperfect matching, polarization) and is fit once so
    LoS ranges reproduce the paper; every other experiment inherits it
    unchanged.
    """

    protocol: Protocol
    tx_power_dbm: DbmPower
    bandwidth_hz: Hertz
    bit_rate_hz: Hertz
    calibration_offset_db: Decibels = 0.0

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        for name in ("bandwidth_hz", "bit_rate_hz"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("tx_power_dbm", "calibration_offset_db"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    @property
    def processing_gain_db(self) -> Decibels:
        """Bandwidth-to-bit-rate ratio (despreading gain)."""
        return float(10.0 * np.log10(self.bandwidth_hz / self.bit_rate_hz))


#: Calibrated per-protocol defaults (transmit powers follow the paper's
#: hardware: Atheros NIC + PA for WiFi, CC2540 for BLE, CC2530 for
#: ZigBee; offsets are fit to the Fig 13 LoS ranges).
PROTOCOL_LINK_DEFAULTS: dict[Protocol, LinkBudget] = {
    Protocol.WIFI_B: LinkBudget(
        protocol=Protocol.WIFI_B,
        tx_power_dbm=14.0,
        bandwidth_hz=22e6,
        bit_rate_hz=1e6,
        calibration_offset_db=-2.4,
    ),
    Protocol.WIFI_N: LinkBudget(
        protocol=Protocol.WIFI_N,
        tx_power_dbm=14.0,
        bandwidth_hz=20e6,
        bit_rate_hz=6.5e6,
        calibration_offset_db=0.8,
    ),
    Protocol.BLE: LinkBudget(
        protocol=Protocol.BLE,
        tx_power_dbm=4.0,
        bandwidth_hz=2e6,
        bit_rate_hz=1e6,
        calibration_offset_db=8.0,
    ),
    Protocol.ZIGBEE: LinkBudget(
        protocol=Protocol.ZIGBEE,
        tx_power_dbm=4.0,
        bandwidth_hz=2e6,
        bit_rate_hz=250e3,
        calibration_offset_db=-9.2,
    ),
}


class BackscatterLink:
    """End-to-end excitation -> tag -> receiver link.

    Parameters
    ----------
    budget:
        Protocol RF parameters (see :data:`PROTOCOL_LINK_DEFAULTS`).
    extra_loss_db:
        Additional one-way loss on the tag->receiver path (NLoS wall,
        Fig 14).

    The excitation radio is :data:`D_TX_TAG_M` from the tag, and both
    hops follow the calibrated log-distance path loss.
    """

    def __init__(self, budget: LinkBudget, *, extra_loss_db: float = 0.0) -> None:
        # Written so that NaN fails it.
        if not 0 <= extra_loss_db < math.inf:
            raise ValueError(f"extra_loss_db must be >= 0 and finite, got {extra_loss_db!r}")
        self.budget = budget
        self.extra_loss_db = extra_loss_db

    # -- power -----------------------------------------------------------
    def incident_power_dbm(self) -> DbmPower:
        """Excitation power arriving at the tag antenna (downlink)."""
        return (
            self.budget.tx_power_dbm
            + TX_GAIN_DBI
            - pathloss.log_distance_path_loss_db(D_TX_TAG_M)
        )

    def rssi_dbm(self, d_tag_rx_m: Meters) -> DbmPower:
        """Backscatter RSSI at the receiver, ``d_tag_rx_m`` from the tag."""
        return (
            self.incident_power_dbm()
            - BACKSCATTER_LOSS_DB
            - pathloss.log_distance_path_loss_db(d_tag_rx_m)
            + RX_GAIN_DBI
            - self.extra_loss_db
        )

    # -- quality ---------------------------------------------------------
    def snr_db(self, d_tag_rx_m: Meters) -> Decibels:
        """Effective decoding SNR: RSSI over the noise floor, shifted by
        the per-protocol calibration offset (receiver implementation
        margin; see DESIGN.md §5)."""
        b = self.budget
        return (
            self.rssi_dbm(d_tag_rx_m)
            + b.calibration_offset_db
            - noise_floor_dbm(b.bandwidth_hz)
        )

    def ebn0_db(self, d_tag_rx_m: Meters) -> Decibels:
        return self.snr_db(d_tag_rx_m) + self.budget.processing_gain_db

    def ber(self, d_tag_rx_m: Meters) -> Ratio:
        """Raw bit error rate of the backscattered stream."""
        ebn0 = 10.0 ** (self.ebn0_db(d_tag_rx_m) / 10.0)
        return _BER_MODEL[self.budget.protocol](ebn0)

    def per(self, d_tag_rx_m: Meters, n_bits: Bits) -> Ratio:
        """Packet error rate for an ``n_bits`` packet (iid bit errors)."""
        if n_bits <= 0:
            raise ValueError("n_bits must be positive")
        ber = self.ber(d_tag_rx_m)
        return float(1.0 - (1.0 - ber) ** n_bits)

    def max_range_m(self) -> float:
        """Largest distance, on a 0.1 m grid below 60 m, at which a
        1,000-bit packet's PER stays below one half."""
        distances = np.arange(0.1, 60.0, 0.1)
        last_good = 0.0
        for d in distances:
            if self.per(float(d), 1000) < 0.5:
                last_good = float(d)
            else:
                break
        return last_good
