"""Hitchhike model (Zhang et al., SenSys'16): 802.11b codeword
translation with two-receiver decoding.

Hitchhike flips one tag bit per 802.11b DSSS codeword (symbol), giving
high raw tag rates, but decoding XORs the streams of a receiver on the
original channel and one on the shifted channel.  The model reproduces
its two measured weaknesses (paper Fig 9): original-channel occlusion
feeding straight into tag BER, and per-packet modulation offsets
between the unsynchronized receivers.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.codeword import TwoReceiverDecoder
from repro.channel.link import PROTOCOL_LINK_DEFAULTS, BackscatterLink, ber_dbpsk
from repro.channel.occlusion import Material, OccludedChannel
from repro.phy.protocols import Protocol
from repro.sim.traffic import packet_airtime_s

__all__ = ["Hitchhike"]


class Hitchhike:
    """Two-receiver 802.11b backscatter baseline.

    The geometry follows the paper's occlusion experiments: the
    original-channel receiver sits ``d_original_m`` from the
    transmitter behind the (optional) obstruction; the backscatter
    receiver is ``d_backscatter_m`` from the tag with a clear path.
    ``original_margin_db`` is the clear-sky SNR margin of the original
    link above its decoding threshold -- occlusion eats into it.
    """

    protocol = Protocol.WIFI_B
    d_original_m = 8.0
    d_backscatter_m = 2.0
    original_margin_db = 4.0
    n_payload_bytes = 300
    #: Tag bits per PHY symbol (codeword translation: 1 per codeword).
    bits_per_symbol = 1.0
    #: Spread of the inter-receiver modulation offset, symbols per
    #: meter of range (Fig 9b: offsets grow to ~8 symbols).
    offset_spread_per_m = 0.42

    # ------------------------------------------------------------------
    # original channel quality
    # ------------------------------------------------------------------
    def original_channel(self, material: Material) -> OccludedChannel:
        return OccludedChannel(material)

    def _original_snr_db(self, loss_db: float) -> float:
        """Original-link SNR after the sampled occlusion loss.

        The clear-path link is provisioned ``original_margin_db`` above
        the DBPSK waterfall's knee, as a realistic marginal indoor
        deployment (the paper's walls are what push it under).
        """
        budget = PROTOCOL_LINK_DEFAULTS[self.protocol]
        knee_snr = 7.0 - budget.processing_gain_db  # Eb/N0 ~ 7 dB knee
        return knee_snr + self.original_margin_db - loss_db

    def original_packet_stats(
        self, material: Material, rng: np.random.Generator, n_packets: int = 200
    ) -> tuple[float, float]:
        """(mean BER of received packets, packet loss rate) of the
        original channel via Monte Carlo over shadowing."""
        chan = self.original_channel(material)
        budget = PROTOCOL_LINK_DEFAULTS[self.protocol]
        bers = []
        lost = 0
        n_bits = self.n_payload_bytes * 8
        for _ in range(n_packets):
            loss = chan.sample_loss_db(rng)
            snr = self._original_snr_db(loss)
            ebn0 = 10.0 ** ((snr + budget.processing_gain_db) / 10.0)
            ber = ber_dbpsk(ebn0)
            # Preamble miss: a deeply faded packet is not detected.
            if ber > 0.08:
                lost += 1
                continue
            bers.append(ber)
        loss_rate = lost / n_packets
        mean_ber = float(np.mean(bers)) if bers else 0.5
        return mean_ber, loss_rate

    # ------------------------------------------------------------------
    # backscatter channel quality
    # ------------------------------------------------------------------
    def backscatter_ber(self) -> float:
        link = BackscatterLink(PROTOCOL_LINK_DEFAULTS[self.protocol])
        return link.ber(self.d_backscatter_m)

    # ------------------------------------------------------------------
    # the two measured defects
    # ------------------------------------------------------------------
    def sample_offset(self, distance_m: float, rng: np.random.Generator) -> int:
        """Modulation offset (symbols) between the two receivers at a
        given range (Fig 9b): grows with distance, capped at 8."""
        spread = max(self.offset_spread_per_m * distance_m, 0.05)
        offset = int(round(abs(rng.normal(scale=spread))))
        return min(offset, 8)

    def offset_aligned_probability(self, distance_m: float, rng: np.random.Generator) -> float:
        """Fraction of 2,000 sampled packets whose offset happens to be
        zero."""
        n_samples = 2000
        hits = sum(
            1 for _ in range(n_samples) if self.sample_offset(distance_m, rng) == 0
        )
        return hits / n_samples

    def tag_ber(
        self,
        material: Material,
        rng: np.random.Generator,
        *,
        n_packets: int = 200,
    ) -> float:
        """Fig 9a: tag-data BER as a function of original-channel
        occlusion (perfect receiver alignment assumed)."""
        orig_ber, loss_rate = self.original_packet_stats(material, rng, n_packets)
        decoder = TwoReceiverDecoder(
            original_ber=orig_ber,
            backscatter_ber=self.backscatter_ber(),
            original_loss_rate=loss_rate,
        )
        return decoder.tag_bit_error_rate()

    # ------------------------------------------------------------------
    # throughput (Fig 15)
    # ------------------------------------------------------------------
    def tag_bits_per_packet(self) -> int:
        return int(self.n_payload_bytes * 8 * self.bits_per_symbol)

    def saturated_packet_rate(self) -> float:
        return 1.0 / (packet_airtime_s(self.protocol, self.n_payload_bytes) + 150e-6)

    def tag_throughput_kbps(
        self,
        material: Material,
        rng: np.random.Generator,
        *,
        n_packets: int = 500,
    ) -> float:
        """Delivered tag goodput with the original channel occluded
        (Fig 15): bits survive only when the original packet arrived,
        the two receivers happened to align, and the XOR was clean."""
        orig_ber, loss_rate = self.original_packet_stats(material, rng, n_packets)
        back_ber = self.backscatter_ber()
        decoder = TwoReceiverDecoder(
            original_ber=orig_ber,
            backscatter_ber=back_ber,
            original_loss_rate=0.0,  # loss handled as a rate factor
        )
        per_bit = decoder.tag_bit_error_rate()
        n_bits = self.tag_bits_per_packet()
        p_aligned = self.offset_aligned_probability(self.d_original_m, rng)
        rate = self.saturated_packet_rate()
        goodput = (
            n_bits
            * rate
            * (1.0 - loss_rate)
            * p_aligned
            * max(1.0 - 2.0 * per_bit, 0.0)
        )
        return goodput / 1e3