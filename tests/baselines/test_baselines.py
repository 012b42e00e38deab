"""Tests for the Hitchhike / FreeRider two-receiver baselines."""

import numpy as np
import pytest

from repro.baselines import FreeRider, Hitchhike, TwoReceiverDecoder
from repro.channel.occlusion import Material


class TestTwoReceiverDecoder:
    def test_clean_channels_zero_ber(self):
        d = TwoReceiverDecoder(original_ber=0.0, backscatter_ber=0.0)
        assert d.tag_bit_error_rate() == 0.0

    def test_original_errors_leak_into_tag_ber(self):
        # The paper's central criticism: tag BER tracks the original
        # channel even with a perfect backscatter channel.
        d = TwoReceiverDecoder(original_ber=0.1, backscatter_ber=0.0)
        assert d.tag_bit_error_rate() == pytest.approx(0.1)

    def test_lost_originals_are_coin_flips(self):
        d = TwoReceiverDecoder(0.0, 0.0, original_loss_rate=1.0)
        assert d.tag_bit_error_rate() == pytest.approx(0.5)


class TestFig9:
    def test_ber_escalates_with_occlusion(self):
        rng = np.random.default_rng(4)
        hh = Hitchhike()
        bers = [hh.tag_ber(m, rng) for m in
                (Material.NONE, Material.WOOD, Material.CONCRETE)]
        assert bers[0] < 0.01
        assert bers[0] < bers[1] < bers[2]
        assert bers[2] > 0.3  # concrete is catastrophic (paper: 59%)

    def test_offsets_grow_with_distance(self):
        rng = np.random.default_rng(5)
        hh = Hitchhike()
        near = [hh.sample_offset(1.0, rng) for _ in range(300)]
        far = [hh.sample_offset(10.0, rng) for _ in range(300)]
        assert np.mean(far) > np.mean(near)
        assert max(far) <= 8  # Fig 9b: offsets as far as 8 symbols

    def test_freerider_aligns_better_than_hitchhike(self):
        rng = np.random.default_rng(6)
        assert FreeRider().offset_aligned_probability(
            8.0, rng
        ) > Hitchhike().offset_aligned_probability(8.0, rng)


class TestFig15:
    def test_drywall_throughputs_near_paper(self):
        rng = np.random.default_rng(7)
        hh = Hitchhike().tag_throughput_kbps(Material.DRYWALL, rng)
        fr = FreeRider().tag_throughput_kbps(Material.DRYWALL, rng)
        # Paper: Hitchhike 94 kbps, FreeRider 33 kbps.
        assert hh == pytest.approx(94.0, rel=0.35)
        assert fr == pytest.approx(33.0, rel=0.35)
        assert hh > fr

    def test_multiscatter_beats_both_under_occlusion(self):
        from repro.core.overlay import Mode
        from repro.core.throughput import OverlayThroughputModel
        from repro.phy.protocols import Protocol

        rng = np.random.default_rng(8)
        multi = OverlayThroughputModel(
            Protocol.WIFI_B, mode=Mode.MODE_1
        ).evaluate(2.0)
        hh = Hitchhike().tag_throughput_kbps(Material.DRYWALL, rng)
        # Multiscatter's tag throughput does not depend on the original
        # channel at all, so occluding it changes nothing.
        assert multi.tag_kbps > hh


class TestXTandem:
    def test_more_hops_lower_rssi(self):
        from repro.baselines import XTandem

        one = XTandem(n_hops=1)
        three = XTandem(n_hops=3)
        assert three.chain_rssi_dbm() < one.chain_rssi_dbm()

    def test_more_hops_higher_ber(self):
        from repro.baselines import XTandem

        assert XTandem(n_hops=4).backscatter_ber() >= XTandem(n_hops=1).backscatter_ber()

    def test_hop_capacity_shared(self):
        from repro.baselines import XTandem

        one = XTandem(n_hops=1)
        four = XTandem(n_hops=4)
        # Aggregate capacity is ~constant: the packet is shared.
        assert abs(four.tag_bits_per_packet() - one.tag_bits_per_packet()) <= 4

    def test_still_original_channel_dependent(self):
        import numpy as np

        from repro.baselines import XTandem
        from repro.channel.occlusion import Material

        rng = np.random.default_rng(0)
        xt = XTandem(n_hops=2, d_backscatter_m=1.0)
        clear = xt.tag_ber(Material.NONE, rng)
        concrete = xt.tag_ber(Material.CONCRETE, rng)
        assert concrete > clear + 0.2

    def test_two_hops_marginal_three_dead(self):
        from repro.baselines import XTandem

        # The geometric hop cost: each extra reflection multiplies in a
        # full path loss, so passive chains fall off a cliff.
        assert XTandem(n_hops=2, d_backscatter_m=1.0).backscatter_ber() < 0.01
        assert XTandem(n_hops=3, d_backscatter_m=1.0).backscatter_ber() > 0.4
