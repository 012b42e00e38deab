"""Tests for the calibrated backscatter link budget (Figs 13-14 ranges)."""

from dataclasses import replace

import pytest

from repro.channel.link import (
    PROTOCOL_LINK_DEFAULTS,
    BackscatterLink,
    ber_802154,
    ber_coded_ofdm_bpsk,
    ber_dbpsk,
    ber_gfsk_noncoherent,
)
from repro.channel.occlusion import Material, OccludedChannel
from repro.phy.protocols import Protocol


def _link(protocol, **kwargs):
    return BackscatterLink(PROTOCOL_LINK_DEFAULTS[protocol], **kwargs)


class TestBerModels:
    @pytest.mark.parametrize(
        "model", [ber_dbpsk, ber_coded_ofdm_bpsk, ber_gfsk_noncoherent, ber_802154]
    )
    def test_monotone_decreasing(self, model):
        values = [model(10 ** (db / 10.0)) for db in range(-5, 20)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "model", [ber_dbpsk, ber_coded_ofdm_bpsk, ber_gfsk_noncoherent, ber_802154]
    )
    def test_bounded(self, model):
        assert 0.0 <= model(0.0) <= 0.5
        assert model(1e4) < 1e-9

    def test_dsss_zigbee_beats_gfsk_at_same_ebn0(self):
        # ZigBee's 16-ary DSSS is more robust per bit than noncoherent
        # GFSK -- the reason its backscatter outranges BLE in Fig 13.
        ebn0 = 10 ** (6.0 / 10.0)
        assert ber_802154(ebn0) < ber_gfsk_noncoherent(ebn0)


class TestCalibratedRanges:
    """The headline Fig 13a/14a numbers (calibrated; see DESIGN.md §5)."""

    def test_los_ranges_match_paper(self):
        assert _link(Protocol.WIFI_B).max_range_m() == pytest.approx(28.0, abs=1.5)
        assert _link(Protocol.WIFI_N).max_range_m() == pytest.approx(28.0, abs=1.5)
        assert _link(Protocol.ZIGBEE).max_range_m() == pytest.approx(22.0, abs=1.5)
        assert _link(Protocol.BLE).max_range_m() == pytest.approx(20.0, abs=1.5)

    def test_los_ordering(self):
        ranges = {p: _link(p).max_range_m() for p in Protocol}
        assert ranges[Protocol.WIFI_B] > ranges[Protocol.ZIGBEE] > ranges[Protocol.BLE]

    def test_nlos_shrinks_every_range(self):
        for p in Protocol:
            los = _link(p).max_range_m()
            nlos = _link(p, extra_loss_db=1.8).max_range_m()
            assert nlos < los

    def test_nlos_ranges_near_paper(self):
        # Paper Fig 14a: 22 / 18 / 16 m.
        assert _link(Protocol.WIFI_B, extra_loss_db=1.8).max_range_m() == pytest.approx(22.0, abs=2.0)
        assert _link(Protocol.ZIGBEE, extra_loss_db=1.8).max_range_m() == pytest.approx(18.0, abs=2.0)
        assert _link(Protocol.BLE, extra_loss_db=1.8).max_range_m() == pytest.approx(16.0, abs=2.0)


class TestLinkBehaviour:
    def test_rssi_decreases_with_distance(self):
        link = _link(Protocol.WIFI_B)
        assert link.rssi_dbm(2.0) > link.rssi_dbm(10.0) > link.rssi_dbm(25.0)

    def test_ber_increases_with_distance(self):
        link = _link(Protocol.BLE)
        assert link.ber(25.0) > link.ber(10.0) >= link.ber(1.0)

    def test_low_ber_within_16m(self):
        # Paper Fig 13b: all protocols keep low BER out to 16 m.
        for p in Protocol:
            assert _link(p).ber(16.0) < 0.05, p

    def test_per_monotone_in_bits(self):
        link = _link(Protocol.ZIGBEE)
        assert link.per(20.0, 2000) >= link.per(20.0, 100)

    def test_per_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            _link(Protocol.BLE).per(5.0, 0)

    def test_with_budget_override(self):
        budget = PROTOCOL_LINK_DEFAULTS[Protocol.WIFI_B]
        base = BackscatterLink(budget)
        louder = BackscatterLink(replace(budget, tx_power_dbm=30.0))
        assert louder.rssi_dbm(10.0) == pytest.approx(base.rssi_dbm(10.0) + 16.0)

    def test_zigbee_rssi_drops_below_m80_past_4m_nlos(self):
        # Paper §4.1.2 NLoS: ZigBee < -80 dBm beyond ~4 m.
        link = _link(Protocol.ZIGBEE, extra_loss_db=1.8)
        assert link.rssi_dbm(6.0) < -80.0


class TestOcclusion:
    def test_mean_loss_ordering(self):
        import numpy as np

        rng = np.random.default_rng(0)
        means = [
            np.mean([OccludedChannel(m).sample_loss_db(rng) for _ in range(2000)])
            for m in (Material.NONE, Material.DRYWALL, Material.WOOD, Material.CONCRETE)
        ]
        assert means == sorted(means)

    def test_sampled_loss_centered_on_mean(self):
        import numpy as np

        rng = np.random.default_rng(0)
        chan = OccludedChannel(Material.CONCRETE)
        samples = [chan.sample_loss_db(rng) for _ in range(2000)]
        # 13 dB mean penetration loss through concrete at 2.4 GHz.
        assert np.mean(samples) == pytest.approx(13.0, abs=0.5)

    def test_none_is_stable(self):
        import numpy as np

        rng = np.random.default_rng(0)
        chan = OccludedChannel(Material.NONE)
        samples = [chan.sample_loss_db(rng) for _ in range(500)]
        assert np.std(samples) < 1.0


_NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class TestLinkRejectsBadNumbers:
    """NaN, +-inf and out-of-range inputs fail where the link is built,
    naming the field: a NaN distance or loss used to make ``snr_db``
    NaN and ``max_range_m()`` a silent 0.0, and a zero bandwidth gave a
    processing gain of -inf."""

    @pytest.mark.parametrize(
        ("field", "bad"),
        [("bandwidth_hz", v) for v in (*_NON_FINITE, 0.0)]
        + [("bit_rate_hz", v) for v in (*_NON_FINITE, 0.0)]
        + [("backscatter_loss_db", v) for v in (*_NON_FINITE, -1.0)]
        + [("noise_figure_db", v) for v in (*_NON_FINITE, -1.0)]
        + [("tx_power_dbm", v) for v in _NON_FINITE]
        + [("tx_gain_dbi", v) for v in _NON_FINITE]
        + [("rx_gain_dbi", v) for v in _NON_FINITE]
        + [("calibration_offset_db", v) for v in _NON_FINITE],
    )
    def test_budget(self, field, bad):
        with pytest.raises(ValueError, match=field):
            replace(PROTOCOL_LINK_DEFAULTS[Protocol.BLE], **{field: bad})

    @pytest.mark.parametrize(
        ("field", "bad"),
        [("d_tx_tag_m", v) for v in (*_NON_FINITE, 0.0)]
        + [("exponent", v) for v in (*_NON_FINITE, -1.0)]
        + [("pl0_db", v) for v in (*_NON_FINITE, -1.0)]
        + [("extra_loss_db", v) for v in (*_NON_FINITE, -1.0)],
    )
    def test_link(self, field, bad):
        with pytest.raises(ValueError, match=field):
            _link(Protocol.BLE, **{field: bad})
