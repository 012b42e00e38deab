"""Tests for the throughput model, tag state machines, carrier
selection, and the FEC extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.carrier_select import CarrierSelector, diversity_timeline
from repro.core.fec import (
    hamming74_decode,
    hamming74_encode,
    repetition_decode,
    repetition_encode,
)
from repro.core.identification import DEFAULT_INCIDENT_DBM
from repro.core.overlay import Mode
from repro.core.tag import MultiscatterTag
from repro.core.throughput import OverlayThroughputModel, payload_symbols
from repro.phy.protocols import Protocol
from repro.sim.traffic import ExcitationSchedule, ExcitationSource, random_packet


class TestThroughputModel:
    def test_payload_symbols_per_protocol(self):
        assert payload_symbols(Protocol.WIFI_B, 300) == 2400
        assert payload_symbols(Protocol.BLE, 255) == 2040
        assert payload_symbols(Protocol.ZIGBEE, 127) == 254
        assert payload_symbols(Protocol.WIFI_N, 300) == 94

    def test_mode1_split_roughly_even(self):
        # Fig 12 mode 1: productive ~= tag throughput.
        for p in Protocol:
            model = OverlayThroughputModel(p, mode=Mode.MODE_1)
            point = model.evaluate(2.0)
            assert point.tag_kbps == pytest.approx(point.productive_kbps, rel=0.05)

    def test_mode2_triples_tag_share(self):
        for p in Protocol:
            model = OverlayThroughputModel(p, mode=Mode.MODE_2)
            point = model.evaluate(2.0)
            assert point.tag_kbps == pytest.approx(3 * point.productive_kbps, rel=0.1)

    def test_mode3_maximizes_tag_share(self):
        m1 = OverlayThroughputModel(Protocol.WIFI_B, mode=Mode.MODE_1).evaluate(2.0)
        m3 = OverlayThroughputModel(Protocol.WIFI_B, mode=Mode.MODE_3).evaluate(2.0)
        assert m3.tag_kbps > m1.tag_kbps
        assert m3.productive_kbps < 2.0  # ~1 bit per packet

    def test_fig12_aggregate_ordering(self):
        # BLE > 802.11b > 802.11n > ZigBee in mode-1 aggregate.
        agg = {
            p: OverlayThroughputModel(p, mode=Mode.MODE_1).evaluate(2.0).aggregate_kbps
            for p in Protocol
        }
        assert agg[Protocol.BLE] > agg[Protocol.WIFI_B] > agg[Protocol.WIFI_N] > agg[Protocol.ZIGBEE]

    def test_fig12_magnitudes(self):
        # Paper: 11b 219.8, ZigBee 26.2 kbps aggregates.
        b = OverlayThroughputModel(Protocol.WIFI_B, mode=Mode.MODE_1).evaluate(2.0)
        z = OverlayThroughputModel(Protocol.ZIGBEE, mode=Mode.MODE_1).evaluate(2.0)
        assert b.aggregate_kbps == pytest.approx(219.8, rel=0.1)
        assert z.aggregate_kbps == pytest.approx(26.2, rel=0.1)

    def test_throughput_collapses_past_max_range(self):
        model = OverlayThroughputModel(Protocol.BLE, mode=Mode.MODE_1)
        assert model.evaluate(30.0).aggregate_kbps < 0.05 * model.evaluate(2.0).aggregate_kbps

    def test_sweep_monotone_nonincreasing(self):
        model = OverlayThroughputModel(Protocol.ZIGBEE, mode=Mode.MODE_1)
        points = model.sweep(np.array([2.0, 10.0, 18.0, 26.0]))
        aggs = [p.aggregate_kbps for p in points]
        assert all(a >= b - 1e-9 for a, b in zip(aggs, aggs[1:]))


class TestTags:
    @pytest.fixture(scope="class")
    def tag(self):
        return MultiscatterTag()

    def test_multiscatter_reacts_to_all_protocols(self, tag):
        rng = np.random.default_rng(0)
        for p in Protocol:
            wave = random_packet(p, rng, n_payload_bytes=30)
            reaction = tag.react(wave, [1, 0, 1], rng=np.random.default_rng(1))
            # The tag backscatters exactly when it identified the packet.
            assert reaction.transmitted == (reaction.identified is p)

    def test_multiscatter_mostly_correct(self, tag):
        rng = np.random.default_rng(2)
        hits = 0
        n = 0
        for p in Protocol:
            for i in range(5):
                wave = random_packet(p, rng, n_payload_bytes=30)
                r = tag.react(wave, [1], rng=np.random.default_rng(50 + i))
                hits += r.identified is p
                n += 1
        assert hits / n > 0.7

    def test_misidentified_packet_is_not_backscattered(self, tag):
        # At the calibrated ZigBee power the tag sometimes takes a
        # ZigBee packet for 802.11b; it then stays silent.
        rng = np.random.default_rng(3)
        for seed in range(64):
            wave = random_packet(Protocol.ZIGBEE, rng, n_payload_bytes=10)
            r = tag.react(
                wave,
                [1, 1],
                incident_power_dbm=DEFAULT_INCIDENT_DBM[Protocol.ZIGBEE],
                rng=np.random.default_rng(seed),
            )
            if r.identified is not Protocol.ZIGBEE:
                break
        assert r.identified is not Protocol.ZIGBEE
        assert not r.transmitted
        assert r.tag_bits_sent.size == 0


class TestCarrierSelection:
    def test_picks_highest_goodput(self):
        selector = CarrierSelector()
        rates = {Protocol.WIFI_N: 2000.0, Protocol.WIFI_B: 50.0}
        best, estimates = selector.pick(rates, goal_kbps=6.3)
        assert best is Protocol.WIFI_N
        assert estimates[0].tag_goodput_kbps >= 6.3

    def test_spotty_carrier_fails_goal(self):
        # Fig 18b: spotty 802.11b cannot meet the 6.3 kbps goal.
        selector = CarrierSelector()
        est = selector.estimate(Protocol.WIFI_B, observed_rate_pkts=2.0)
        assert est.tag_goodput_kbps < 6.3

    def test_no_carrier_returns_none(self):
        selector = CarrierSelector()
        best, _ = selector.pick({Protocol.ZIGBEE: 1.0}, goal_kbps=50.0)
        assert best is None

    @pytest.mark.parametrize("goal", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_bad_goal_rejected(self, goal):
        # A NaN goal compared as met, so the best carrier was picked.
        with pytest.raises(ValueError, match="goal_kbps"):
            CarrierSelector().pick({Protocol.WIFI_N: 2000.0}, goal_kbps=goal)

    def test_diversity_timeline_multiscatter_covers_more(self):
        rng = np.random.default_rng(4)
        sources = [
            ExcitationSource(Protocol.WIFI_B, rate_pkts=200, duty_cycle=0.5,
                             period_s=0.4, phase_s=0.0),
            ExcitationSource(Protocol.WIFI_N, rate_pkts=200, duty_cycle=0.5,
                             period_s=0.4, phase_s=0.2),
        ]
        sched = ExcitationSchedule.generate(sources, duration_s=2.0, rng=rng)
        multi = diversity_timeline(sched, tag_protocols=tuple(Protocol))
        single = diversity_timeline(sched, tag_protocols=(Protocol.WIFI_N,))
        active_multi = np.mean(multi["tag_kbps"] > 0)
        active_single = np.mean(single["tag_kbps"] > 0)
        assert active_multi > 0.9
        assert active_single < 0.7


class TestFec:
    @given(st.lists(st.integers(0, 1), min_size=4, max_size=64))
    @settings(max_examples=30)
    def test_hamming_round_trip(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        decoded = hamming74_decode(hamming74_encode(arr))
        assert np.array_equal(decoded[: arr.size], arr)

    def test_hamming_corrects_single_error_per_block(self):
        data = np.array([1, 0, 1, 1, 0, 0, 1, 0], np.uint8)
        coded = hamming74_encode(data)
        for pos in range(7):
            corrupted = coded.copy()
            corrupted[pos] ^= 1
            assert np.array_equal(hamming74_decode(corrupted)[:8], data)

    def test_hamming_rejects_bad_length(self):
        with pytest.raises(ValueError):
            hamming74_decode(np.zeros(6, np.uint8))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=32),
           st.integers(1, 7))
    @settings(max_examples=30)
    def test_repetition_round_trip(self, bits, n):
        arr = np.array(bits, dtype=np.uint8)
        assert np.array_equal(repetition_decode(repetition_encode(arr, n), n), arr)

    def test_repetition_majority_fixes_minority_errors(self):
        coded = repetition_encode(np.array([1, 0], np.uint8), 5)
        coded[0] ^= 1  # one of five copies flipped
        coded[9] ^= 1
        assert np.array_equal(repetition_decode(coded, 5), [1, 0])
