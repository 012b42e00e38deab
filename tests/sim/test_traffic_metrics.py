"""Tests for excitation traffic generation and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.protocols import Protocol
from repro.sim.metrics import ber, confusion_table, format_table
from repro.sim.traffic import (
    ExcitationSchedule,
    ExcitationSource,
    packet_airtime_s,
    random_packet,
)


class TestRandomPacket:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_produces_annotated_waveform(self, protocol):
        wave = random_packet(protocol, np.random.default_rng(0), n_payload_bytes=20)
        assert wave.annotations["protocol"] is protocol
        assert wave.n_samples > 0

    def test_payloads_vary(self):
        rng = np.random.default_rng(1)
        a = random_packet(Protocol.BLE, rng, n_payload_bytes=20)
        b = random_packet(Protocol.BLE, rng, n_payload_bytes=20)
        assert not np.array_equal(a.iq, b.iq)


class TestAirtime:
    def test_80211b_long_preamble_overhead(self):
        # 192 us PLCP + payload at 1 Mbps.
        assert packet_airtime_s(Protocol.WIFI_B, 300) == pytest.approx(
            192e-6 + 2400e-6
        )

    def test_ble_small_overhead(self):
        assert packet_airtime_s(Protocol.BLE, 37) == pytest.approx(376e-6, rel=0.01)

    def test_zigbee_symbol_time(self):
        # 12 header symbols + 200 payload symbols at 16 us.
        assert packet_airtime_s(Protocol.ZIGBEE, 100) == pytest.approx(212 * 16e-6)

    def test_wifi_n_includes_preamble(self):
        t = packet_airtime_s(Protocol.WIFI_N, 300)
        assert t == pytest.approx(36e-6 + 94 * 4e-6)


class TestSources:
    def test_periodic_rate(self):
        rng = np.random.default_rng(2)
        src = ExcitationSource(Protocol.WIFI_N, rate_pkts=100)
        times = src.arrival_times(1.0, rng)
        assert times.size == pytest.approx(100, abs=2)

    def test_poisson_rate(self):
        rng = np.random.default_rng(3)
        src = ExcitationSource(Protocol.BLE, rate_pkts=70, periodic=False)
        times = src.arrival_times(10.0, rng)
        assert times.size == pytest.approx(700, rel=0.15)

    def test_duty_cycle_gates_arrivals(self):
        rng = np.random.default_rng(4)
        src = ExcitationSource(
            Protocol.WIFI_B, rate_pkts=1000, duty_cycle=0.5, period_s=0.2
        )
        times = src.arrival_times(2.0, rng)
        frac = ((times - src.phase_s) % 0.2) / 0.2
        assert np.all(frac < 0.5)
        assert times.size == pytest.approx(1000, rel=0.1)

    def test_default_rates_resolved(self):
        assert ExcitationSource(Protocol.ZIGBEE).resolved_rate() == 20.0


_NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class TestSourceRejectsBadNumbers:
    """NaN, +-inf and out-of-range settings fail at construction, naming
    the field: a NaN duty cycle or a zero or NaN period used to yield no
    packets, a negative payload size yielded packets, and an infinite
    rate raised a bare ZeroDivisionError."""

    @pytest.mark.parametrize(
        ("field", "bad"),
        [("rate_pkts", v) for v in (*_NON_FINITE, -1.0)]
        + [("n_payload_bytes", v) for v in (*_NON_FINITE, -4)]
        + [("duty_cycle", v) for v in (*_NON_FINITE, 1.5)]
        + [("period_s", v) for v in (*_NON_FINITE, 0.0)]
        + [("phase_s", v) for v in _NON_FINITE],
    )
    def test_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            ExcitationSource(Protocol.WIFI_B, **{field: bad})

    def test_zero_rate_is_a_silent_source(self):
        src = ExcitationSource(Protocol.WIFI_B, rate_pkts=0.0)
        assert src.arrival_times(1.0, np.random.default_rng(0)).size == 0


class TestSchedule:
    def _schedule(self, duration=0.5):
        rng = np.random.default_rng(5)
        sources = [
            ExcitationSource(Protocol.WIFI_N, rate_pkts=2000, n_payload_bytes=300),
            ExcitationSource(Protocol.BLE, rate_pkts=34, n_payload_bytes=37,
                             periodic=False),
        ]
        return ExcitationSchedule.generate(sources, duration, rng)

    @staticmethod
    def _count(sched, protocol):
        return sum(p.protocol is protocol for p in sched.packets)

    def test_counts(self):
        sched = self._schedule()
        assert self._count(sched, Protocol.WIFI_N) == pytest.approx(1000, abs=10)
        assert self._count(sched, Protocol.BLE) == pytest.approx(17, abs=10)

    def test_sorted_by_time(self):
        starts = [p.start_s for p in self._schedule().packets]
        assert starts == sorted(starts)


class TestMetrics:
    def test_ber_identical_is_zero(self):
        bits = np.array([1, 0, 1, 1], np.uint8)
        assert ber(bits, bits) == 0.0

    def test_ber_counts_missing_bits_as_errors(self):
        ref = np.array([1, 0, 1, 1], np.uint8)
        rec = np.array([1, 0], np.uint8)
        assert ber(ref, rec) == pytest.approx(0.5)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=50))
    @settings(max_examples=20)
    def test_ber_complement_is_one(self, bits):
        arr = np.array(bits, np.uint8)
        assert ber(arr, 1 - arr) == 1.0

    def test_confusion_table_renders(self):
        table = confusion_table({(Protocol.BLE, Protocol.BLE): 5})
        assert "BLE" in table and "5" in table

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1
