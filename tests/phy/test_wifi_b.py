"""Loopback tests for the 802.11b DSSS/CCK modem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import bits as bitlib
from repro.phy import wifi_b
from repro.phy.protocols import Protocol


def _loopback(payload: bytes, rate: float, shaped: bool = True) -> wifi_b.WifiBDecodeResult:
    cfg = wifi_b.WifiBConfig(rate_mbps=rate, shaped=shaped)
    wave = wifi_b.modulate(payload, cfg)
    return wifi_b.demodulate(wave, n_payload_bits=len(payload) * 8)


class TestModulate:
    def test_waveform_metadata(self):
        wave = wifi_b.modulate(b"\xaa" * 8)
        assert wave.annotations["protocol"] is Protocol.WIFI_B
        assert wave.sample_rate == 22e6
        # Long preamble + header = 192 symbols of 11 chips.
        assert wave.annotations["payload_start"] == 192 * 11 * 2

    def test_preamble_duration_144us_plus_header(self):
        wave = wifi_b.modulate(b"")
        # 192 us of preamble+header at 22 Msps.
        assert wave.annotations["payload_start"] / wave.sample_rate == pytest.approx(192e-6)

    def test_rate_affects_length(self):
        w1 = wifi_b.modulate(b"\x55" * 32, wifi_b.WifiBConfig(rate_mbps=1.0))
        w2 = wifi_b.modulate(b"\x55" * 32, wifi_b.WifiBConfig(rate_mbps=2.0))
        assert w2.n_samples < w1.n_samples

    def test_rejects_unsupported_rate(self):
        with pytest.raises(ValueError):
            wifi_b.WifiBConfig(rate_mbps=5.0)
        with pytest.raises(ValueError):
            # The short preamble excludes the 1 Mbps PSDU rate.
            wifi_b.WifiBConfig(rate_mbps=1.0, short_preamble=True)

    def test_near_constant_envelope_unshaped(self):
        wave = wifi_b.modulate(b"\x37" * 4, wifi_b.WifiBConfig(shaped=False))
        env = np.abs(wave.iq)
        assert env.min() == pytest.approx(env.max())


class TestLoopback:
    @pytest.mark.parametrize("rate", [1.0, 2.0, 5.5])
    def test_clean_loopback(self, rate):
        payload = bytes(range(24))
        result = _loopback(payload, rate)
        assert result.header_ok
        assert result.rate_mbps == rate
        assert bitlib.bytes_from_bits(result.payload_bits) == payload

    @pytest.mark.parametrize("rate", [1.0, 2.0, 5.5])
    def test_shaped_loopback(self, rate):
        payload = b"\x00\xff\xa5\x5a" * 4
        result = _loopback(payload, rate, shaped=True)
        assert bitlib.bytes_from_bits(result.payload_bits) == payload

    @given(st.binary(min_size=1, max_size=24))
    @settings(max_examples=15, deadline=None)
    def test_loopback_property(self, payload):
        result = _loopback(payload, 1.0)
        assert bitlib.bytes_from_bits(result.payload_bits) == payload

    def test_scrambled_domain_round_trip(self):
        onair = np.tile([1, 1, 1, 1, 0, 0, 0, 0], 8).astype(np.uint8)
        wave = wifi_b.modulate(onair, wifi_b.WifiBConfig(), scrambled_domain=True)
        result = wifi_b.demodulate(wave)
        # The on-air PSDU symbols are recovered exactly.
        assert np.array_equal(result.onair_bits[: onair.size], onair)
        # And re-scrambling the descrambled payload returns the on-air bits.
        rescrambled = bitlib.scramble_80211b(result.payload_bits)
        assert rescrambled.size == result.payload_bits.size


class TestNoiseRobustness:
    def test_loopback_with_mild_noise(self):
        rng = np.random.default_rng(7)
        payload = bytes(range(16))
        wave = wifi_b.modulate(payload)
        noisy = wave.copy()
        noisy.iq = noisy.iq + (
            rng.normal(scale=0.05, size=noisy.n_samples)
            + 1j * rng.normal(scale=0.05, size=noisy.n_samples)
        )
        result = wifi_b.demodulate(noisy, n_payload_bits=len(payload) * 8)
        assert bitlib.bytes_from_bits(result.payload_bits) == payload
