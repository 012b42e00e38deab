"""Tests for carrier-frequency-offset estimation and tolerance."""

import numpy as np
import pytest

from repro.channel import awgn
from repro.phy import ble, bits as bitlib, wifi_b, wifi_n, zigbee
from tests.phy.test_ble import sent_pdu


class TestWifiNCfo:
    @pytest.mark.parametrize("cfo", [0.0, 4e3, 37e3, 121e3, 310e3])
    def test_estimator_accuracy(self, cfo):
        wave = wifi_n.modulate(bytes(range(20)))
        wave.iq = wave.iq * np.exp(1.1j)
        impaired = wave.frequency_shifted(cfo)
        est = wifi_n.estimate_cfo(impaired)
        assert est == pytest.approx(cfo, abs=200.0)

    @pytest.mark.parametrize("cfo", [20e3, 150e3])
    def test_decode_under_cfo(self, cfo):
        payload = bytes(range(26))
        wave = wifi_n.modulate(payload)
        impaired = wave.frequency_shifted(cfo)
        result = wifi_n.demodulate(impaired, n_psdu_bits=len(payload) * 8)
        assert bitlib.bytes_from_bits(result.psdu_bits) == payload

    def test_decode_fails_without_correction(self):
        # A 100 kHz offset rotates ~144 deg per OFDM symbol: fatal
        # without the estimator -- proves the correction is live.
        payload = bytes(range(26))
        wave = wifi_n.modulate(payload)
        impaired = wave.frequency_shifted(100e3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wifi_n, "estimate_cfo", lambda wave: 0.0)
            result = wifi_n.demodulate(impaired, n_psdu_bits=len(payload) * 8)
        assert bitlib.bytes_from_bits(result.psdu_bits) != payload

    def test_estimator_with_noise(self):
        rng = np.random.default_rng(0)
        wave = wifi_n.modulate(bytes(range(20)))
        impaired = awgn(wave.frequency_shifted(55e3), snr_db=20.0, rng=rng)
        assert wifi_n.estimate_cfo(impaired) == pytest.approx(55e3, abs=2e3)


class TestBleCfo:
    @pytest.mark.parametrize("cfo", [0.0, 20e3, 80e3, 150e3])
    def test_decode_under_cfo(self, cfo):
        # BLE spec allows +-150 kHz carrier offset; preamble AFC
        # absorbs it.
        payload = bytes(range(14))
        wave = ble.modulate(payload)
        impaired = wave.frequency_shifted(cfo)
        result = ble.demodulate(impaired)
        assert np.array_equal(result.onair_bits, sent_pdu(payload))

    def test_large_cfo_would_break_without_afc(self):
        # At 150 kHz the discriminator DC offset (0.118 rad/sample at
        # 8 Msps) is comparable to the deviation (0.196): without AFC
        # decoding is marginal, with it it is clean -- sanity-check the
        # AFC contributes.
        payload = b"\x0f" * 10
        wave = ble.modulate(payload)
        impaired = wave.frequency_shifted(200e3)
        result = ble.demodulate(impaired)
        assert np.array_equal(result.onair_bits, sent_pdu(payload))


class TestDifferentialTolerance:
    def test_wifi_b_tolerates_small_cfo(self):
        # DBPSK/Barker is differential: a small CFO rotates adjacent
        # symbols by ~0.33 deg at 1 kHz -- decoding unaffected.
        payload = bytes(range(12))
        wave = wifi_b.modulate(payload)
        impaired = wave.frequency_shifted(5e3)
        result = wifi_b.demodulate(impaired, n_payload_bits=len(payload) * 8)
        assert bitlib.bytes_from_bits(result.payload_bits) == payload

    def test_zigbee_tolerates_small_cfo(self):
        payload = bytes(range(8))
        wave = zigbee.modulate(payload)
        impaired = wave.frequency_shifted(2e3)
        result = zigbee.demodulate(impaired)
        assert bitlib.bytes_from_bits(result.payload_bits) == payload
