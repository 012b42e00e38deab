"""Loopback tests for the 802.11n OFDM modem."""

import numpy as np
import pytest

from repro.phy import bits as bitlib
from repro.phy import wifi_n
from repro.phy.protocols import Protocol


class TestStructure:
    def test_preamble_layout(self):
        wave = wifi_n.modulate(b"\x00" * 13)
        # L-STF(160) + L-LTF(160) + L-SIG(80) + HT-SIG(160) +
        # HT-STF(80) + HT-LTF(80) = 720 samples = 36 us.
        assert wave.annotations["payload_start"] == 720
        assert wave.sample_rate == 20e6

    def test_lstf_is_periodic(self):
        wave = wifi_n.modulate(b"\x00" * 13)
        stf = wave.iq[:160]
        assert np.allclose(stf[:16], stf[16:32], atol=1e-9)
        assert np.allclose(stf[:16], stf[128:144], atol=1e-9)

    def test_symbol_count_matches_mcs(self):
        payload = b"\xab" * 26  # 208 bits + 16 service + 6 tail = 230
        w0 = wifi_n.modulate(payload, wifi_n.WifiNConfig(mcs=0))  # 26 b/sym
        w1 = wifi_n.modulate(payload, wifi_n.WifiNConfig(mcs=1))  # 52 b/sym
        assert w0.annotations["n_payload_symbols"] == 9   # ceil(230/26)
        assert w1.annotations["n_payload_symbols"] == 5   # ceil(230/52)

    def test_rejects_unknown_mcs(self):
        with pytest.raises(ValueError):
            wifi_n.WifiNConfig(mcs=8)

    def test_ofdm_envelope_fluctuates(self):
        # OFDM has high PAPR, unlike the constant-envelope protocols --
        # the property the tag's identification exploits (Fig 5a).
        wave = wifi_n.modulate(bytes(range(40)))
        env = np.abs(wave.iq)[wave.annotations["payload_start"]:]
        assert env.std() / env.mean() > 0.3


class TestLoopback:
    @pytest.mark.parametrize("mcs", [0, 1, 3])
    def test_clean_loopback(self, mcs):
        payload = bytes(range(39))
        wave = wifi_n.modulate(payload, wifi_n.WifiNConfig(mcs=mcs))
        result = wifi_n.demodulate(wave, n_psdu_bits=len(payload) * 8)
        assert bitlib.bytes_from_bits(result.payload_bits if hasattr(result, "payload_bits") else result.psdu_bits) == payload

    def test_loopback_with_noise(self):
        rng = np.random.default_rng(11)
        payload = bytes(range(26))
        wave = wifi_n.modulate(payload)
        wave.iq = wave.iq + 0.03 * (
            rng.normal(size=wave.n_samples) + 1j * rng.normal(size=wave.n_samples)
        )
        result = wifi_n.demodulate(wave, n_psdu_bits=len(payload) * 8)
        assert bitlib.bytes_from_bits(result.psdu_bits) == payload

    def test_loopback_with_channel_gain_and_phase(self):
        payload = b"\x5a" * 20
        wave = wifi_n.modulate(payload)
        wave.iq = wave.iq * (0.5 * np.exp(1j * 1.234))
        result = wifi_n.demodulate(wave, n_psdu_bits=len(payload) * 8)
        assert bitlib.bytes_from_bits(result.psdu_bits) == payload

    def test_symbol_bits_partition_data_stream(self):
        payload = bytes(range(20))
        wave = wifi_n.modulate(payload)
        result = wifi_n.demodulate(wave)
        joined = np.concatenate(result.symbol_bits)
        assert np.array_equal(joined, result.data_bits)
        assert all(b.size == 26 for b in result.symbol_bits)

    def test_custom_data_bits_path(self):
        # Craft the full data-bit stream (as the overlay layer does).
        stream = np.zeros(16 + 26 * 3, np.uint8)
        stream[16:42] = 1  # second OFDM symbol all ones
        wave = wifi_n.modulate(b"", data_bits=stream)
        result = wifi_n.demodulate(wave)
        assert np.array_equal(result.data_bits[: stream.size], stream)


class TestTagFlipSurvival:
    """Why the paper sets gamma=2 for 802.11n (Table 6).

    A pi flip inverts all 52 coded bits of an OFDM symbol.  For a
    single-symbol burst the ML Viterbi path is a sparse error pattern
    (cheaper than the complement path), so the tag bit would be
    unreliable; for a two-symbol (gamma=2) burst the complement path
    wins and the middle data bits invert cleanly -- which is what the
    paper's middle-half majority voting decodes.
    """

    def _flip_symbols(self, wave, symbols):
        start = wave.annotations["payload_start"]
        flipped = wave.copy()
        for sym in symbols:
            lo = start + sym * wifi_n.SYMBOL_LEN
            flipped.iq[lo : lo + wifi_n.SYMBOL_LEN] *= -1.0
        return flipped

    def _per_symbol_diff(self, clean, tagged):
        diff = clean.data_bits != tagged.data_bits
        return [
            diff[s * 26 : (s + 1) * 26].mean()
            for s in range(len(clean.symbol_bits))
        ]

    def test_gamma2_flip_complements_middle_bits(self):
        payload = np.zeros(26 * 8, np.uint8)
        wave = wifi_n.modulate(payload)
        flipped = self._flip_symbols(wave, [3, 4])

        clean = wifi_n.demodulate(wave)
        tagged = wifi_n.demodulate(flipped)
        per_symbol = self._per_symbol_diff(clean, tagged)
        # The flipped pair's bits complement strongly (middle half
        # completely), and distant symbols are untouched.
        assert (per_symbol[3] + per_symbol[4]) / 2 > 0.6
        assert per_symbol[0] < 0.2
        assert per_symbol[-1] < 0.2

    def test_single_symbol_flip_is_unreliable(self):
        # Documents the gamma=1 failure mode that motivates gamma=2.
        payload = np.zeros(26 * 8, np.uint8)
        wave = wifi_n.modulate(payload)
        flipped = self._flip_symbols(wave, [3])
        clean = wifi_n.demodulate(wave)
        tagged = wifi_n.demodulate(flipped)
        per_symbol = self._per_symbol_diff(clean, tagged)
        assert per_symbol[3] < 0.5

    def test_pilot_tracking_does_not_erase_flip(self):
        payload = np.zeros(26 * 8, np.uint8)
        wave = wifi_n.modulate(payload)
        flipped = self._flip_symbols(wave, [3, 4])
        tagged = wifi_n.demodulate(flipped)
        # CPE estimates stay small: the pi jump is not "corrected".
        assert np.all(np.abs(tagged.cpe_per_symbol) < 0.3)
