"""Tests for soft-decision (LLR) OFDM decoding."""

import numpy as np
import pytest

from repro.channel.fading import MultipathChannel
from repro.phy import bits as bitlib
from repro.phy import convcode, viterbi, wifi_n


class TestSoftViterbi:
    def test_clean_round_trip(self):
        rng = np.random.default_rng(0)
        info = rng.integers(0, 2, 200).astype(np.uint8)
        coded = convcode.encode(info)
        llrs = 4.0 * (coded.astype(float) * 2.0 - 1.0)
        decoded = viterbi.decode_soft(llrs, n_info=info.size)
        assert np.array_equal(decoded, info)

    def test_weak_bits_get_overruled(self):
        # A corrupted bit with low confidence is fixed by the code;
        # hard decisions on the same stream would carry the error in.
        info = np.zeros(60, np.uint8)
        coded = convcode.encode(info).astype(float) * 2.0 - 1.0
        llrs = 4.0 * coded
        llrs[40] = +0.2  # wrong sign, weak
        decoded = viterbi.decode_soft(llrs, n_info=info.size)
        assert np.array_equal(decoded, info)

    def test_soft_depuncture_round_trip(self):
        rng = np.random.default_rng(1)
        info = rng.integers(0, 2, 200).astype(np.uint8)
        punct = convcode.puncture(convcode.encode(info), "3/4")
        llrs = 4.0 * (punct.astype(float) * 2.0 - 1.0)
        padded = convcode.depuncture_soft(llrs, "3/4")
        decoded = viterbi.decode_soft(padded, n_info=info.size)
        assert np.array_equal(decoded, info)

    def test_zero_llrs_decode_to_something(self):
        out = viterbi.decode_soft(np.zeros(40), n_info=20)
        assert out.size == 20


class TestSoftOfdm:
    def _errors(self, mcs, noise, soft, seed, n_trials=5):
        rng = np.random.default_rng(seed)
        payload = bytes(range(40))
        ref = bitlib.bits_from_bytes(payload)
        errors = 0
        for _ in range(n_trials):
            wave = wifi_n.modulate(payload, wifi_n.WifiNConfig(mcs=mcs))
            wave.iq = wave.iq + noise * (
                rng.normal(size=wave.n_samples) + 1j * rng.normal(size=wave.n_samples)
            )
            result = wifi_n.demodulate(wave, n_psdu_bits=ref.size, soft=soft)
            errors += int(np.count_nonzero(result.psdu_bits[: ref.size] != ref))
        return errors

    @pytest.mark.parametrize("mcs,noise", [(3, 0.20), (7, 0.055)])
    def test_soft_beats_hard(self, mcs, noise):
        hard = self._errors(mcs, noise, soft=False, seed=1)
        soft = self._errors(mcs, noise, soft=True, seed=1)
        assert soft < hard

    def test_soft_clean_loopback_all_mcs(self):
        payload = bytes(range(30))
        for mcs in range(8):
            wave = wifi_n.modulate(payload, wifi_n.WifiNConfig(mcs=mcs))
            result = wifi_n.demodulate(
                wave, n_psdu_bits=len(payload) * 8, soft=True
            )
            assert bitlib.bytes_from_bits(result.psdu_bits) == payload, mcs

    def test_csi_weighted_soft_makes_fewer_errors_than_hard_under_multipath(self):
        # Frequency-selective fading leaves some subcarriers weak;
        # CSI-weighted soft decoding discounts them.  At this noise hard
        # decisions err (190 bit errors over the four packets, and 9 at
        # 0.15) while soft decoding makes none; at 0.1 neither errs.
        rng = np.random.default_rng(2)
        payload = bytes(range(40))
        ref = bitlib.bits_from_bytes(payload)
        chan = MultipathChannel(rms_delay_spread_s=120e-9, seed=3)
        hard_err = soft_err = 0
        for _ in range(4):
            wave = wifi_n.modulate(payload, wifi_n.WifiNConfig(mcs=3))
            faded = chan.apply(wave)
            faded.iq = faded.iq + 0.2 * (
                rng.normal(size=faded.n_samples)
                + 1j * rng.normal(size=faded.n_samples)
            )
            hard = wifi_n.demodulate(faded, n_psdu_bits=ref.size)
            soft = wifi_n.demodulate(faded, n_psdu_bits=ref.size, soft=True)
            hard_err += int(np.count_nonzero(hard.psdu_bits[: ref.size] != ref))
            soft_err += int(np.count_nonzero(soft.psdu_bits[: ref.size] != ref))
        assert soft_err < hard_err
