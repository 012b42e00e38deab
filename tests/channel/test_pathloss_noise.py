"""Tests for path loss, noise, and the composable channel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import Channel, awgn, noise_floor_dbm
from repro.channel.noise import complex_noise
from repro.channel import pathloss
from repro.phy.waveform import Waveform


class TestPathloss:
    def test_free_space_1m_2p4ghz(self):
        # Friis at 1 m, 2.4 GHz is ~40.05 dB.
        assert pathloss.free_space_path_loss_db(1.0) == pytest.approx(40.05, abs=0.1)

    def test_log_distance_matches_reference_at_d0(self):
        assert pathloss.log_distance_path_loss_db(1.0) == pytest.approx(
            pathloss.DEFAULT_PL0_DB
        )

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=30)
    def test_monotonic_in_distance(self, d):
        a = pathloss.log_distance_path_loss_db(d)
        b = pathloss.log_distance_path_loss_db(d * 2.0)
        assert b > a

    def test_exponent_slope(self):
        # 10x distance adds 10n dB.
        n = 1.8
        a = pathloss.log_distance_path_loss_db(1.0, exponent=n)
        b = pathloss.log_distance_path_loss_db(10.0, exponent=n)
        assert b - a == pytest.approx(10 * n)

    def test_db_gain_round_trip(self):
        assert pathloss.gain_to_db(pathloss.db_to_gain(-17.0)) == pytest.approx(-17.0)

    def test_dbm_mw_round_trip(self):
        assert pathloss.mw_to_dbm(pathloss.dbm_to_mw(-42.5)) == pytest.approx(-42.5)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            pathloss.wavelength(0)
        with pytest.raises(ValueError):
            pathloss.log_distance_path_loss_db(1.0, exponent=-1)


class TestNoise:
    def test_noise_floor_formula(self):
        # 2 MHz, NF 7: -174 + 63 + 7 = -104 dBm.
        assert noise_floor_dbm(2e6) == pytest.approx(-104.0, abs=0.05)

    def test_awgn_achieves_target_snr(self):
        rng = np.random.default_rng(0)
        wave = Waveform(np.ones(200_000, complex), 1e6)
        noisy = awgn(wave, snr_db=10.0, rng=rng)
        noise = noisy.iq - wave.iq
        measured = 10 * np.log10(wave.mean_power() / np.mean(np.abs(noise) ** 2))
        assert measured == pytest.approx(10.0, abs=0.2)

    def test_awgn_absolute_power(self):
        rng = np.random.default_rng(1)
        wave = Waveform.silence(200_000, 1e6)
        noisy = awgn(wave, noise_power_dbm=-20.0, rng=rng)
        measured = 10 * np.log10(noisy.mean_power())
        assert measured == pytest.approx(-20.0, abs=0.2)

    def test_requires_exactly_one_spec(self):
        wave = Waveform.silence(10, 1e6)
        with pytest.raises(ValueError):
            awgn(wave)
        with pytest.raises(ValueError):
            awgn(wave, snr_db=3.0, noise_power_dbm=-10.0)


_NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class TestNoiseRejectsBadNumbers:
    """NaN, +-inf and out-of-range inputs raise, naming the input (a NaN
    slips through a plain ``x <= 0`` check).  Every finite dB value is a
    legal SNR or noise power."""

    @pytest.mark.parametrize("bad", [*_NON_FINITE, 0.0, -1e6])
    def test_noise_floor_bandwidth(self, bad):
        with pytest.raises(ValueError, match="bandwidth_hz"):
            noise_floor_dbm(bad)

    @pytest.mark.parametrize("bad", [*_NON_FINITE, -1.0])
    def test_noise_floor_noise_figure(self, bad):
        with pytest.raises(ValueError, match="noise_figure_db"):
            noise_floor_dbm(2e6, bad)

    @pytest.mark.parametrize("bad", [*_NON_FINITE, -1e-3])
    def test_complex_noise_power(self, bad):
        with pytest.raises(ValueError, match="power_mw"):
            complex_noise(3, bad, np.random.default_rng(0))

    @pytest.mark.parametrize("field", ["snr_db", "noise_power_dbm"])
    @pytest.mark.parametrize("bad", _NON_FINITE)
    def test_awgn(self, field, bad):
        wave = Waveform(np.ones(10, complex), 1e6)
        with pytest.raises(ValueError, match=field):
            awgn(wave, rng=np.random.default_rng(0), **{field: bad})

    def test_zero_noise_power_is_legal(self):
        assert not complex_noise(3, 0.0, np.random.default_rng(0)).any()


class TestChannel:
    def test_gain_scales_power(self):
        wave = Waveform(np.ones(100, complex), 1e6)
        out = Channel(gain_db=-20.0).apply(wave)
        assert 10 * np.log10(out.mean_power()) == pytest.approx(-20.0)

    def test_delay_pads_front(self):
        wave = Waveform(np.ones(10, complex), 1e6, annotations={"payload_start": 2})
        out = Channel(delay_samples=5).apply(wave)
        assert out.n_samples == 15
        assert np.all(out.iq[:5] == 0)
        assert out.annotations["payload_start"] == 7

    def test_phase_rotation(self):
        wave = Waveform(np.ones(8, complex), 1e6)
        out = Channel(phase_rad=np.pi).apply(wave)
        assert np.allclose(out.iq, -1.0)

    def test_cfo_does_not_change_center_annotation(self):
        wave = Waveform(np.ones(100, complex), 1e6)
        out = Channel(cfo_hz=10e3).apply(wave)
        assert out.center_offset_hz == pytest.approx(0.0)
