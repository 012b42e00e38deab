"""Tests for path loss and noise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import awgn, noise_floor_dbm
from repro.channel import pathloss
from repro.phy.waveform import Waveform


class TestPathloss:
    def test_log_distance_matches_reference_at_d0(self):
        assert pathloss.log_distance_path_loss_db(1.0) == pytest.approx(
            pathloss.PL0_DB
        )

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=30)
    def test_monotonic_in_distance(self, d):
        a = pathloss.log_distance_path_loss_db(d)
        b = pathloss.log_distance_path_loss_db(d * 2.0)
        assert b > a

    def test_exponent_slope(self):
        # 10x distance adds 10n dB.
        a = pathloss.log_distance_path_loss_db(1.0)
        b = pathloss.log_distance_path_loss_db(10.0)
        assert b - a == pytest.approx(10 * pathloss.EXPONENT)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0, -1e-9])
    def test_rejects_bad_distance(self, bad):
        with pytest.raises(ValueError, match="distance_m"):
            pathloss.log_distance_path_loss_db(bad)

    def test_clamps_below_one_centimetre(self):
        at_cm = pathloss.log_distance_path_loss_db(0.01)
        assert pathloss.log_distance_path_loss_db(0.0) == at_cm
        assert pathloss.log_distance_path_loss_db(0.004) == at_cm


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



_NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class TestNoiseRejectsBadNumbers:
    """NaN, +-inf and out-of-range inputs raise, naming the input (a NaN
    slips through a plain ``x <= 0`` check).  An SNR beyond +-300 dB
    used to raise a bare ZeroDivisionError or OverflowError."""

    @pytest.mark.parametrize("bad", [*_NON_FINITE, 0.0, -1e6])
    def test_noise_floor_bandwidth(self, bad):
        with pytest.raises(ValueError, match="bandwidth_hz"):
            noise_floor_dbm(bad)

    @pytest.mark.parametrize("sample", [float("nan"), float("inf"), 1e200])
    def test_awgn_non_finite_mean_power(self, sample):
        """A waveform whose mean power is NaN or overflows to inf gets
        no noise power to draw with."""
        wave = Waveform(np.array([1.0, sample, 1.0], complex), 1e6)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="noise power"):
            awgn(wave, snr_db=10.0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("field", ["snr_db"])
    @pytest.mark.parametrize("bad", [*_NON_FINITE, -4000.0, 4000.0, 300.5])
    def test_awgn(self, field, bad):
        wave = Waveform(np.ones(10, complex), 1e6)
        with pytest.raises(ValueError, match=field):
            awgn(wave, rng=np.random.default_rng(0), **{field: bad})

    @pytest.mark.parametrize("field", ["snr_db"])
    @pytest.mark.parametrize("edge", [-300.0, 300.0])
    def test_awgn_limits_are_legal(self, field, edge):
        wave = Waveform(np.ones(10, complex), 1e6)
        noisy = awgn(wave, rng=np.random.default_rng(0), **{field: edge})
        assert np.isfinite(noisy.iq).all()

    def test_zero_noise_power_is_legal(self):
        wave = Waveform(np.zeros(3, complex), 1e6)
        noisy = awgn(wave, snr_db=10.0, rng=np.random.default_rng(0))
        assert not noisy.iq.any()

