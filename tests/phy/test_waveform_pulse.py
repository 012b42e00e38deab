"""Tests for the Waveform container and pulse-shaping helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import pulse
from repro.phy.waveform import Waveform


class TestWaveform:
    def _make(self, n=100, rate=1e6):
        rng = np.random.default_rng(0)
        iq = rng.normal(size=n) + 1j * rng.normal(size=n)
        return Waveform(iq, rate, annotations={"payload_start": 10})

    def test_duration(self):
        assert self._make(100, 1e6).duration_s == pytest.approx(100e-6)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros((2, 2)), 1e6)
        with pytest.raises(ValueError):
            Waveform(np.zeros(4), -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0])
    def test_rejects_bad_rates(self, bad):
        # NaN slips through a plain ``rate <= 0`` check.
        with pytest.raises(ValueError, match="sample_rate"):
            Waveform(np.zeros(4), bad)
        with pytest.raises(ValueError, match="new_rate_hz"):
            self._make().resampled(bad)

    def test_frequency_shift_moves_spectrum(self):
        n = 4096
        w = Waveform(np.ones(n, complex), 1e6)
        shifted = w.frequency_shifted(100e3)
        spec = np.abs(np.fft.fft(shifted.iq))
        peak_bin = np.argmax(spec)
        freq = np.fft.fftfreq(n, 1 / 1e6)[peak_bin]
        assert freq == pytest.approx(100e3, abs=500)
        assert shifted.center_offset_hz == pytest.approx(100e3)

    def test_frequency_shift_preserves_envelope(self):
        w = self._make()
        shifted = w.frequency_shifted(123e3)
        assert np.allclose(np.abs(shifted.iq), np.abs(w.iq))

    def test_padding_shifts_payload_start(self):
        w = self._make()
        padded = w.padded(before=25, after=5)
        assert padded.n_samples == w.n_samples + 30
        assert padded.annotations["payload_start"] == 35
        assert np.all(padded.iq[:25] == 0)

    def test_resample_halves_samples(self):
        w = self._make(n=1000, rate=2e6)
        down = w.resampled(1e6)
        assert down.n_samples == 500
        assert down.annotations["payload_start"] == 5

    def test_concatenate_requires_same_rate(self):
        a = self._make(rate=1e6)
        b = self._make(rate=2e6)
        with pytest.raises(ValueError):
            Waveform.concatenate([a, b])

    def test_concatenate_lengths(self):
        a, b = self._make(50), self._make(70)
        assert Waveform.concatenate([a, b]).n_samples == 120


class TestPulse:
    def test_gaussian_taps_normalized(self):
        taps = pulse.gaussian_taps(0.5, 8)
        assert taps.sum() == pytest.approx(1.0)
        assert np.argmax(taps) == taps.size // 2

    def test_gaussian_narrower_for_smaller_bt(self):
        wide = pulse.gaussian_taps(0.3, 8)
        narrow = pulse.gaussian_taps(0.8, 8)
        # Smaller BT -> more time-domain spread -> lower peak.
        assert wide.max() < narrow.max()

    def test_half_sine_peak_center(self):
        p = pulse.half_sine_pulse(8)
        assert p.size == 8
        assert p.max() <= 1.0
        assert np.argmax(p) in (3, 4)

    def test_rrc_unit_energy(self):
        taps = pulse.rrc_taps(0.5, 4)
        assert np.sum(taps**2) == pytest.approx(1.0)

    def test_rrc_nyquist_zero_isi(self):
        # Full raised cosine (rrc * rrc) crosses zero at symbol spacing.
        sps = 8
        taps = pulse.rrc_taps(0.35, sps, span=8)
        rc = np.convolve(taps, taps)
        center = rc.size // 2
        for k in range(1, 5):
            assert abs(rc[center + k * sps]) < 1e-2 * rc[center]

    @given(st.integers(1, 8))
    @settings(max_examples=8)
    def test_upsample_hold_length(self, sps):
        out = pulse.upsample_hold(np.array([1.0, -1.0]), sps)
        assert out.size == 2 * sps

    def test_shape_chips_hold_equals_repeat(self):
        chips = np.array([1, -1, 1])
        out = pulse.shape_chips(chips, 3)
        assert np.array_equal(out.real, np.repeat([1, -1, 1], 3))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            pulse.gaussian_taps(0, 8)
        with pytest.raises(ValueError):
            pulse.rrc_taps(1.5, 4)
        with pytest.raises(ValueError):
            pulse.half_sine_pulse(0)
