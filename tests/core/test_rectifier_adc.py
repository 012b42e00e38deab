"""Tests for the rectifier front ends and the tag ADC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adc import Adc
from repro.core.identification import IdentificationConfig, ProtocolIdentifier
from repro.core.matching import score_capture
from repro.core.rectifier import (
    BasicRectifier,
    ClampRectifier,
    RectifierOutput,
    WispRectifier,
    _diode_rc,
    incident_peak_voltage,
    recommended_tau,
)
from repro.core.templates import reference_waveform
from repro.phy import wifi_b
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform
from tests import reference_impls as ref


def _tone(n=2000, fs=22e6):
    return Waveform(np.ones(n, complex), fs)


class TestVoltageScale:
    def test_incident_voltage_increases_with_power(self):
        assert incident_peak_voltage(-10) > incident_peak_voltage(-20)

    def test_known_value(self):
        # -10 dBm = 0.1 mW -> sqrt(2 * 1e-4 * 50) = 0.1 V before boost.
        assert incident_peak_voltage(-10, matching_boost=1.0) == pytest.approx(0.1)

    def test_recommended_tau_between_bounds(self):
        tau = recommended_tau(2.4e9, 20e6)
        assert 1 / 2.4e9 < tau < 1 / 20e6

    def test_recommended_tau_rejects_bad_order(self):
        with pytest.raises(ValueError):
            recommended_tau(1e6, 2e6)


class TestRectifiers:
    def test_clamp_beats_basic_at_low_power(self):
        """Fig 4a: the clamp circuit produces usable output where the
        basic rectifier's diode never turns on."""
        basic = BasicRectifier(noise_v_rms=0.0)
        clamp = ClampRectifier(noise_v_rms=0.0)
        weak = -20.0
        assert clamp.output_for_constant_input(weak) > 0.0
        assert basic.output_for_constant_input(weak) == 0.0

    def test_wisp_output_higher_than_clamp(self):
        # Fig 4b: ours trades output voltage for bandwidth.
        wisp = WispRectifier(noise_v_rms=0.0)
        clamp = ClampRectifier(noise_v_rms=0.0)
        strong = 0.0
        assert wisp.output_for_constant_input(strong) > clamp.output_for_constant_input(strong)

    def test_wisp_smears_80211b_envelope(self):
        """Fig 4b: the WISP RC constant is tuned for RFID rates, so the
        11 Mchip/s DSSS envelope ripple is flattened; ours tracks it."""
        wave = wifi_b.modulate(b"\x5a" * 8)
        wisp = WispRectifier(noise_v_rms=0.0)
        ours = ClampRectifier(noise_v_rms=0.0)
        seg = slice(1000, 4000)
        out_wisp = wisp.rectify(wave, -10.0).voltage[seg]
        out_ours = ours.rectify(wave, -10.0).voltage[seg]
        ripple_wisp = out_wisp.std() / max(out_wisp.mean(), 1e-12)
        ripple_ours = out_ours.std() / max(out_ours.mean(), 1e-12)
        assert ripple_ours > 3 * ripple_wisp

    def test_output_scales_with_power(self):
        clamp = ClampRectifier(noise_v_rms=0.0)
        lo = clamp.rectify(_tone(), -20.0).voltage.mean()
        hi = clamp.rectify(_tone(), -10.0).voltage.mean()
        assert hi > lo > 0

    def test_noise_adds_variance(self):
        quiet = ClampRectifier(noise_v_rms=0.0).rectify(_tone(), -10.0)
        noisy = ClampRectifier(noise_v_rms=5e-3).rectify(
            _tone(), -10.0, rng=np.random.default_rng(0)
        )
        assert noisy.voltage.std() > quiet.voltage.std()

    def test_silence_gives_noise_only(self):
        clamp = ClampRectifier(noise_v_rms=1e-3)
        out = clamp.rectify(
            Waveform(np.zeros(500, complex), 22e6), -10.0, rng=np.random.default_rng(0)
        )
        assert abs(out.voltage.mean()) < 5e-4

    def test_fm_to_am_creates_ripple_on_constant_envelope(self):
        from repro.phy import ble

        wave = ble.modulate(b"\xb7\x55" * 4)
        clamp = ClampRectifier(noise_v_rms=0.0)
        out = clamp.rectify(wave, -10.0).voltage[200:-200]
        assert out.std() / out.mean() > 0.02


class TestAdc:
    def _analog(self, n=4000, fs=20e6, f_sig=100e3):
        t = np.arange(n) / fs
        v = 0.1 + 0.05 * np.sin(2 * np.pi * f_sig * t)
        return RectifierOutput(voltage=v, sample_rate=fs)

    def test_codes_within_range(self):
        cap = Adc(n_bits=9).capture(self._analog())
        assert cap.codes.min() >= 0
        assert cap.codes.max() <= 511

    def test_volts_round_trip(self):
        adc = Adc(n_bits=12, v_ref=0.5)
        cap = adc.capture(self._analog())
        # 12-bit quantization error is tiny at this scale.
        expected = adc._bandlimit(self._analog())
        assert np.abs(cap.volts()[100:500] - expected[100:500]).max() < 2e-3

    def test_downsampling_rate(self):
        analog = self._analog(n=20000)
        cap = Adc(sample_rate=2.5e6).capture(analog)
        assert cap.codes.size == pytest.approx(20000 / 8, abs=2)

    def test_vref_tuning_uses_more_codes(self):
        analog = self._analog()
        wide = Adc(v_ref=1.0).capture(analog)
        # §2.3 note 3: match v_ref to the input's full-scale range.
        tuned = Adc(v_ref=0.16).capture(analog)
        assert len(np.unique(tuned.codes)) > len(np.unique(wide.codes))

    def test_phase_offsets_sampling_grid(self):
        analog = self._analog()
        a = Adc(sample_rate=2e6, antialias=False).capture(analog, phase_s=0.0)
        b = Adc(sample_rate=2e6, antialias=False).capture(analog, phase_s=2.5e-7)
        assert not np.array_equal(a.codes, b.codes)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            Adc(sample_rate=0)
        with pytest.raises(ValueError):
            Adc(n_bits=0)
        with pytest.raises(ValueError):
            Adc(v_ref=-1.0)

    @given(st.integers(2, 12))
    @settings(max_examples=8, deadline=None)
    def test_more_bits_reduce_quantization_error(self, bits):
        analog = self._analog()
        adc_lo = Adc(n_bits=2, antialias=False)
        adc_hi = Adc(n_bits=bits, antialias=False)
        err_lo = np.abs(adc_lo.capture(analog).volts() - analog.voltage).mean()
        err_hi = np.abs(adc_hi.capture(analog).volts() - analog.voltage).mean()
        assert err_hi <= err_lo + 1e-9


class TestWindowedFrontEnd:
    """Rectifying and digitizing only the ADC's read window gives the
    head of the full-length result, and draws the same noise."""

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("power", [-20.0, None])
    def test_rectify_head_matches_full_trace(self, protocol, power):
        wave = reference_waveform(protocol, n_payload_bytes=16)
        if power is None:  # prescaled: the waveform is in antenna volts
            wave = wave.scaled(0.05)
        rect = ClampRectifier()
        window = Adc(sample_rate=2.5e6).samples_read(wave.sample_rate, 42e-6)
        for k in (1, 2, window, wave.n_samples - 1, wave.n_samples + 5):
            g1, g2 = np.random.default_rng(k), np.random.default_rng(k)
            head = rect.rectify(wave, power, rng=g1, n_samples=k).voltage
            full = rect.rectify(wave, power, rng=g2).voltage
            assert head.tobytes() == full[:k].tobytes()
            assert np.array_equal(g1.random(4), g2.random(4))

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("phase_s", [0.0, 1.7e-7])
    def test_capture_reads_only_its_window(self, protocol, phase_s):
        wave = reference_waveform(protocol, n_payload_bytes=16)
        analog = ClampRectifier().rectify(wave, -20.0, rng=np.random.default_rng(4))
        for adc in (Adc(sample_rate=2.5e6), Adc(sample_rate=10e6, n_bits=4)):
            duration_s = 105 / adc.sample_rate
            k = adc.samples_read(analog.sample_rate, duration_s, phase_s=phase_s)
            assert k < analog.voltage.size
            head = RectifierOutput(analog.voltage[:k], analog.sample_rate)
            full = adc.capture(analog, duration_s=duration_s, phase_s=phase_s).codes
            part = adc.capture(head, duration_s=duration_s, phase_s=phase_s).codes
            seed = ref.adc_capture_codes(adc, analog, duration_s=duration_s, phase_s=phase_s)
            assert full.tobytes() == part.tobytes() == seed.tobytes()

    @pytest.mark.parametrize("adc", [Adc(), Adc(sample_rate=2.5e6), Adc(antialias=False)])
    def test_full_capture_matches_seed(self, adc):
        analog = ClampRectifier().rectify(
            reference_waveform(Protocol.WIFI_B), -20.0, rng=np.random.default_rng(5)
        )
        got = adc.capture(analog, phase_s=3e-8).codes
        assert got.tobytes() == ref.adc_capture_codes(adc, analog, phase_s=3e-8).tobytes()

    @pytest.mark.parametrize("n_samples", [None, 40])
    def test_scores_match_full_trace_pipeline(self, n_samples):
        """``scores`` on its window, also for a packet shorter than the
        window, equals rectifying and digitizing the whole packet."""
        ident = ProtocolIdentifier(IdentificationConfig(sample_rate_hz=2.5e6, window_us=38.0))
        cfg = ident.config
        need = cfg.l_p + cfg.l_m + max(cfg.resolved_offsets()) + 2
        for protocol in Protocol:
            wave = reference_waveform(protocol, n_payload_bytes=16)
            wave = Waveform(wave.iq[:n_samples], wave.sample_rate)
            g1, g2 = np.random.default_rng(8), np.random.default_rng(8)
            got = ident.scores(wave, rng=g1)
            phase_s = float(g2.uniform(0.0, 1.0 / cfg.sample_rate_hz))
            analog = ident.rectifier.rectify(wave, cfg.incident_power_dbm, rng=g2)
            codes = ident.adc.capture(
                analog, duration_s=need / cfg.sample_rate_hz, phase_s=phase_s
            ).codes
            want = score_capture(
                codes, ident.bank, quantized=cfg.quantized, offsets=cfg.resolved_offsets()
            )
            assert got == want
            assert np.array_equal(g1.random(4), g2.random(4))


class TestDiodeKernel:
    """``_diode_rc`` in one pass over all blocks against the parent's
    loop over blocks, byte for byte."""

    @staticmethod
    def assert_same(v, fs, tau_s):
        got, want = _diode_rc(v, fs, tau_s), ref.diode_rc(v, fs, tau_s)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got is not v

    def test_random_traces(self):
        rng = np.random.default_rng(41)
        for _ in range(400):
            n = int(rng.integers(1, 3001))
            v = rng.uniform(0.0, 0.5, n)
            if rng.random() < 0.5:
                v *= rng.uniform(0.0, 1.0, n)  # a ragged envelope
            # Runs of zeros: the diode stays off and the cap discharges.
            for start in rng.integers(0, n, int(rng.integers(0, 4))):
                v[start : start + int(rng.integers(1, 200))] = 0.0
            fs = float(rng.uniform(2.5e6, 50e6))
            tau_s = float(rng.choice([recommended_tau(), 2e-8, 2e-6]))
            self.assert_same(v, fs, tau_s)

    @pytest.mark.parametrize("blocks", [1, 2, 6, 17])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_block_aligned_and_unaligned(self, blocks, extra):
        # The default constant at 20 Msps discharges in blocks of 54.
        n = max(54 * blocks + extra, 1)
        v = np.random.default_rng(n).uniform(0.0, 0.3, n)
        self.assert_same(v, 20e6, recommended_tau())
        self.assert_same(v, 50e6, recommended_tau())

    def test_fast_discharge_tracks_the_input(self):
        v = np.random.default_rng(2).uniform(0.0, 0.3, 300)
        assert 1.0 / (2.5e6 * recommended_tau()) > 25.0
        self.assert_same(v, 2.5e6, recommended_tau())
        assert _diode_rc(v, 2.5e6, recommended_tau()).tobytes() == v.tobytes()

    def test_empty_input(self):
        self.assert_same(np.zeros(0), 20e6, recommended_tau())


_NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class TestFrontEndRejectsBadNumbers:
    """NaN, +-inf and out-of-range settings fail where they are built,
    naming the field (a NaN slips through a plain ``x <= 0`` check)."""

    @pytest.mark.parametrize("cls", [BasicRectifier, ClampRectifier, WispRectifier])
    @pytest.mark.parametrize(
        ("field", "bad"),
        [("tau_s", v) for v in (*_NON_FINITE, 0.0, -1e-9)]
        + [("noise_v_rms", v) for v in (*_NON_FINITE, -1.0)],
    )
    def test_rectifier(self, cls, field, bad):
        with pytest.raises(ValueError, match=field):
            cls(**{field: bad})

    @pytest.mark.parametrize(
        ("field", "bad"),
        [("sample_rate", v) for v in (*_NON_FINITE, 0.0)]
        + [("v_ref", v) for v in (*_NON_FINITE, -1.0)]
        + [("n_bits", v) for v in (*_NON_FINITE, 0, 17)],
    )
    def test_adc(self, field, bad):
        with pytest.raises(ValueError, match=field):
            Adc(**{field: bad})
