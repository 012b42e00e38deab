"""Tests for composite interference scenes."""

import tracemalloc

import numpy as np
import pytest

from repro.core.rectifier import incident_peak_voltage
from repro.phy.protocols import Protocol
from repro.phy.waveform import _ELIDE_SAMPLES, Waveform
from repro.sim.scene import superimpose
from repro.sim.traffic import random_packet
from tests import reference_impls as ref

#: fig16's scene shapes: victim, interferer, interferer payload bytes,
#: frequency and time offsets.  The victims carry 20 bytes.
FIG16_CASES = [
    (Protocol.BLE, Protocol.WIFI_N, 300, -15e6, -50e-6),
    (Protocol.BLE, Protocol.BLE, 20, -15e6, 0.0),
    (Protocol.WIFI_N, Protocol.BLE, 37, 15e6, -50e-6),
    (Protocol.WIFI_N, Protocol.WIFI_N, 20, 15e6, 0.0),
    (Protocol.ZIGBEE, Protocol.WIFI_N, 300, 2e6, -50e-6),
    (Protocol.ZIGBEE, Protocol.ZIGBEE, 20, 2e6, 0.0),
    (Protocol.ZIGBEE, Protocol.WIFI_N, 300, 2e6, 400e-6),
]


class TestSuperimpose:
    def _packets(self):
        rng = np.random.default_rng(0)
        v = random_packet(Protocol.BLE, rng, n_payload_bytes=10)
        i = random_packet(Protocol.WIFI_N, rng, n_payload_bytes=30)
        return v, i

    def test_scene_rate_and_duration(self):
        v, i = self._packets()
        scene = superimpose(v, -30.0, i, -20.0, freq_offset_hz=-15e6,
                            duration_s=60e-6, scene_rate_hz=50e6)
        assert scene.sample_rate == 50e6
        assert scene.n_samples == 3000

    def test_vanishing_interferer_preserves_victim_power(self):
        v, i = self._packets()
        alone = superimpose(v, -30.0, i, -120.0, freq_offset_hz=0.0,
                            duration_s=50e-6)
        expected_v = incident_peak_voltage(-30.0, matching_boost=1.0)
        measured = np.sqrt(np.mean(np.abs(alone.iq[100:1000]) ** 2))
        # GFSK is constant envelope: rms ~ the scaled amplitude.
        assert measured == pytest.approx(expected_v, rel=0.1)

    def test_interferer_adds_power(self):
        v, i = self._packets()
        quiet = superimpose(v, -30.0, i, -120.0, freq_offset_hz=-15e6,
                            time_offset_s=-20e-6, duration_s=50e-6)
        loud = superimpose(v, -30.0, i, -20.0, freq_offset_hz=-15e6,
                           time_offset_s=-20e-6, duration_s=50e-6)
        assert loud.mean_power() > 2 * quiet.mean_power()

    def test_time_offset_places_interferer(self):
        v, i = self._packets()
        late = superimpose(v, -60.0, i, -20.0, freq_offset_hz=0.0,
                           time_offset_s=30e-6, duration_s=60e-6)
        head = np.mean(np.abs(late.iq[: int(25e-6 * 50e6)]) ** 2)
        tail = np.mean(np.abs(late.iq[int(35e-6 * 50e6):]) ** 2)
        assert tail > 5 * head

    def test_annotations_follow_victim(self):
        v, i = self._packets()
        scene = superimpose(v, -30.0, i, -20.0, freq_offset_hz=2e6,
                            duration_s=50e-6)
        assert scene.annotations["protocol"] is Protocol.BLE


#: Time offsets of the interferer start, including ones off the 20 ns
#: scene grid and ones at and past the 90 us scene's end.
TIME_OFFSETS = [-400e-6, -120e-6, -50e-6, -50.02e-6, -1e-6, 0.0, 1e-6, 30e-6,
                89.9e-6, 90e-6, 400e-6]
FREQ_OFFSETS = [-15e6, 0.0, 2e6, 15e6]
#: Interferer kinds at 50 MHz: 20,600, 3,200, 18,800, 12,000, 41,625
#: and 17,600 samples, on both sides of ``_ELIDE_SAMPLES``.
INTERFERERS = [(Protocol.WIFI_N, 300), (Protocol.WIFI_N, 20), (Protocol.BLE, 37),
               (Protocol.BLE, 20), (Protocol.ZIGBEE, 20), (Protocol.WIFI_B, 20)]


def assert_scene_identical(*args, **kwargs):
    got, want = superimpose(*args, **kwargs), ref.superimpose(*args, **kwargs)
    assert got.iq.tobytes() == want.iq.tobytes(), kwargs
    assert got.annotations == want.annotations
    assert got.sample_rate == want.sample_rate


class TestSeedEquivalence:
    """``superimpose`` against the seed, which scaled and shifted both
    packets at full length and resampled through ``resample_poly``'s
    per-call filter design."""

    @pytest.mark.parametrize("case", FIG16_CASES)
    @pytest.mark.parametrize("interferer_dbm", [-21.2, -120.0])
    def test_fig16_scenes_byte_identical(self, case, interferer_dbm):
        victim, interferer, n_bytes, freq_offset_hz, time_offset_s = case
        rng = np.random.default_rng(n_bytes)
        for _ in range(2):
            v = random_packet(victim, rng, n_payload_bytes=20)
            i = random_packet(interferer, rng, n_payload_bytes=n_bytes)
            for duration_s in (90e-6, None):
                args = (v, -31.2, i, interferer_dbm)
                kwargs = dict(
                    freq_offset_hz=freq_offset_hz,
                    time_offset_s=time_offset_s,
                    duration_s=duration_s,
                )
                got, want = superimpose(*args, **kwargs), ref.superimpose(*args, **kwargs)
                assert got.iq.tobytes() == want.iq.tobytes()
                assert got.annotations == want.annotations == v.annotations
                assert got.sample_rate == want.sample_rate

    @pytest.mark.parametrize("time_offset_s", TIME_OFFSETS)
    def test_scene_grid(self, time_offset_s):
        # Four victims against six interferer kinds, rotated so each
        # frequency offset meets every victim and kind.
        rng = np.random.default_rng(TIME_OFFSETS.index(time_offset_s))
        victims = [random_packet(p, rng, n_payload_bytes=20) for p in Protocol]
        interferers = [random_packet(p, rng, n_payload_bytes=n) for p, n in INTERFERERS]
        for k, freq_offset_hz in enumerate(FREQ_OFFSETS):
            for j, interferer in enumerate(interferers):
                victim = victims[(j + k) % len(victims)]
                for dbm in (-21.2, -120.0):
                    assert_scene_identical(
                        victim, -31.2, interferer, dbm, freq_offset_hz=freq_offset_hz,
                        time_offset_s=time_offset_s, duration_s=90e-6,
                    )

    @pytest.mark.parametrize("n_samples", [_ELIDE_SAMPLES - 1, _ELIDE_SAMPLES,
                                           _ELIDE_SAMPLES + 1])
    def test_interferer_lengths_at_the_elision_switch(self, n_samples):
        # At the scene rate the resampler copies, so the interferer keeps
        # exactly ``n_samples`` samples; the kept span has to multiply in
        # the order NumPy chose for that full length.
        rng = np.random.default_rng(n_samples)
        victim = random_packet(Protocol.ZIGBEE, rng, n_payload_bytes=20)
        iq = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
        interferer = Waveform(iq, 50e6)
        for time_offset_s in (-200e-6, -50.02e-6, 0.0, 89.9e-6):
            for freq_offset_hz in (2e6, -15e6):
                assert_scene_identical(
                    victim, -31.2, interferer, -21.2, freq_offset_hz=freq_offset_hz,
                    time_offset_s=time_offset_s, duration_s=90e-6,
                )
        assert_scene_identical(victim, -31.2, interferer, -21.2, freq_offset_hz=2e6,
                               time_offset_s=-100e-6)

    def test_interferer_ending_before_the_scene(self):
        rng = np.random.default_rng(3)
        victim = random_packet(Protocol.BLE, rng, n_payload_bytes=20)
        short = random_packet(Protocol.WIFI_N, rng, n_payload_bytes=20)  # 64 us
        for time_offset_s in (-64e-6, -65e-6, -300e-6):
            assert_scene_identical(victim, -31.2, short, -21.2, freq_offset_hz=15e6,
                                   time_offset_s=time_offset_s, duration_s=90e-6)

    def test_partial_overlap_at_the_scene_end(self):
        rng = np.random.default_rng(4)
        victim = random_packet(Protocol.WIFI_N, rng, n_payload_bytes=20)
        interferer = random_packet(Protocol.BLE, rng, n_payload_bytes=37)
        for time_offset_s in (89.98e-6, 89.9e-6, 85e-6):
            for duration_s in (90e-6, None):
                assert_scene_identical(victim, -21.2, interferer, -31.2,
                                       freq_offset_hz=-15e6,
                                       time_offset_s=time_offset_s, duration_s=duration_s)

    def test_late_interferer_is_not_resampled(self, monkeypatch):
        rng = np.random.default_rng(5)
        victim = random_packet(Protocol.ZIGBEE, rng, n_payload_bytes=20)
        interferer = random_packet(Protocol.WIFI_N, rng, n_payload_bytes=300)
        resampled = []
        original = Waveform.resampled

        def counting(wave, rate):
            resampled.append(wave.annotations.get("protocol"))
            return original(wave, rate)

        monkeypatch.setattr(Waveform, "resampled", counting)
        scene = superimpose(victim, -31.2, interferer, -21.2, freq_offset_hz=2e6,
                            time_offset_s=400e-6, duration_s=90e-6)
        assert resampled == [Protocol.ZIGBEE]
        monkeypatch.undo()
        assert_scene_identical(victim, -31.2, interferer, -21.2, freq_offset_hz=2e6,
                               time_offset_s=400e-6, duration_s=90e-6)
        assert scene.iq.tobytes() == ref.superimpose(
            victim, -31.2, interferer, -21.2, freq_offset_hz=2e6,
            time_offset_s=400e-6, duration_s=90e-6).iq.tobytes()

    def test_interferers_straddle_the_elision_boundary(self):
        # numpy reuses the phasor temporary (and so swaps the complex
        # product's operands) from 16,384 complex128 samples on.
        rng = np.random.default_rng(0)
        sizes = {
            round(random_packet(p, rng, n_payload_bytes=n).duration_s * 50e6)
            for _, p, n, _, _ in FIG16_CASES
        }
        assert min(sizes) < 16_384 < max(sizes)


class TestSceneMemory:
    """fig16 builds two scenes at once, so each holds one full-length
    resample at a time: the victim's is freed before the interferer's is
    made."""

    def test_peak_below_two_and_a_half_resamples(self):
        # Two 20-byte ZigBee packets, the longest at the scene rate
        # (41,625 samples, 0.67 MB each).  Holding the victim's resample
        # through the interferer's peaked at 2.20 MB; without it, 1.53 MB.
        rng = np.random.default_rng(0)
        victim = random_packet(Protocol.ZIGBEE, rng, n_payload_bytes=20)
        interferer = random_packet(Protocol.ZIGBEE, rng, n_payload_bytes=20)
        largest = max(
            w.padded(before=64).resampled(50e6).iq.nbytes for w in (victim, interferer)
        )
        args = (victim, -31.2, interferer, -21.2)
        kwargs = dict(freq_offset_hz=2e6, duration_s=90e-6)
        superimpose(*args, **kwargs)  # the filter design is cached, not counted
        tracemalloc.start()
        try:
            superimpose(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * largest, (peak, largest)
