"""Tests for composite interference scenes."""

import numpy as np
import pytest

from repro.core.rectifier import incident_peak_voltage
from repro.phy.protocols import Protocol
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


class TestSeedEquivalence:
    """``superimpose`` against the seed, which scaled the whole victim
    and resampled through ``resample_poly``'s per-call filter design."""

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

    def test_interferers_straddle_the_elision_boundary(self):
        # numpy reuses the phasor temporary (and so swaps the complex
        # product's operands) from 16,384 complex128 samples on.
        rng = np.random.default_rng(0)
        sizes = {
            round(random_packet(p, rng, n_payload_bytes=n).duration_s * 50e6)
            for _, p, n, _, _ in FIG16_CASES
        }
        assert min(sizes) < 16_384 < max(sizes)
