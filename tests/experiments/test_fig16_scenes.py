"""fig16's scene workers against the frozen serial loop.

``survival_rate`` builds its scenes on two worker threads while the
calling thread draws the packets and identifies the scenes, both in
trial order.  These tests hold it to the serial loop it replaced
(``ref.survival_rate``) and check that the pool never outlives a call.
"""

import itertools
import threading

import numpy as np
import pytest

from repro.core.identification import IdentificationConfig, ProtocolIdentifier
from repro.experiments import fig16_collisions
from repro.phy.protocols import Protocol
from tests import reference_impls as ref

#: fig16's ``survival_rate`` calls: victim and its power, interferer
#: (None: the clean baseline) and its power and payload bytes, frequency
#: and time offsets.  The 400 us interferer lands after the scene and is
#: never resampled.
CASES = [
    (Protocol.BLE, -31.2, Protocol.WIFI_N, -21.2, 300, -15e6, -50e-6),
    (Protocol.WIFI_N, -21.2, Protocol.BLE, -31.2, 37, 15e6, -50e-6),
    (Protocol.ZIGBEE, -31.2, Protocol.WIFI_N, -21.2, 300, 2e6, -50e-6),
    (Protocol.ZIGBEE, -31.2, Protocol.WIFI_N, -21.2, 300, 2e6, 400e-6),
    (Protocol.BLE, -31.2, None, 0.0, 300, -15e6, 0.0),
    (Protocol.WIFI_N, -21.2, None, 0.0, 300, 15e6, 0.0),
    (Protocol.ZIGBEE, -31.2, None, 0.0, 300, 2e6, 0.0),
]


class RecordingIdentifier:
    """fig16's identifier, recording every scene it is handed, the
    generator state it is handed with it, its decision and the thread
    it ran on."""

    def __init__(self) -> None:
        self.inner = ProtocolIdentifier(
            IdentificationConfig(
                sample_rate_hz=2.5e6, quantized=True, window_us=38.0, ordered=True
            )
        )
        self.seen = []

    def identify(self, scene, *, rng, prescaled):
        state = rng.bit_generator.state
        decision = self.inner.identify(scene, rng=rng, prescaled=prescaled)
        self.seen.append(
            (
                scene.iq.tobytes(),
                scene.sample_rate,
                scene.annotations,
                state,
                prescaled,
                decision,
                threading.current_thread(),
            )
        )
        return decision


def _run(survival_rate, case, n_trials, seed):
    victim, victim_dbm, interferer, interferer_dbm, n_bytes, freq_hz, time_s = case
    identifier = RecordingIdentifier()
    rng = np.random.default_rng(seed)
    rate = survival_rate(
        identifier, victim, victim_dbm, interferer, interferer_dbm,
        freq_offset_hz=freq_hz, time_offset_s=time_s,
        n_trials=n_trials, rng=rng, interferer_bytes=n_bytes,
    )
    return rate, identifier.seen, rng.bit_generator.state


class TestSerialEquivalence:
    @pytest.mark.parametrize("n_trials", [1, 2, 3, 5])
    @pytest.mark.parametrize("case", CASES)
    def test_same_scenes_seeds_and_decisions(self, case, n_trials):
        seed = CASES.index(case) * 10 + n_trials
        got = _run(fig16_collisions.survival_rate, case, n_trials, seed)
        want = _run(ref.survival_rate, case, n_trials, seed)
        assert len(got[1]) == len(want[1]) == n_trials
        for k, (g, w) in enumerate(zip(got[1], want[1])):
            assert g[:6] == w[:6], k
            assert g[3] == np.random.default_rng(7000 + k).bit_generator.state
            assert g[6] is threading.current_thread()  # identified by the caller
        assert got[0] == want[0]
        assert got[2] == want[2]  # rng ends in the same state


class TestScenePool:
    def _recording_builder(self, monkeypatch, fail_at=None):
        """Swap fig16's scene builder for one that records its threads
        and raises at call ``fail_at``."""
        threads = []
        calls = itertools.count()
        build = fig16_collisions.superimpose

        def recording(*args, **kwargs):
            threads.append(threading.current_thread())
            if next(calls) == fail_at:
                raise RuntimeError("scene build failed")
            return build(*args, **kwargs)

        monkeypatch.setattr(fig16_collisions, "superimpose", recording)
        return threads

    def test_no_scene_thread_outlives_run(self, monkeypatch):
        threads = self._recording_builder(monkeypatch)
        before = set(threading.enumerate())
        fig16_collisions.run(seed=0, n_trials=2)
        assert threads and threading.current_thread() not in threads
        assert not any(t.is_alive() for t in threads)
        assert set(threading.enumerate()) <= before

    def test_build_error_reaches_the_caller(self, monkeypatch):
        threads = self._recording_builder(monkeypatch, fail_at=1)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="scene build failed"):
            _run(fig16_collisions.survival_rate, CASES[2], 5, 0)
        assert len(threads) >= 2
        assert not any(t.is_alive() for t in threads)
        assert set(threading.enumerate()) <= before
