"""The ``*_batch`` PHY entry points vs their single-packet kernels.

Each ``demodulate_batch`` and ``viterbi.decode_batch`` applies the
scalar kernel to every item in turn.  These tests pin what the wrapper
itself promises: results come back in input order (N=1 batches,
ragged payload lengths, randomized payload sets through noisy
channels), and an empty batch raises.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import ble, viterbi, wifi_b, wifi_n, zigbee
from tests import reference_impls as ref

PROTOCOL_MODULES = {
    "wifi_b": wifi_b,
    "wifi_n": wifi_n,
    "ble": ble,
    "zigbee": zigbee,
}


def _results_equal(a, b) -> bool:
    """Field-by-field equality for the protocol decode dataclasses."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, list):
            if len(x) != len(y) or any(
                not np.array_equal(u, v) for u, v in zip(x, y)
            ):
                return False
        elif isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not np.array_equal(np.asarray(x), np.asarray(y)):
                return False
        elif x != y:
            return False
    return True


def _noisy(waves, seed):
    """AWGN copies; deterministic so both call paths see one input."""
    rng = np.random.default_rng(seed)
    out = []
    for w in waves:
        sigma = 0.05 * float(np.sqrt(w.mean_power()))
        iq = w.iq + sigma * (
            rng.normal(size=w.n_samples) + 1j * rng.normal(size=w.n_samples)
        )
        noisy = dataclasses.replace(w, iq=iq, annotations=dict(w.annotations))
        out.append(noisy)
    return out


@pytest.mark.parametrize("name", sorted(PROTOCOL_MODULES))
class TestRoundtripBatchEqualsScalar:
    def test_single_packet_batch(self, name):
        mod = PROTOCOL_MODULES[name]
        wave = mod.modulate(bytes(range(8)))
        (got,) = mod.demodulate_batch(_noisy([wave], seed=3))
        want = mod.demodulate(_noisy([wave], seed=3)[0])
        assert _results_equal(got, want)

    def test_ragged_lengths_preserve_order(self, name):
        mod = PROTOCOL_MODULES[name]
        rng = np.random.default_rng(7)
        payloads = [
            rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            for size in (6, 4, 6, 9, 4)
        ]
        waves = [mod.modulate(p) for p in payloads]
        got = mod.demodulate_batch(_noisy(waves, seed=11))
        want = [mod.demodulate(w) for w in _noisy(waves, seed=11)]
        assert len(got) == len(want)
        for g, r in zip(got, want):
            assert _results_equal(g, r)

    def test_empty_batch_raises(self, name):
        mod = PROTOCOL_MODULES[name]
        with pytest.raises(ValueError, match="empty batch"):
            mod.demodulate_batch([])

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_random_payload_sets(self, name, data):
        mod = PROTOCOL_MODULES[name]
        n_packets = data.draw(st.integers(1, 4), label="n_packets")
        payloads = [
            bytes(
                data.draw(
                    st.lists(
                        st.integers(0, 255), min_size=2, max_size=10
                    ),
                    label=f"payload{i}",
                )
            )
            for i in range(n_packets)
        ]
        seed = data.draw(st.integers(0, 2**16), label="noise_seed")
        waves = [mod.modulate(p) for p in payloads]
        got = mod.demodulate_batch(_noisy(waves, seed))
        want = [mod.demodulate(w) for w in _noisy(waves, seed)]
        assert len(got) == len(want)
        for g, r in zip(got, want):
            assert _results_equal(g, r)


class TestViterbiBatch:
    def _noisy_stream(self, rng, n):
        info = rng.integers(0, 2, n).astype(np.uint8)
        coded = ref.convcode_encode(info)
        noisy = coded.copy()
        noisy[rng.random(noisy.size) < 0.05] ^= 1
        noisy[rng.random(noisy.size) < 0.05] = viterbi.ERASURE
        return noisy, n

    def test_batch_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        for n in (1, 3, 17, 130):
            streams = [self._noisy_stream(rng, n)[0] for _ in range(5)]
            got = viterbi.decode_batch(streams)
            want = [viterbi.decode(s) for s in streams]
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_single_stream_batch(self):
        rng = np.random.default_rng(8)
        noisy, _ = self._noisy_stream(rng, 40)
        (got,) = viterbi.decode_batch([noisy])
        assert np.array_equal(got, viterbi.decode(noisy))

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError, match="empty batch"):
            viterbi.decode_batch([])

    def test_ragged_batch_decodes_each_stream(self):
        rng = np.random.default_rng(9)
        streams = [self._noisy_stream(rng, n) for n in (40, 3, 17)]
        got = viterbi.decode_batch([coded for coded, _ in streams])
        want = [viterbi.decode(coded) for coded, _ in streams]
        assert [g.size for g in got] == [40, 3, 17]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
