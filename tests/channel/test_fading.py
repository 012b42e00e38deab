"""Tests for the multipath model."""

import numpy as np
import pytest

from repro.channel.fading import MultipathChannel
from repro.phy import bits as bitlib
from repro.phy import wifi_n
from repro.phy.waveform import Waveform


class TestMultipath:
    def test_taps_unit_energy(self):
        chan = MultipathChannel(seed=3)
        taps = chan.taps(20e6)
        assert np.sum(np.abs(taps) ** 2) == pytest.approx(1.0, rel=1e-6)

    def test_taps_deterministic_per_seed(self):
        a = MultipathChannel(seed=4).taps(20e6)
        b = MultipathChannel(seed=4).taps(20e6)
        assert np.array_equal(a, b)
        c = MultipathChannel(seed=5).taps(20e6)
        assert not np.array_equal(a, c)

    def test_one_location_draws_the_same_taps_every_call(self):
        chan = MultipathChannel(seed=4)
        first = chan.taps(20e6)
        chan.taps(10e6)
        assert np.array_equal(chan.taps(20e6), first)

    def test_preserves_length(self):
        wave = Waveform(np.ones(500, complex), 20e6)
        out = MultipathChannel(seed=6).apply(wave)
        assert out.n_samples == 500

    def test_frequency_selectivity_grows_with_delay_spread(self):
        flat = MultipathChannel(rms_delay_spread_s=5e-9, seed=7)
        frequency_selective = MultipathChannel(rms_delay_spread_s=200e-9, seed=7)
        h_flat = np.abs(np.fft.fft(flat.taps(20e6), 64))
        h_sel = np.abs(np.fft.fft(frequency_selective.taps(20e6), 64))
        assert h_sel.std() > h_flat.std()

    def test_ofdm_equalizer_undoes_multipath(self):
        """The HT-LTF channel estimate must equalize a frequency-
        selective channel (the whole point of OFDM + per-frame
        training)."""
        payload = bytes(range(30))
        wave = wifi_n.modulate(payload)
        chan = MultipathChannel(rms_delay_spread_s=50e-9, seed=8)
        faded = chan.apply(wave)
        rng = np.random.default_rng(9)
        faded.iq = faded.iq + 0.01 * (
            rng.normal(size=faded.n_samples) + 1j * rng.normal(size=faded.n_samples)
        )
        result = wifi_n.demodulate(faded, n_psdu_bits=len(payload) * 8)
        assert bitlib.bytes_from_bits(result.psdu_bits) == payload

    def test_overlay_decoding_survives_multipath(self):
        """Tag flips ride through a multipath channel: the flip is a
        scalar on the whole symbol, so equalization preserves it."""
        from repro.core.overlay import Mode, OverlayCodec, OverlayConfig
        from repro.core.overlay_decoder import OverlayDecoder
        from repro.core.tag_modulation import TagModulator
        from repro.phy.protocols import Protocol

        rng = np.random.default_rng(10)
        codec = OverlayCodec(OverlayConfig.for_mode(Protocol.WIFI_N, Mode.MODE_1))
        prod = rng.integers(0, 2, 5).astype(np.uint8)
        carrier = codec.build_carrier(prod)
        _, cap = codec.capacity(carrier.annotations["n_payload_symbols"])
        tag_bits = rng.integers(0, 2, cap).astype(np.uint8)

        mod = TagModulator(codec, frequency_shift_hz=0.0)
        bs = mod.modulate(carrier, tag_bits)
        faded = MultipathChannel(rms_delay_spread_s=40e-9, seed=11).apply(bs)
        faded.annotations = dict(carrier.annotations)
        out = OverlayDecoder(codec).decode(faded)
        assert np.array_equal(out.productive_bits[: prod.size], prod)
        assert np.array_equal(out.tag_bits[: cap], tag_bits)
