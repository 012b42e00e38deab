"""Tests for overlay modulation: codec, tag modulation, single-receiver
decoding (paper §2.4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.overlay import Mode, OverlayCodec, OverlayConfig, DEFAULT_GAMMA
from repro.core.overlay_decoder import OverlayDecoder
from repro.core.tag_modulation import TagModulator
from repro.phy.protocols import Protocol


def _roundtrip(protocol, mode, prod_bits, tag_bits_fn, shift=10e6, rng=None,
               noise=0.0):
    """Carrier -> tag modulation -> shifted-channel RX -> decode."""
    cfg = OverlayConfig.for_mode(protocol, mode, payload_symbols=200)
    codec = OverlayCodec(cfg)
    wave = codec.build_carrier(prod_bits)
    n_sym = wave.annotations["n_payload_symbols"]
    _, cap = codec.capacity(n_sym)
    tag_bits = tag_bits_fn(cap)
    mod = TagModulator(codec, frequency_shift_hz=shift)
    bs = mod.modulate(wave, tag_bits)
    rx = mod.received_at_shifted_channel(bs)
    if noise > 0 and rng is not None:
        rx.iq = rx.iq + noise * (
            rng.normal(size=rx.n_samples) + 1j * rng.normal(size=rx.n_samples)
        )
    rx.annotations = dict(wave.annotations)
    out = OverlayDecoder(codec).decode(rx)
    return cfg, tag_bits, out


class TestConfig:
    def test_table6_mode_construction(self):
        # Table 6: mode 1 kappa = 2 gamma, mode 2 kappa = 4 gamma.
        for p in Protocol:
            g = DEFAULT_GAMMA[p]
            assert OverlayConfig.for_mode(p, Mode.MODE_1).kappa == 2 * g
            assert OverlayConfig.for_mode(p, Mode.MODE_2).kappa == 4 * g

    def test_mode3_spans_payload(self):
        cfg = OverlayConfig.for_mode(
            Protocol.WIFI_B, Mode.MODE_3, payload_symbols=240
        )
        # gamma * floor((l - 1) / gamma): one symbol of headroom.
        assert cfg.kappa == 236

    def test_mode3_requires_payload(self):
        with pytest.raises(ValueError):
            OverlayConfig.for_mode(Protocol.BLE, Mode.MODE_3)

    def test_mode1_is_one_to_one(self):
        # "the number of reference symbols is the same as that of
        # modulatable symbols" -> equal productive and tag bits (each
        # sequence carries one productive bit, on its reference symbol).
        for p in Protocol:
            cfg = OverlayConfig.for_mode(p, Mode.MODE_1)
            assert cfg.tag_bits_per_sequence == 1

    def test_mode2_is_three_to_one(self):
        for p in Protocol:
            cfg = OverlayConfig.for_mode(p, Mode.MODE_2)
            assert cfg.tag_bits_per_sequence == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            OverlayConfig(Protocol.BLE, kappa=4, gamma=0)
        with pytest.raises(ValueError):
            OverlayConfig(Protocol.BLE, kappa=1, gamma=1)
        with pytest.raises(ValueError):
            OverlayConfig(Protocol.BLE, kappa=4, gamma=4)


class TestCleanRoundTrip:
    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("mode", [Mode.MODE_1, Mode.MODE_2])
    def test_both_streams_recovered(self, protocol, mode):
        rng = np.random.default_rng(3)
        prod = rng.integers(0, 2, 5).astype(np.uint8)
        cfg, tag_bits, out = _roundtrip(
            protocol, mode, prod, lambda cap: rng.integers(0, 2, cap).astype(np.uint8)
        )
        assert np.array_equal(out.productive_bits[: prod.size], prod)
        assert np.array_equal(out.tag_bits[: tag_bits.size], tag_bits)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_all_ones_and_all_zeros_tag_data(self, protocol):
        rng = np.random.default_rng(4)
        prod = rng.integers(0, 2, 4).astype(np.uint8)
        for fill in (0, 1):
            _, tag_bits, out = _roundtrip(
                protocol, Mode.MODE_1, prod,
                lambda cap: np.full(cap, fill, np.uint8),
            )
            assert np.array_equal(out.tag_bits[: tag_bits.size], tag_bits)

    def test_mode3_single_productive_bit(self):
        rng = np.random.default_rng(5)
        cfg = OverlayConfig.for_mode(
            Protocol.WIFI_B, Mode.MODE_3, payload_symbols=120
        )
        codec = OverlayCodec(cfg)
        wave = codec.build_carrier(np.array([1], np.uint8))
        n_sym = wave.annotations["n_payload_symbols"]
        n_prod, n_tag = codec.capacity(n_sym)
        assert n_prod == 1
        assert n_tag == (cfg.kappa - 1) // cfg.gamma
        tag_bits = rng.integers(0, 2, n_tag).astype(np.uint8)
        mod = TagModulator(codec)
        rx = mod.received_at_shifted_channel(mod.modulate(wave, tag_bits))
        rx.annotations = dict(wave.annotations)
        out = OverlayDecoder(codec).decode(rx)
        assert out.productive_bits[0] == 1
        assert np.array_equal(out.tag_bits, tag_bits)

    def test_noisy_roundtrip_survives(self):
        rng = np.random.default_rng(6)
        prod = rng.integers(0, 2, 5).astype(np.uint8)
        _, tag_bits, out = _roundtrip(
            Protocol.WIFI_B, Mode.MODE_1, prod,
            lambda cap: rng.integers(0, 2, cap).astype(np.uint8),
            rng=rng, noise=0.05,
        )
        assert np.array_equal(out.tag_bits[: tag_bits.size], tag_bits)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_property_ble(self, seed):
        rng = np.random.default_rng(seed)
        prod = rng.integers(0, 2, 4).astype(np.uint8)
        _, tag_bits, out = _roundtrip(
            Protocol.BLE, Mode.MODE_1, prod,
            lambda cap: rng.integers(0, 2, cap).astype(np.uint8),
        )
        assert np.array_equal(out.productive_bits[: prod.size], prod)
        assert np.array_equal(out.tag_bits[: tag_bits.size], tag_bits)


class TestFrequencyShift:
    def test_shift_moves_the_packet_and_retune_undoes_it(self):
        codec = OverlayCodec(OverlayConfig.for_mode(Protocol.BLE, Mode.MODE_1))
        wave = codec.build_carrier(np.array([1, 0], np.uint8))
        bits = np.array([1], np.uint8)
        mod = TagModulator(codec, frequency_shift_hz=10e6)
        unshifted = TagModulator(codec, frequency_shift_hz=0.0).modulate(wave, bits)
        bs = mod.modulate(wave, bits)
        t = np.arange(bs.n_samples) / bs.sample_rate
        assert np.allclose(bs.iq, unshifted.iq * np.exp(2j * np.pi * 10e6 * t))
        back = mod.received_at_shifted_channel(bs)
        assert np.allclose(back.iq, unshifted.iq, atol=1e-9)

    def test_protocol_mismatch_rejected(self):
        codec = OverlayCodec(OverlayConfig.for_mode(Protocol.BLE, Mode.MODE_1))
        wifi_codec = OverlayCodec(OverlayConfig.for_mode(Protocol.WIFI_B, Mode.MODE_1))
        wave = codec.build_carrier(np.array([1], np.uint8))
        with pytest.raises(ValueError):
            TagModulator(wifi_codec).modulate(wave, [1])


class TestGammaRobustness:
    def test_zigbee_gamma1_fails_where_gamma2_succeeds(self):
        """§2.4 'ZigBee': the half-chip offset damages the first
        modulated symbol, so gamma=1 tag bits are unreliable."""
        rng = np.random.default_rng(9)
        prod = rng.integers(0, 2, 6).astype(np.uint8)

        ok = {}
        for gamma, kappa in ((1, 2), (2, 4)):
            cfg = OverlayConfig(Protocol.ZIGBEE, kappa=kappa, gamma=gamma)
            codec = OverlayCodec(cfg)
            wave = codec.build_carrier(prod)
            n_sym = wave.annotations["n_payload_symbols"]
            _, cap = codec.capacity(n_sym)
            tag_bits = (np.arange(cap) % 2).astype(np.uint8)  # alternating
            mod = TagModulator(codec)
            rx = mod.received_at_shifted_channel(mod.modulate(wave, tag_bits))
            rx.annotations = dict(wave.annotations)
            out = OverlayDecoder(codec).decode(rx)
            ok[gamma] = np.mean(out.tag_bits[: tag_bits.size] == tag_bits)
        assert ok[2] >= ok[1]
        assert ok[2] == 1.0
