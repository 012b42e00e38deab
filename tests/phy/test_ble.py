"""Loopback tests for the BLE GFSK modem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import ble
from repro.phy import bits as bitlib
from repro.phy.protocols import Protocol


class TestStructure:
    def test_metadata(self):
        wave = ble.modulate(b"\x11\x22\x33")
        assert wave.annotations["protocol"] is Protocol.BLE
        assert wave.sample_rate == 8e6

    def test_preamble_duration_8us(self):
        wave = ble.modulate(b"\x00")
        # preamble (8 bits) spans exactly 8 us.
        assert 8 * wave.annotations["samples_per_symbol"] / wave.sample_rate == pytest.approx(8e-6)

    def test_constant_envelope(self):
        # GFSK is an FM scheme: |iq| is exactly constant, which is why
        # BLE needs the FM-to-AM front-end model for identification.
        wave = ble.modulate(b"\xc3" * 8)
        env = np.abs(wave.iq)
        assert env.max() - env.min() < 1e-9

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ble.BleConfig(samples_per_symbol=1)
        with pytest.raises(ValueError):
            ble.BleConfig(channel=41)


class TestLoopback:
    def test_clean_loopback_with_crc(self):
        payload = bytes(range(20))
        wave = ble.modulate(payload)
        result = ble.demodulate(wave)
        assert result.crc_ok
        assert result.access_address == ble.ADVERTISING_ACCESS_ADDRESS
        assert bitlib.bytes_from_bits(result.payload_bits) == payload

    @given(st.binary(min_size=1, max_size=30))
    @settings(max_examples=15, deadline=None)
    def test_loopback_property(self, payload):
        result = ble.demodulate(ble.modulate(payload))
        assert bitlib.bytes_from_bits(result.payload_bits) == payload

    def test_loopback_other_channel(self):
        wave = ble.modulate(b"\xaa\x55", ble.BleConfig(channel=38))
        result = ble.demodulate(wave)
        assert result.crc_ok

    def test_raw_bits_mode(self):
        raw = np.tile([1, 1, 0, 0], 10).astype(np.uint8)
        wave = ble.modulate(raw)
        result = ble.demodulate(wave)
        assert np.array_equal(result.payload_bits, raw)

    def test_loopback_with_noise(self):
        rng = np.random.default_rng(5)
        payload = b"\x0f" * 10
        wave = ble.modulate(payload)
        wave.iq = wave.iq + 0.05 * (
            rng.normal(size=wave.n_samples) + 1j * rng.normal(size=wave.n_samples)
        )
        result = ble.demodulate(wave)
        assert bitlib.bytes_from_bits(result.payload_bits) == payload


class TestTagFskFlip:
    def test_conjugation_flips_bits(self):
        """Mirroring the spectrum (the surviving sideband of the tag's
        FSK toggle, §2.4 'Bluetooth') swaps f0 and f1, flipping every
        bit at the discriminator."""
        raw = np.array([1, 0, 1, 1, 0, 0, 1, 0] * 4, np.uint8)
        wave = ble.modulate(raw)
        clean = ble.demodulate(wave).payload_bits

        flipped = wave.copy()
        flipped.iq = np.conj(flipped.iq)
        tagged = ble.demodulate(flipped).payload_bits
        assert np.array_equal(tagged, 1 - clean)

    def test_partial_conjugation_flips_only_that_span(self):
        raw = np.zeros(40, np.uint8)
        wave = ble.modulate(raw)
        sps = wave.annotations["samples_per_symbol"]
        start = wave.annotations["payload_start"]
        lo = start + 10 * sps
        hi = start + 20 * sps
        tagged_wave = wave.copy()
        tagged_wave.iq[lo:hi] = np.conj(tagged_wave.iq[lo:hi])
        tagged = ble.demodulate(tagged_wave).payload_bits
        # Interior of the conjugated span flips; outside stays.
        assert tagged[12:18].mean() > 0.8
        assert tagged[:8].mean() < 0.2
        assert tagged[22:].mean() < 0.2
