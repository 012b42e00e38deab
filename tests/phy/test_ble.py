"""Loopback tests for the BLE GFSK modem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import ble
from repro.phy import bits as bitlib
from repro.phy.protocols import Protocol


def sent_pdu(payload: bytes) -> np.ndarray:
    """The whitened header + payload + CRC-24 that ``modulate`` puts on
    air after the access address (advertising channel 37)."""
    pdu = bitlib.bits_from_bytes(bytes([0x02, len(payload)]) + payload)
    return bitlib.whiten_ble(np.concatenate([pdu, bitlib.crc24_ble(pdu)]), 37)


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

    def test_le_1m_one_bit_per_microsecond(self):
        # LE 1M: preamble (8) + access address (32) + header (16) +
        # payload + CRC (24) bits, each 1 us on air.
        payload = bytes(5)
        wave = ble.modulate(payload)
        n_bits = 8 + 32 + 16 + 8 * len(payload) + 24
        assert wave.annotations["n_frame_bits"] == n_bits
        assert wave.n_samples / wave.sample_rate == pytest.approx(n_bits * 1e-6)

    def test_preamble_and_access_address_on_air(self):
        # The extended identification window matches the preamble and
        # the fixed advertising access address (paper §2.3.2).  The
        # preamble alternates from the address's LSB: 0x8E89BED6 -> 0.
        wave = ble.modulate(b"\x00\x01")
        sps = wave.annotations["samples_per_symbol"]
        dphi = np.concatenate([[0.0], np.angle(wave.iq[1:] * np.conj(wave.iq[:-1]))])
        head = dphi[: 40 * sps].reshape(40, sps)[:, sps // 4 : sps - sps // 4]
        bits = (head.sum(axis=1) > 0).astype(np.uint8)
        assert np.array_equal(bits[:8], [0, 1] * 4)
        assert np.array_equal(bits[8:], bitlib.bits_from_int(ble.ADVERTISING_ACCESS_ADDRESS, 32))

    def test_pdu_whitened_for_advertising_channel_37(self):
        payload = b"\x11\x22\x33"
        onair = ble.demodulate(ble.modulate(payload)).onair_bits
        pdu = bytes([0x02, len(payload)]) + payload
        n = 8 * len(pdu)
        assert bitlib.bytes_from_bits(bitlib.whiten_ble(onair, 37)[:n]) == pdu
        for channel in (38, 39):
            assert bitlib.bytes_from_bits(bitlib.whiten_ble(onair, channel)[:n]) != pdu

    def test_pdu_ends_in_its_crc24(self):
        # The receiver delivers raw decisions (the paper turns CRC
        # checking off), but the frame on air still carries a valid
        # CRC-24 over header + payload.
        payload = b"\x11\x22\x33\x44"
        pdu = bitlib.whiten_ble(ble.demodulate(ble.modulate(payload)).onair_bits, 37)
        n = 8 * (2 + len(payload))
        assert pdu.size == n + 24
        assert bitlib.bytes_from_bits(pdu[:n]) == bytes([0x02, len(payload)]) + payload
        assert np.array_equal(bitlib.crc24_ble(pdu[:n]), pdu[n:])


class TestLoopback:
    def test_clean_loopback_with_crc(self):
        payload = bytes(range(20))
        wave = ble.modulate(payload)
        result = ble.demodulate(wave)
        assert np.array_equal(result.onair_bits, sent_pdu(payload))
        assert bitlib.bytes_from_bits(result.payload_bits) == payload

    @given(st.binary(min_size=1, max_size=30))
    @settings(max_examples=15, deadline=None)
    def test_loopback_property(self, payload):
        result = ble.demodulate(ble.modulate(payload))
        assert bitlib.bytes_from_bits(result.payload_bits) == payload

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
