"""Unit and property tests for repro.phy.bits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import bits as bitlib


class TestPacking:
    def test_bits_from_bytes_lsb_first(self):
        assert list(bitlib.bits_from_bytes(b"\x01")) == [1, 0, 0, 0, 0, 0, 0, 0]
        assert list(bitlib.bits_from_bytes(b"\x80")) == [0, 0, 0, 0, 0, 0, 0, 1]

    def test_bytes_from_bits_rejects_partial_byte(self):
        with pytest.raises(ValueError):
            bitlib.bytes_from_bits([1, 0, 1])

    def test_int_round_trip(self):
        bits = bitlib.bits_from_int(0xF3A0, 16)
        assert bitlib.int_from_bits(bits) == 0xF3A0

    def test_bits_from_int_rejects_overflow(self):
        with pytest.raises(ValueError):
            bitlib.bits_from_int(256, 8)

    @given(st.binary(min_size=0, max_size=64))
    def test_bytes_round_trip(self, data):
        assert bitlib.bytes_from_bits(bitlib.bits_from_bytes(data)) == data

    @given(st.integers(min_value=0, max_value=2**24 - 1))
    def test_int_round_trip_property(self, value):
        assert bitlib.int_from_bits(bitlib.bits_from_int(value, 24)) == value
        msb_first = bitlib.bits_from_int(value, 24, lsb_first=False)
        assert bitlib.int_from_bits(msb_first[::-1]) == value


class TestLfsr:
    def test_maximal_length_period(self):
        # x^7 + x^4 + 1 is maximal: period 127.
        lfsr = bitlib.Lfsr(taps=(7, 4), state=0x5D, width=7)
        seq = np.array([lfsr.next_bit() for _ in range(254)])
        assert np.array_equal(seq[:127], seq[127:])
        assert 0 < seq[:127].sum() < 127

    def test_rejects_zero_state(self):
        with pytest.raises(ValueError):
            bitlib.Lfsr(taps=(7, 4), state=0, width=7)


class TestCrc:
    def test_crc24_ble_length(self):
        crc = bitlib.crc24_ble(bitlib.bits_from_bytes(b"\x00\x01\x02"))
        assert crc.size == 24

    def test_crc24_ble_sensitivity(self):
        a = bitlib.crc24_ble(bitlib.bits_from_bytes(b"\x10\x20"))
        b = bitlib.crc24_ble(bitlib.bits_from_bytes(b"\x10\x21"))
        assert not np.array_equal(a, b)

    def test_plcp_crc_deterministic(self):
        header = bitlib.bits_from_int(0x0A, 8)
        header = np.concatenate([header, np.zeros(24, np.uint8)])
        c1 = bitlib.crc16_80211b_plcp(header)
        c2 = bitlib.crc16_80211b_plcp(header)
        assert np.array_equal(c1, c2)
        assert c1.size == 16


class TestScramblers:
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    def test_80211b_scrambler_round_trip(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        out = bitlib.descramble_80211b(bitlib.scramble_80211b(arr))
        assert np.array_equal(out, arr)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    def test_80211b_scramble_of_descramble_is_identity(self, bits):
        # Needed by the overlay decoder: re-scrambling received PSDU
        # bits recovers the on-air stream exactly.
        arr = np.array(bits, dtype=np.uint8)
        out = bitlib.scramble_80211b(bitlib.descramble_80211b(arr))
        assert np.array_equal(out, arr)

    def test_80211b_descrambler_is_linear_fir(self):
        # descramble(x) == x ^ x>>4 ^ x>>7 given an all-zero seed
        # history; verify on a delta impulse with zero seed.
        x = np.zeros(20, np.uint8)
        x[8] = 1
        out = bitlib.descramble_80211b(x, seed=0x01)
        # seed bits only affect the first 7 outputs.
        expect_tail = np.zeros(12, np.uint8)
        expect_tail[0] = 1  # position 8: x[8]
        expect_tail[4] = 1  # position 12: x[8] via >>4
        expect_tail[7] = 1  # position 15: x[8] via >>7
        assert np.array_equal(out[8:], expect_tail)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    def test_frame_scrambler_is_involution(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        once = bitlib.scramble_80211_frame(arr, seed=0x5D)
        twice = bitlib.scramble_80211_frame(once, seed=0x5D)
        assert np.array_equal(twice, arr)

    def test_frame_scrambler_period_127(self):
        zeros = np.zeros(254, np.uint8)
        seq = bitlib.scramble_80211_frame(zeros, seed=0x5D)
        assert np.array_equal(seq[:127], seq[127:])


class TestBleWhitening:
    @given(
        st.integers(min_value=0, max_value=39),
        st.lists(st.integers(0, 1), min_size=1, max_size=200),
    )
    @settings(max_examples=50)
    def test_whitening_is_involution(self, channel, bits):
        arr = np.array(bits, dtype=np.uint8)
        assert np.array_equal(bitlib.whiten_ble(bitlib.whiten_ble(arr, channel), channel), arr)

    def test_channels_differ(self):
        s37 = bitlib.ble_whitening_sequence(37, 64)
        s38 = bitlib.ble_whitening_sequence(38, 64)
        assert not np.array_equal(s37, s38)

    def test_rejects_bad_channel(self):
        with pytest.raises(ValueError):
            bitlib.ble_whitening_sequence(40, 8)
