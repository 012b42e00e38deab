"""Loopback tests for the 802.15.4 OQPSK modem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import bits as bitlib
from repro.phy import zigbee
from repro.phy.protocols import Protocol


class TestPnTable:
    def test_16_unique_sequences(self):
        rows = {tuple(r) for r in zigbee.PN_TABLE}
        assert len(rows) == 16

    def test_low_cross_correlation(self):
        bipolar = 2.0 * zigbee.PN_TABLE.astype(float) - 1.0
        gram = bipolar @ bipolar.T
        off_diag = gram[~np.eye(16, dtype=bool)]
        assert np.all(np.diag(gram) == 32)
        # 802.15.4 quasi-orthogonality: all cross-correlations well
        # below the autocorrelation peak.
        assert np.max(np.abs(off_diag)) <= 16

    def test_symbols_1_to_7_are_cyclic_shifts(self):
        for k in range(1, 8):
            assert np.array_equal(zigbee.PN_TABLE[k], np.roll(zigbee.PN_TABLE[0], 4 * k))

    def test_complement_is_not_in_table(self):
        # A tag's pi flip complements chips; the complement of a valid
        # sequence must not be a valid sequence itself, so flipped
        # symbols land on a *different* best match (tag bit detectable).
        rows = {tuple(r) for r in zigbee.PN_TABLE}
        for r in zigbee.PN_TABLE:
            assert tuple(1 - r) not in rows


class TestSymbolPacking:
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=40))
    def test_round_trip(self, symbols):
        arr = np.array(symbols, dtype=np.uint8)
        assert np.array_equal(
            zigbee.symbols_from_bits(zigbee.bits_from_symbols(arr)), arr
        )

    def test_low_nibble_first(self):
        bits = bitlib.bits_from_bytes(b"\xa7")
        assert list(zigbee.symbols_from_bits(bits)) == [0x7, 0xA]


class TestLoopback:
    def test_metadata(self):
        wave = zigbee.modulate(b"\x12\x34")
        assert wave.annotations["protocol"] is Protocol.ZIGBEE
        assert wave.sample_rate == 8e6
        # Preamble of 8 zero symbols = 128 us.
        sym_len = wave.annotations["samples_per_symbol"]
        assert 8 * sym_len / wave.sample_rate == pytest.approx(128e-6)

    def test_header_is_shr_then_phr_without_fcs(self):
        # SHR: 8 zero symbols and the SFD 0xA7, low nibble first; PHR:
        # the PSDU length, which counts no FCS (paper §3: the NICs'
        # CRC is off).  Decoding from the first sample exposes them.
        payload = bytes(range(5))
        wave = zigbee.modulate(payload)
        ann = wave.annotations
        whole = wave.copy()
        whole.annotations = {
            **ann,
            "n_header_symbols": 0,
            "n_payload_symbols": ann["n_header_symbols"] + ann["n_payload_symbols"],
        }
        symbols = zigbee.demodulate(whole).symbols
        assert symbols.tolist() == (
            [0] * 8 + [0x7, 0xA] + [len(payload), 0] + zigbee.symbols_from_bits(
                bitlib.bits_from_bytes(payload)
            ).tolist()
        )

    def test_250_kbps_airtime(self):
        # 4-bit symbols of 32 chips at 2 Mchip/s: 16 us per symbol, so
        # SHR + PHR + PSDU take 32 us per byte, plus the one-chip
        # (0.5 us) offset of the Q branch.
        payload = bytes(7)
        wave = zigbee.modulate(payload)
        n_bytes = 4 + 1 + 1 + len(payload)
        assert wave.annotations["samples_per_symbol"] / wave.sample_rate == pytest.approx(16e-6)
        assert wave.n_samples / wave.sample_rate == pytest.approx(n_bytes * 32e-6 + 0.5e-6)

    def test_clean_loopback(self):
        payload = bytes(range(16))
        result = zigbee.demodulate(zigbee.modulate(payload))
        sent = zigbee.symbols_from_bits(bitlib.bits_from_bytes(payload))
        assert np.array_equal(result.symbols, sent)
        assert bitlib.bytes_from_bits(result.payload_bits) == payload

    @given(st.binary(min_size=1, max_size=24))
    @settings(max_examples=15, deadline=None)
    def test_loopback_property(self, payload):
        result = zigbee.demodulate(zigbee.modulate(payload))
        assert bitlib.bytes_from_bits(result.payload_bits) == payload

    def test_loopback_with_noise(self):
        rng = np.random.default_rng(9)
        payload = b"\x5b" * 12
        wave = zigbee.modulate(payload)
        wave.iq = wave.iq + 0.1 * (
            rng.normal(size=wave.n_samples) + 1j * rng.normal(size=wave.n_samples)
        )
        result = zigbee.demodulate(wave)
        assert bitlib.bytes_from_bits(result.payload_bits) == payload

    def test_near_constant_envelope(self):
        # OQPSK half-sine is MSK-like: modest envelope ripple compared
        # with OFDM.
        wave = zigbee.modulate(bytes(range(8)))
        env = np.abs(wave.iq)
        mid = env[len(env) // 4 : -len(env) // 4]
        assert mid.std() / mid.mean() < 0.25


class TestTagFlip:
    def test_full_symbol_flips_change_symbol_decision(self):
        """A pi flip over whole symbols makes the best match land on a
        different PN entry (the overlay 'flipped' state)."""
        payload = bytes(range(10))
        wave = zigbee.modulate(payload)
        clean = zigbee.demodulate(wave).symbols

        sym_len = wave.annotations["samples_per_symbol"]
        start = wave.annotations["payload_start"]
        tagged_wave = wave.copy()
        # Flip symbols 2..5 (a gamma=3-style run plus one).
        lo = start + 2 * sym_len
        hi = start + 6 * sym_len
        tagged_wave.iq[lo:hi] *= -1.0
        tagged = zigbee.demodulate(tagged_wave).symbols

        # Interior flipped symbols decode differently from clean.
        assert tagged[3] != clean[3]
        assert tagged[4] != clean[4]
        # Symbols outside the run are untouched.
        assert np.array_equal(tagged[7:], clean[7:])
        assert np.array_equal(tagged[:2], clean[:2])

    def test_flip_maps_symbols_deterministically(self):
        # The flipped decision depends only on the original symbol, so
        # the receiver can detect "differs from reference".
        payload = b"\x33" * 8  # repeated symbol 3
        wave = zigbee.modulate(payload)
        sym_len = wave.annotations["samples_per_symbol"]
        start = wave.annotations["payload_start"]
        tagged_wave = wave.copy()
        tagged_wave.iq[start + 4 * sym_len : start + 12 * sym_len] *= -1.0
        tagged = zigbee.demodulate(tagged_wave).symbols
        interior = tagged[5:11]
        assert len(set(interior.tolist())) == 1
        assert interior[0] != 3
