"""Tests for the tag-data link layer (framing + reassembly)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.taglink import (
    FRAME_BITS,
    FrameDecoder,
    TagFrame,
    crc8,
    encode_message,
)
from repro.phy.bits import int_from_bits


class TestFraming:
    def test_frame_bit_budget(self):
        assert FRAME_BITS == 8 + 16 + 8

    def test_oversized_payload_rejected(self):
        assert TagFrame(seq=0, payload_bits=np.ones(16, np.uint8)).to_bits().size == FRAME_BITS
        frame = TagFrame(seq=0, payload_bits=np.ones(17, np.uint8))
        with pytest.raises(ValueError):
            frame.to_bits()

    def test_message_splits_into_frames(self):
        frames = encode_message(b"\x01\x02\x03\x04")  # 32 bits / 16
        assert len(frames) == 2
        assert all(f.size == FRAME_BITS for f in frames)

    def test_last_frame_carries_the_remainder(self):
        # 24 bits: one full 16-bit frame, then 8 bits (two nibbles).
        frames = encode_message(b"\x01\x02\x03")
        assert len(frames) == 2
        assert int_from_bits(frames[1][4:8]) == 2
        decoder = FrameDecoder()
        # Trailing bits past a frame are ignored.
        assert decoder.push(np.concatenate([frames[1], np.ones(5, np.uint8)]))
        assert decoder.message_bits().size == 8

    def test_crc8_sensitivity(self):
        bits = np.ones(24, np.uint8)
        a = crc8(bits)
        bits[5] ^= 1
        assert crc8(bits) != a


class TestReassembly:
    @given(st.binary(min_size=1, max_size=24))
    @settings(max_examples=25)
    def test_lossless_round_trip(self, message):
        decoder = FrameDecoder()
        for frame in encode_message(message):
            assert decoder.push(frame)
        assert decoder.message_bytes()[: len(message)] == message
        assert decoder.n_rejected == 0

    def test_corrupted_frame_dropped(self):
        frames = encode_message(b"\xaa\xbb\xcc\xdd")
        decoder = FrameDecoder()
        frames[0][10] ^= 1  # corrupt one bit
        assert not decoder.push(frames[0])
        assert decoder.push(frames[1])
        assert decoder.n_rejected == 1
        assert decoder.received_seqs == [1]

    def test_out_of_order_delivery(self):
        message = b"\x11\x22\x33\x44\x55\x66"
        frames = encode_message(message)
        decoder = FrameDecoder()
        for frame in reversed(frames):
            assert decoder.push(frame)
        assert decoder.message_bytes()[: len(message)] == message

    def test_duplicate_frames_idempotent(self):
        frames = encode_message(b"\x42\x43\x44\x45")
        decoder = FrameDecoder()
        for frame in frames + frames:
            decoder.push(frame)
        assert decoder.message_bytes()[:4] == b"\x42\x43\x44\x45"

    def test_short_input_rejected(self):
        decoder = FrameDecoder()
        assert not decoder.push(np.ones(4, np.uint8))
        assert decoder.n_rejected == 1


class TestOverTheAir:
    def test_frames_survive_overlay_channel(self):
        """Frames ride real overlay packets end to end."""
        from repro.core.overlay import Mode, OverlayCodec, OverlayConfig
        from repro.core.overlay_decoder import OverlayDecoder
        from repro.core.tag_modulation import TagModulator
        from repro.phy.protocols import Protocol

        rng = np.random.default_rng(0)
        message = b"HELLO WORLD!"
        frames = encode_message(message)
        codec = OverlayCodec(OverlayConfig.for_mode(Protocol.BLE, Mode.MODE_1))
        modulator = TagModulator(codec)
        decoder = FrameDecoder()

        for frame in frames:
            productive = rng.integers(0, 2, 40).astype(np.uint8)
            carrier = codec.build_carrier(productive)
            backscattered = modulator.modulate(carrier, frame)
            received = modulator.received_at_shifted_channel(backscattered)
            received.annotations = dict(carrier.annotations)
            out = OverlayDecoder(codec).decode(received)
            decoder.push(out.tag_bits[: frame.size])

        assert decoder.message_bytes()[: len(message)] == message
        assert decoder.n_rejected == 0
