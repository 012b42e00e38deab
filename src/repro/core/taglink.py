"""A minimal link layer for tag data.

Overlay modulation hands the application a per-packet budget of tag
bits (the codec's capacity).  Real sensors send *messages* that span
many excitation packets and arrive over a lossy channel, so this
module adds the thin framing a deployment needs:

* messages are split into frames of at most 16 payload bits;
* each frame carries a 4-bit sequence number, a 4-bit length field,
  and a CRC-8 over header+payload;
* the decoder validates CRCs, tolerates lost/corrupted frames, and
  reassembles in-order message bytes (gaps are reported, not
  invented).

The paper stops at raw tag bits; this is the §2.4.3 "range of
practical applications" layer made concrete.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.types import BitArray

from repro.phy.bits import bits_from_int, int_from_bits

__all__ = ["FRAME_BITS", "TagFrame", "encode_message", "FrameDecoder"]

_CRC8_POLY = 0x07  # CRC-8/ATM

#: Frame header: a 4-bit sequence number and a 4-bit payload length
#: (in nibbles).
_HEADER_BITS = 8

#: Payload bits per frame, chosen to fit the overlay capacity of the
#: smallest carrier a deployment expects: a BLE advertising packet in
#: mode 1 offers ~37 tag bits, 16 header+CRC bits leave 21, and 16
#: keeps frames byte-aligned.
_PAYLOAD_BITS = 16

#: Bits per frame on the air: header, payload and CRC-8.
FRAME_BITS = _HEADER_BITS + _PAYLOAD_BITS + 8


def crc8(bits: np.ndarray) -> int:
    """CRC-8 over a bit array (MSB-first shifting)."""
    reg = 0
    for b in np.asarray(bits, dtype=np.uint8):
        fb = ((reg >> 7) & 1) ^ int(b)
        reg = (reg << 1) & 0xFF
        if fb:
            reg ^= _CRC8_POLY
    return reg


@dataclass
class TagFrame:
    """One on-air frame of tag data."""

    seq: int
    payload_bits: np.ndarray

    def to_bits(self) -> BitArray:
        if self.payload_bits.size > _PAYLOAD_BITS:
            raise ValueError("payload exceeds the frame budget")
        pad = _PAYLOAD_BITS - self.payload_bits.size
        body = np.concatenate(
            [self.payload_bits, np.zeros(pad, np.uint8)]
        )
        n_nibbles = (self.payload_bits.size + 3) // 4
        header = np.concatenate(
            [bits_from_int(self.seq & 0xF, 4), bits_from_int(n_nibbles & 0xF, 4)]
        )
        crc = bits_from_int(crc8(np.concatenate([header, body])), 8)
        return np.concatenate([header, body, crc])


def encode_message(message: bytes) -> list[np.ndarray]:
    """Split a message into framed bit arrays ready for the overlay
    modulator, numbered from sequence 0."""
    from repro.phy.bits import bits_from_bytes

    bits = bits_from_bytes(message)
    frames = []
    seq = 0
    for lo in range(0, bits.size, _PAYLOAD_BITS):
        chunk = bits[lo : lo + _PAYLOAD_BITS]
        frames.append(TagFrame(seq=seq & 0xF, payload_bits=chunk).to_bits())
        seq += 1
    return frames


@dataclass
class FrameDecoder:
    """Validates and reassembles received tag frames.

    Feed each packet's decoded tag bits to :meth:`push`; read the
    in-order reassembled payload with :meth:`message_bits`.  Frames
    with bad CRCs are dropped (counted in ``n_rejected``); sequence
    gaps are visible in ``received_seqs``.
    """

    frames: dict[int, np.ndarray] = field(default_factory=dict)
    n_rejected: int = 0

    def push(self, bits: np.ndarray) -> bool:
        """Consume one frame's bits; True when accepted."""
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.size < FRAME_BITS:
            self.n_rejected += 1
            return False
        arr = arr[:FRAME_BITS]
        header = arr[:_HEADER_BITS]
        body = arr[_HEADER_BITS : _HEADER_BITS + _PAYLOAD_BITS]
        crc_rx = int_from_bits(arr[_HEADER_BITS + _PAYLOAD_BITS :])
        if crc8(np.concatenate([header, body])) != crc_rx:
            self.n_rejected += 1
            return False
        seq = int_from_bits(header[:4])
        n_nibbles = int_from_bits(header[4:8])
        payload = body[: min(n_nibbles * 4, body.size)]
        self.frames[seq] = payload
        return True

    @property
    def received_seqs(self) -> list[int]:
        return sorted(self.frames)

    def message_bits(self) -> BitArray:
        """Concatenate payloads of the frames received, in seq order."""
        if not self.frames:
            return np.zeros(0, np.uint8)
        return np.concatenate([self.frames[s] for s in sorted(self.frames)])

    def message_bytes(self) -> bytes:
        """Reassembled bytes (truncated to whole bytes)."""
        bits = self.message_bits()
        usable = bits.size - bits.size % 8
        if usable == 0:
            return b""
        from repro.phy.bits import bytes_from_bits

        return bytes_from_bits(bits[:usable])
