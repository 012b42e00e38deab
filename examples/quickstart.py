"""Quickstart: one overlay-modulated packet, end to end.

A BLE radio transmits a crafted productive carrier; the multiscatter
tag backscatters the ASCII message "HELLO" on top of it; a single
commodity BLE receiver decodes *both* the productive data and the tag
message from the one packet (paper §2.4).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.channel import awgn
from repro.core.overlay import Mode, OverlayCodec, OverlayConfig
from repro.core.overlay_decoder import OverlayDecoder
from repro.core.tag_modulation import TagModulator
from repro.phy.bits import bits_from_bytes, bytes_from_bits
from repro.phy.protocols import Protocol


def main() -> None:
    rng = np.random.default_rng(42)

    # 1. The excitation radio crafts a mode-1 overlay carrier whose
    #    reference symbols carry productive data.
    codec = OverlayCodec(OverlayConfig.for_mode(Protocol.BLE, Mode.MODE_1))
    productive = rng.integers(0, 2, 48).astype(np.uint8)
    carrier = codec.build_carrier(productive)
    print(f"carrier: {carrier.duration_s * 1e6:.0f} us of BLE at "
          f"{carrier.sample_rate / 1e6:.0f} Msps, kappa={codec.config.kappa}, "
          f"gamma={codec.config.gamma}")

    # 2. The tag backscatters its message onto the modulatable symbols,
    #    frequency-shifting to a clean adjacent channel.
    message = b"HELLO"
    tag_bits = bits_from_bytes(message)
    _, capacity = codec.capacity(carrier.annotations["n_payload_symbols"])
    assert tag_bits.size <= capacity, "message exceeds tag capacity"
    modulator = TagModulator(codec, frequency_shift_hz=10e6)
    backscattered = modulator.modulate(carrier, tag_bits)
    print(f"tag: sent {tag_bits.size} bits ({message!r}), capacity {capacity} bits")

    # 3. A single commodity receiver tunes to the shifted channel and
    #    decodes both streams from the one packet.
    received = modulator.received_at_shifted_channel(backscattered)
    received = awgn(received, snr_db=20.0, rng=rng)
    received.annotations = dict(carrier.annotations)  # RX frame sync
    output = OverlayDecoder(codec).decode(received)

    got_productive = output.productive_bits[: productive.size]
    got_tag = output.tag_bits[: tag_bits.size]
    print(f"receiver: productive bits ok = {np.array_equal(got_productive, productive)}")
    print(f"receiver: tag message = {bytes_from_bits(got_tag)!r}")


if __name__ == "__main__":
    main()
