"""Complete system demo: framed sensor messages over mixed excitation.

Puts the whole stack together: a traffic schedule of mixed 2.4 GHz
packets, a multiscatter tag that identifies each one at the signal
level and backscatters *framed* sensor readings
(:mod:`repro.core.taglink`), channel noise from the calibrated link
budget, commodity receivers decoding both streams, and a frame decoder
reassembling the message on the other side.

Run:  python examples/sensor_network.py
"""

import numpy as np

from repro.core.taglink import FRAME_BITS, FrameDecoder, encode_message
from repro.phy.protocols import Protocol
from repro.sim.airlink import run_airlink
from repro.sim.traffic import ExcitationSchedule, ExcitationSource


def main() -> None:
    rng = np.random.default_rng(11)

    # A sensor report to deliver, framed for lossy per-packet delivery.
    message = b"temp=21.4C rh=48% batt=ok"
    frames = encode_message(message)
    # ACK-less delivery: repeat the whole frame train once, so frames
    # lost to noise in the first pass are filled in by the second
    # (FrameDecoder dedups by sequence number).
    frame_bits = np.concatenate(frames + frames)
    print(f"message: {message!r} -> {len(frames)} frames x2 passes "
          f"({frame_bits.size} tag bits incl. headers/CRCs)")

    # Mixed excitation on the air.
    sources = [
        ExcitationSource(Protocol.WIFI_N, rate_pkts=40, n_payload_bytes=40),
        ExcitationSource(Protocol.BLE, rate_pkts=40, n_payload_bytes=20),
        ExcitationSource(Protocol.ZIGBEE, rate_pkts=40, n_payload_bytes=20),
    ]
    schedule = ExcitationSchedule.generate(sources, duration_s=0.4, rng=rng)
    print(f"air: {len(schedule.packets)} excitation packets over 0.4 s")

    # Run the full loop; a multiscatter tag streams the framed bits.
    report = run_airlink(
        schedule,
        tag_payload=frame_bits,
        rng=rng,
        max_packets=36,
    )
    print(f"tag: identified {report.identification_accuracy:.0%} of packets, "
          f"tag-bit BER {report.tag_bit_error_rate:.1%}")

    # Receiver side: concatenate the *decoded* tag bits and chop the
    # stream back into fixed-size frames.
    decoded_chunks = [
        o.tag_bits_decoded for o in report.outcomes if o.backscattered
    ]
    delivered_bits = (
        np.concatenate(decoded_chunks) if decoded_chunks else np.zeros(0, np.uint8)
    )
    decoder = FrameDecoder()
    for lo in range(0, delivered_bits.size - FRAME_BITS + 1, FRAME_BITS):
        decoder.push(delivered_bits[lo : lo + FRAME_BITS])

    out = decoder.message_bytes()[: len(message)]
    print(f"receiver: reassembled {len(decoder.received_seqs)} frames, "
          f"{decoder.n_rejected} rejected")
    print(f"receiver: message = {out!r}")
    print("match!" if out == message else "partial delivery (retry next packets)")


if __name__ == "__main__":
    main()
