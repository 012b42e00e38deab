"""The two-receiver decoding model shared by Hitchhike and FreeRider.

Codeword translation (Hitchhike's key idea) flips valid codewords into
other valid codewords; the tag data is the flip pattern.  Recovering
the flips requires the *original* codeword stream, which these systems
obtain from a second receiver parked on the original channel:

    tag_bits = codewords(original RX) XOR codewords(backscatter RX)

Two practical defects follow (paper §2.4.1 / Fig 9):

* the original stream inherits the original channel's errors and
  losses, so occlusion of that channel corrupts tag data even when the
  backscattered packet is error-free;
* the two receivers are not symbol-synchronized, so the XOR can be
  misaligned by several codewords ("modulation offset").
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TwoReceiverDecoder"]


@dataclass
class TwoReceiverDecoder:
    """Bit-error model of two-receiver tag decoding.

    ``original_ber``/``backscatter_ber`` are the channels' raw bit
    error rates; ``original_loss_rate`` the probability the original
    packet is entirely lost (preamble miss under deep fade).  When the
    original packet is lost, the tag data of that packet is
    unrecoverable -- there is nothing to XOR against.
    """

    original_ber: float
    backscatter_ber: float
    original_loss_rate: float = 0.0

    def tag_bit_error_rate(self) -> float:
        """Closed form: a tag bit errs if exactly one stream erred, and
        is a coin flip when the original packet is lost."""
        p1, p2 = self.original_ber, self.backscatter_ber
        per_bit = p1 * (1 - p2) + p2 * (1 - p1)
        return float(
            self.original_loss_rate * 0.5 + (1 - self.original_loss_rate) * per_bit
        )
