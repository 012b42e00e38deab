"""FreeRider model (Zhang et al., CoNEXT'17): multi-protocol codeword
translation, still two-receiver.

FreeRider generalizes Hitchhike's codeword translation to 802.11b/g,
ZigBee and BLE, at the cost of longer effective codewords (multiple
symbols per tag bit), so its raw tag rate is lower; its multi-packet
framing keeps the two receivers better aligned than Hitchhike, but the
fundamental original-channel dependence remains (paper Fig 9a / 15).
"""

from __future__ import annotations

from repro.baselines.hitchhike import Hitchhike

__all__ = ["FreeRider"]


class FreeRider(Hitchhike):
    """Two-receiver multi-protocol baseline.

    Differences from :class:`Hitchhike`: one tag bit per 8 symbols
    (longer translation blocks across its supported protocols) and a
    tighter inter-receiver offset distribution.
    """

    bits_per_symbol = 1.0 / 8.0
    offset_spread_per_m = 0.15
