"""Prior-art baselines: Hitchhike and FreeRider (two-receiver decoding).

Both systems modulate tag data by codeword translation, but decoding
XORs codewords captured by *two* receivers -- one on the original
channel, one on the backscatter channel.  The models here reproduce
the two failure modes the paper measures (Fig 9): BER blow-up when the
original channel is occluded, and symbol-level modulation offsets
between the two receivers.
"""

from repro.baselines.codeword import TwoReceiverDecoder
from repro.baselines.hitchhike import Hitchhike
from repro.baselines.freerider import FreeRider
from repro.baselines.xtandem import XTandem

__all__ = ["TwoReceiverDecoder", "Hitchhike", "FreeRider", "XTandem"]
