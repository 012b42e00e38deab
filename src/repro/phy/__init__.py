"""Physical-layer substrates for the 2.4 GHz protocols multiscatter rides on.

Each protocol module provides a full complex-baseband modulator and a
software "commodity receiver" demodulator:

* :mod:`repro.phy.wifi_b`  -- 802.11b DSSS/CCK (1, 2, 5.5 Mbps)
* :mod:`repro.phy.wifi_n`  -- 802.11n 20 MHz OFDM (mixed-mode preamble)
* :mod:`repro.phy.ble`     -- Bluetooth Low Energy LE 1M GFSK
* :mod:`repro.phy.zigbee`  -- IEEE 802.15.4 2.4 GHz OQPSK/DSSS

Shared helpers live in :mod:`repro.phy.bits` (CRCs, scramblers,
whitening), :mod:`repro.phy.pulse` (pulse shaping), and
:mod:`repro.phy.waveform` (the :class:`~repro.phy.waveform.Waveform`
container all modulators emit).
"""

from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform

__all__ = ["Protocol", "Waveform"]
