"""Protocol identities and the paper's excitation packet rates.

The four excitation protocols multiscatter identifies (paper §2.2) differ
in preamble structure, symbol timing, and modulation family; each PHY
module keeps its own timing constants.
"""

from __future__ import annotations

import enum


class Protocol(enum.Enum):
    """The excitation protocols a multiscatter tag can identify."""

    WIFI_B = "802.11b"
    WIFI_N = "802.11n"
    BLE = "BLE"
    ZIGBEE = "ZigBee"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Excitation packet rates measured/used in the paper's evaluation
#: (§3 experimental setup and §4.1.4).
DEFAULT_PACKET_RATES = {
    Protocol.WIFI_B: 2000.0,
    Protocol.WIFI_N: 2000.0,
    Protocol.BLE: 70.0,
    Protocol.ZIGBEE: 20.0,
}
