"""Multiprotocol identification demo (paper §2.2-§2.3).

Generates a mixed stream of 802.11b/n, BLE, and ZigBee packets and
runs the tag's ultra-low-power identification pipeline on each --
clamp rectifier, 2.5 Msps ADC, +-1 quantized extended-window template
matching -- printing the confusion matrix.

Run:  python examples/identification_demo.py
"""

import numpy as np

from repro.core.identification import (
    DEFAULT_INCIDENT_DBM,
    IdentificationConfig,
    ProtocolIdentifier,
)
from repro.phy.protocols import Protocol
from repro.sim.metrics import confusion_table
from repro.sim.traffic import random_packet


def main() -> None:
    rng = np.random.default_rng(3)

    identifier = ProtocolIdentifier(
        IdentificationConfig(
            sample_rate_hz=2.5e6,   # the paper's low-power operating point
            quantized=True,          # +-1 samples: adders only on the FPGA
            window_us=38.0,          # extended matching window (§2.3.2)
            ordered=True,            # ZigBee -> BLE -> 11b -> 11n
        )
    )
    print("tag pipeline: clamp rectifier -> 2.5 Msps ADC -> +-1 quantized "
          "extended-window ordered matching")

    confusion: dict[tuple[Protocol, Protocol], int] = {}
    hits = 0
    total = 0
    for truth in Protocol:
        for i in range(8):
            packet = random_packet(truth, rng, n_payload_bytes=40)
            decision = identifier.identify(
                packet,
                incident_power_dbm=DEFAULT_INCIDENT_DBM[truth],
                rng=np.random.default_rng(100 + total),
            )
            key = (truth, decision)
            confusion[key] = confusion.get(key, 0) + 1
            hits += decision is truth
            total += 1

    print(f"\nidentified {hits}/{total} packets correctly "
          f"({hits / total:.1%} average accuracy)\n")
    print(confusion_table(confusion))


if __name__ == "__main__":
    main()
