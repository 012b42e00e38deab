"""Paper claims of Fig 13: LoS RSSI/BER/throughput across distances."""

import pytest

from repro.experiments.registry import get_spec

from repro.phy.protocols import Protocol

SPEC = get_spec("fig13_los")


def test_fig13_los():
    result = SPEC.run()
    per = result["per_protocol"]

    # Paper Fig 13a: max ranges 28 m WiFi / 22 m ZigBee / 20 m BLE.
    assert per[Protocol.WIFI_B]["max_range_m"] == pytest.approx(28.0, abs=2.0)
    assert per[Protocol.WIFI_N]["max_range_m"] == pytest.approx(28.0, abs=2.0)
    assert per[Protocol.ZIGBEE]["max_range_m"] == pytest.approx(22.0, abs=2.0)
    assert per[Protocol.BLE]["max_range_m"] == pytest.approx(20.0, abs=2.0)

    # Paper Fig 13b: BER stays low out to 16 m for all protocols.
    for p in Protocol:
        assert per[p]["ber"][15] < 0.05

    # RSSI decreases monotonically with distance.
    for p in Protocol:
        rssi = per[p]["rssi_dbm"]
        assert all(a >= b for a, b in zip(rssi, rssi[1:]))
