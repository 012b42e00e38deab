"""Paper claims of Fig 14: NLoS RSSI/BER/throughput across distances."""

import pytest

from repro.experiments.registry import get_spec
from repro.phy.protocols import Protocol

SPEC = get_spec("fig14_nlos")


def test_fig14_nlos():
    result = SPEC.run()
    per = result["per_protocol"]

    # Paper Fig 14a: NLoS max ranges 22 / 18 / 16 m.
    assert per[Protocol.WIFI_B]["max_range_m"] == pytest.approx(22.0, abs=2.0)
    assert per[Protocol.ZIGBEE]["max_range_m"] == pytest.approx(18.0, abs=2.0)
    assert per[Protocol.BLE]["max_range_m"] == pytest.approx(16.0, abs=2.0)

    # Every protocol's NLoS range is shorter than its LoS range.
    los = get_spec("fig13_los").run()["per_protocol"]
    for p in Protocol:
        assert per[p]["max_range_m"] < los[p]["max_range_m"]
