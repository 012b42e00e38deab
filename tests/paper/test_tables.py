"""Paper claims of Tables 2, 3, 4, 5 (Table 6 is exercised by Fig 12)."""

import pytest

from repro.experiments.registry import get_spec
from repro.phy.protocols import Protocol


def test_table2_resources():
    result = get_spec("table2_resources").run()
    assert result["per_protocol_dffs"] == 33341
    assert result["naive_total_dffs"] == 133364
    assert result["nano_impl_dffs"] == 2860
    assert result["nano_impl_dffs"] < result["agln250_dffs"]
    assert result["naive_total_dffs"] > result["agln250_dffs"]


def test_table3_power():
    result = get_spec("table3_power").run()
    assert result["total_mw"] == pytest.approx(279.5)
    assert result["total_at_2p5msps_mw"] < result["total_mw"]


def test_table4_energy():
    result = get_spec("table4_energy").run()
    table = result["table"]
    assert table[Protocol.WIFI_N]["exchange_packets"] == pytest.approx(360, rel=0.02)
    assert table[Protocol.WIFI_N]["indoor_s"] == pytest.approx(0.60, abs=0.02)
    assert table[Protocol.BLE]["indoor_s"] == pytest.approx(17.2, rel=0.02)
    assert table[Protocol.ZIGBEE]["indoor_s"] == pytest.approx(60.1, rel=0.02)
    assert table[Protocol.WIFI_B]["outdoor_s"] == pytest.approx(2.2e-3, rel=0.05)
    assert result["harvest_indoor_s"] == pytest.approx(216.2, rel=0.01)
    assert result["harvest_outdoor_s"] == pytest.approx(0.78, rel=0.01)


def test_table5_idpower():
    result = get_spec("table5_idpower").run()
    rows = result["rows"]
    assert rows["20MS/s, no +-1 quan."]["power_mw"] == pytest.approx(564, rel=0.05)
    assert rows["20MS/s, +-1 quan."]["power_mw"] == pytest.approx(12, rel=0.1)
    assert rows["2.5MS/s, +-1 quan."]["power_mw"] == pytest.approx(2, rel=0.15)
    assert result["reduction_factor"] == pytest.approx(282, rel=0.15)
