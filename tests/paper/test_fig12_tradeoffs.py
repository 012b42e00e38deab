"""Paper claims of Fig 12 + Table 6: productive/tag throughput tradeoffs."""

import pytest

from repro.core.overlay import Mode
from repro.experiments.registry import get_spec

from repro.phy.protocols import Protocol

SPEC = get_spec("fig12_tradeoffs")


def test_fig12_tradeoffs():
    result = SPEC.run(n_locations=50)
    table = result["table"]

    # Mode 1: productive ~= tag for every protocol.
    for p in Protocol:
        row = table[(p, Mode.MODE_1)]
        assert row["tag_kbps"] == pytest.approx(row["productive_kbps"], rel=0.05)

    # Mode 2: tag ~= 3x productive.
    for p in Protocol:
        row = table[(p, Mode.MODE_2)]
        assert row["tag_kbps"] == pytest.approx(3 * row["productive_kbps"], rel=0.15)

    # Mode 3: productive shrinks to ~1 bit/packet.
    for p in Protocol:
        row = table[(p, Mode.MODE_3)]
        assert row["productive_kbps"] < 0.1 * row["tag_kbps"]

    # Paper's mode-1 aggregate ordering: BLE > 11b > 11n > ZigBee.
    def agg(p):
        row = table[(p, Mode.MODE_1)]
        return row["productive_kbps"] + row["tag_kbps"]

    assert agg(Protocol.BLE) > agg(Protocol.WIFI_B) > agg(Protocol.WIFI_N) > agg(Protocol.ZIGBEE)
    # Magnitudes: 11b ~219.8 kbps, ZigBee ~26.2 kbps.
    assert agg(Protocol.WIFI_B) == pytest.approx(219.8, rel=0.1)
    assert agg(Protocol.ZIGBEE) == pytest.approx(26.2, rel=0.1)
