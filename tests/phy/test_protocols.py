"""Tests for the protocol identities and the paper's packet rates."""

from repro.phy.protocols import DEFAULT_PACKET_RATES, Protocol


class TestPacketRates:
    def test_all_protocols_registered(self):
        assert set(DEFAULT_PACKET_RATES) == set(Protocol)

    def test_paper_packet_rates(self):
        assert DEFAULT_PACKET_RATES[Protocol.WIFI_N] == 2000.0
        assert DEFAULT_PACKET_RATES[Protocol.BLE] == 70.0
        assert DEFAULT_PACKET_RATES[Protocol.ZIGBEE] == 20.0
