"""Integration tests: the full waveform-level system loop."""

import pickle

import numpy as np
import pytest

from repro.phy.protocols import Protocol
from repro.sim.airlink import run_airlink
from repro.sim.pipeline import AirlinkPipeline, PendingReception, pending_to_payload
from repro.sim.traffic import ExcitationSchedule, ExcitationSource, ScheduledPacket


@pytest.fixture(scope="module")
def mixed_schedule():
    rng = np.random.default_rng(0)
    sources = [
        ExcitationSource(Protocol.WIFI_N, rate_pkts=20, n_payload_bytes=40),
        ExcitationSource(Protocol.WIFI_B, rate_pkts=20, n_payload_bytes=40),
        ExcitationSource(Protocol.BLE, rate_pkts=20, n_payload_bytes=20),
        ExcitationSource(Protocol.ZIGBEE, rate_pkts=20, n_payload_bytes=20),
    ]
    return ExcitationSchedule.generate(sources, duration_s=0.2, rng=rng)


@pytest.fixture(scope="module")
def multiscatter_report(mixed_schedule):
    return run_airlink(
        mixed_schedule,
        rng=np.random.default_rng(1),
        max_packets=16,
    )


class TestMultiscatterLoop:
    def test_covers_all_protocols(self, multiscatter_report):
        seen = {o.protocol for o in multiscatter_report.outcomes}
        assert len(seen) >= 3

    def test_identification_mostly_correct(self, multiscatter_report):
        assert multiscatter_report.identification_accuracy > 0.6

    def test_tag_data_flows(self, multiscatter_report):
        assert multiscatter_report.tag_throughput_kbps() > 0
        assert multiscatter_report.tag_bit_error_rate < 0.2

    def test_productive_data_flows(self, multiscatter_report):
        assert sum(o.productive_bits_correct for o in multiscatter_report.outcomes) > 0

    def test_backscattered_packets_carry_bits(self, multiscatter_report):
        sent = [o for o in multiscatter_report.outcomes if o.backscattered]
        assert sent
        assert all(o.tag_bits_sent > 0 for o in sent)


class TestIdentificationMisses:
    def test_missed_packets_skip_backscatter_and_decode(self, multiscatter_report):
        # A misidentified carrier is not backscattered: the outcome is
        # final at staging, with no tag bits spent or decoded.
        missed = [o for o in multiscatter_report.outcomes if o.identified is not o.protocol]
        assert missed
        for o in missed:
            assert not o.backscattered
            assert (o.tag_bits_sent, o.tag_bits_correct, o.productive_bits_correct) == (0, 0, 0)
            assert o.tag_bits_decoded.size == 0
        assert all(
            o.backscattered for o in multiscatter_report.outcomes if o.identified is o.protocol
        )


class TestArguments:
    @pytest.fixture(scope="class")
    def three_packets(self):
        source = ExcitationSource(Protocol.BLE, n_payload_bytes=10)
        packets = [ScheduledPacket(Protocol.BLE, 0.01 * k, 1e-4, source) for k in range(3)]
        return ExcitationSchedule(duration_s=0.03, packets=packets)

    @pytest.mark.parametrize(("max_packets", "n"), [(None, 3), (0, 0), (1, 1), (3, 3), (5, 3)])
    def test_max_packets_counts_like_the_gateway(self, three_packets, max_packets, n):
        # None replays every packet and 0 none, as AsyncExcitationSource.
        report = run_airlink(
            three_packets, rng=np.random.default_rng(2), max_packets=max_packets
        )
        assert report.n_packets == n

    @pytest.mark.parametrize("max_packets", [-1, -3])
    def test_negative_max_packets_rejected(self, three_packets, max_packets):
        with pytest.raises(ValueError, match="max_packets"):
            run_airlink(three_packets, max_packets=max_packets)


class TestDecodePayload:
    def test_payload_carries_no_tag_waveform(self):
        # The decode pool pickles one payload per reception: besides the
        # received waveform it holds only the tag bits sent, the
        # productive bits and the receiver key, not the tag's
        # pre-channel waveform.
        source = ExcitationSource(Protocol.WIFI_N)
        scheduled = ScheduledPacket(Protocol.WIFI_N, 0.0, 1e-3, source)
        tag_bits = np.random.default_rng(0).integers(0, 2, 4096).astype(np.uint8)
        pipeline = AirlinkPipeline()
        for seed in range(8):
            staged, cursor = pipeline.excite_and_react(
                scheduled, tag_bits, 0, np.random.default_rng(seed)
            )
            if isinstance(staged, PendingReception):
                break
        assert isinstance(staged, PendingReception)
        assert np.array_equal(staged.tag_bits_sent, tag_bits[:cursor])
        payload = pending_to_payload(staged)
        assert len(pickle.dumps(payload)) <= len(pickle.dumps(staged.received)) + 4096
