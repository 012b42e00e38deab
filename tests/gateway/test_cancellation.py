"""Cancellation safety: SIGINT drain, mid-await deregistration, hard
cancel.

The ISSUE-9 scenarios: a stop request arriving while a BLOCK-policy
subscriber sits on a full queue must still tear down cleanly and replay
byte-identically on a restart; a tag deregistered mid-await must stop
producing without disturbing the rest; a hard ``Task.cancel`` of
``serve`` must close every stream so no consumer hangs.
"""

import asyncio

import numpy as np
import pytest

from repro.gateway import (
    AsyncExcitationSource,
    Backpressure,
    ControlEvent,
    Gateway,
    GatewayConfig,
    PacketEvent,
)
from repro.phy.protocols import Protocol
from repro.sim.traffic import ExcitationSource


def make_source(max_packets: int, seed: int = 3) -> AsyncExcitationSource:
    return AsyncExcitationSource(
        [
            ExcitationSource(protocol=p, rate_pkts=200.0, periodic=False)
            for p in Protocol
        ],
        duration_s=0.5,
        rng=np.random.default_rng(seed),
        max_packets=max_packets,
    )


def packet_key(e: PacketEvent) -> tuple:
    return (
        e.tag_id,
        e.seq,
        e.time_s,
        e.outcome.protocol,
        e.outcome.tag_bits_correct,
        tuple(np.asarray(e.outcome.tag_bits_decoded).tolist()),
    )


class TestSigintDrainWithBlockedSubscriber:
    """Stop requested (the cli SIGINT path) while the only subscriber
    is blocked on a full BLOCK-policy queue."""

    def run_once(self):
        async def run():
            gw = Gateway(
                GatewayConfig(
                    seed=13,
                    keepalive_timeout_s=30.0,
                    queue_maxlen=4,
                    stall_timeout_s=5.0,
                )
            )
            for i in range(3):
                await gw.register_tag(f"tag-{i}")
            sub = gw.subscribe("s", policy=Backpressure.BLOCK)
            release = asyncio.Event()
            events = []

            async def consume():
                # Stay blocked until the stop arrives, so the publisher
                # is parked on the full queue when it does.
                await release.wait()
                async for ev in sub:
                    events.append(ev)

            consumer = asyncio.ensure_future(consume())

            async def sigint_when_queue_full():
                while sub.qsize() < 4:
                    await asyncio.sleep(0)
                gw.request_stop()  # what the cli SIGINT handler calls
                release.set()

            stopper = asyncio.ensure_future(sigint_when_queue_full())
            stats = await gw.serve(make_source(max_packets=200))
            await stopper
            await consumer
            return gw, stats, events

        return asyncio.run(run())

    def test_clean_teardown(self):
        gw, stats, events = self.run_once()
        assert stats.drained_clean
        assert stats.n_dropped_events == 0
        assert stats.n_subscriber_evictions == 0
        assert 0 < stats.n_packets < 200  # it actually stopped early
        kinds = [e.kind for e in events if isinstance(e, ControlEvent)]
        assert "draining" in kinds and kinds[-1] == "drained"
        assert gw._sweep_task is None  # sweep stopped with the drain

    def test_restart_replays_byte_identically(self):
        _, stats_a, events_a = self.run_once()
        _, stats_b, events_b = self.run_once()
        packets_a = [e for e in events_a if isinstance(e, PacketEvent)]
        packets_b = [e for e in events_b if isinstance(e, PacketEvent)]
        assert stats_a.n_packets == stats_b.n_packets
        assert len(packets_a) == len(packets_b) > 0
        for a, b in zip(packets_a, packets_b):
            assert packet_key(a) == packet_key(b)


class TestMidAwaitDeregistration:
    def run_once(self):
        async def run():
            gw = Gateway(GatewayConfig(seed=5, keepalive_timeout_s=30.0, queue_maxlen=512))
            for i in range(3):
                await gw.register_tag(f"tag-{i}")
            sub = gw.subscribe("s")
            events = []

            async def consume():
                async for ev in sub:
                    events.append(ev)

            consumer = asyncio.ensure_future(consume())

            async def dereg_mid_run():
                while gw.stats.n_published < 5:
                    await asyncio.sleep(0)
                await gw.deregister_tag("tag-1", reason="client went away")

            dereg = asyncio.ensure_future(dereg_mid_run())
            stats = await gw.serve(make_source(max_packets=40))
            await dereg
            await consumer
            return gw, stats, events

        return asyncio.run(run())

    def test_clean_teardown_and_isolation(self):
        gw, stats, events = self.run_once()
        assert stats.drained_clean
        assert stats.n_tag_evictions == 0  # deregistration, not eviction
        dereg_at = next(
            i
            for i, e in enumerate(events)
            if isinstance(e, ControlEvent)
            and e.kind == "deregistered"
            and e.tag_id == "tag-1"
        )
        # The deregistered tag produced nothing after the event, the
        # survivors kept going.
        after = [e for e in events[dereg_at:] if isinstance(e, PacketEvent)]
        assert all(e.tag_id != "tag-1" for e in after)
        assert any(isinstance(e, PacketEvent) for e in events[dereg_at:])
        assert len(gw.control) == 0  # drain deregistered the rest

    def test_restart_replays_byte_identically(self):
        _, _, events_a = self.run_once()
        _, _, events_b = self.run_once()
        packets_a = [e for e in events_a if isinstance(e, PacketEvent)]
        packets_b = [e for e in events_b if isinstance(e, PacketEvent)]
        assert len(packets_a) == len(packets_b) > 0
        for a, b in zip(packets_a, packets_b):
            assert packet_key(a) == packet_key(b)


class TestHardCancel:
    def test_cancelling_serve_closes_streams_not_hangs(self):
        async def run():
            gw = Gateway(GatewayConfig(seed=2, keepalive_timeout_s=30.0, queue_maxlen=8))
            await gw.register_tag("t")
            sub = gw.subscribe("s")
            received = []

            async def consume():
                async for ev in sub:
                    received.append(ev)

            consumer = asyncio.ensure_future(consume())
            serve_task = asyncio.ensure_future(gw.serve(make_source(max_packets=500)))
            while gw.stats.n_published < 3:
                await asyncio.sleep(0)
            serve_task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await serve_task
            # The consumer must observe end-of-stream promptly instead
            # of blocking forever on a queue nobody fills.
            await asyncio.wait_for(consumer, timeout=1.0)
            return gw, sub

        gw, sub = asyncio.run(run())
        assert sub.closed
        assert "cancelled" in sub.close_reason
        assert gw._sweep_task is None

    def test_gateway_survives_cancel_and_serves_again(self):
        async def run():
            gw = Gateway(GatewayConfig(seed=2, keepalive_timeout_s=30.0))
            await gw.register_tag("t")
            serve_task = asyncio.ensure_future(gw.serve(make_source(max_packets=500)))
            while gw.stats.n_published < 2:
                await asyncio.sleep(0)
            serve_task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await serve_task
            return await gw.serve(make_source(max_packets=3, seed=9))

        stats = asyncio.run(run())
        assert stats.drained_clean


class TestSweepErrorSurfaces:
    def test_sweep_crash_fails_serve_loudly(self):
        async def run():
            gw = Gateway(
                GatewayConfig(
                    seed=1, keepalive_timeout_s=30.0, keepalive_interval_s=0.001
                )
            )
            await gw.register_tag("t")

            def boom(*args, **kwargs):
                raise ValueError("keepalive store corrupted")

            gw.control.keepalive = boom
            with pytest.raises(RuntimeError, match="sweep"):
                await gw.serve(make_source(max_packets=5000))

        asyncio.run(run())


class TestAsyncioDebugMode:
    def test_serve_clean_under_debug_and_loopwatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOOPWATCH", "1")

        async def run():
            gw = Gateway(GatewayConfig(seed=7, keepalive_timeout_s=30.0, queue_maxlen=256))
            await gw.register_tag("t")
            sub = gw.subscribe("s")
            events = []

            async def consume():
                async for ev in sub:
                    events.append(ev)

            consumer = asyncio.ensure_future(consume())
            stats = await gw.serve(make_source(max_packets=12))
            await consumer
            return stats, events

        stats, events = asyncio.run(run(), debug=True)
        assert stats.drained_clean
        assert stats.loopwatch_violations == 0
        assert any(isinstance(e, PacketEvent) for e in events)
