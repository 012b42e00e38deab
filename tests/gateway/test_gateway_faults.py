"""Deterministic fault injection against the gateway (site ``gateway``).

Mirrors ``tests/sim/test_faults.py``: each failure mode the service
claims to survive is *forced* through ``REPRO_FAULTS`` and the
recovery path asserted -- a stalled subscriber is evicted without
stopping delivery to healthy ones, a crashed tag task evicts only that
tag, and the run still drains cleanly.
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
    SubscriptionClosed,
)
from repro.phy.protocols import Protocol
from repro.sim import faults
from repro.sim.traffic import ExcitationSource


@pytest.fixture(autouse=True)
def _no_inherited_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)


def make_source(max_packets: int) -> AsyncExcitationSource:
    return AsyncExcitationSource(
        [
            ExcitationSource(protocol=p, rate_pkts=200.0, periodic=False)
            for p in Protocol
        ],
        duration_s=0.5,
        rng=np.random.default_rng(3),
        max_packets=max_packets,
    )


class TestSiteGrammar:
    def test_gateway_is_a_valid_site(self):
        spec = faults.parse_spec("raise:site=gateway,name=tag:t0")
        assert spec[0].site == "gateway"

    def test_unknown_site_still_rejected(self):
        with pytest.raises(faults.FaultSpecError, match="site"):
            faults.parse_spec("raise:site=airloop")

    def test_check_async_raise(self):
        faults.install("raise:site=gateway,name=tag:t0")
        try:
            with pytest.raises(faults.FaultInjected):
                asyncio.run(faults.check_async("gateway", name="tag:t0"))
            # Non-matching names pass through.
            asyncio.run(faults.check_async("gateway", name="tag:other"))
        finally:
            faults.clear()

    def test_check_async_hang_sleeps_async(self):
        faults.install("hang:site=gateway,name=slow,hang_s=0.02")
        try:
            async def run():
                loop = asyncio.get_running_loop()
                t0 = loop.time()
                # A concurrent task must keep running during the hang.
                ticks = []

                async def ticker():
                    for _ in range(4):
                        ticks.append(1)
                        await asyncio.sleep(0.004)

                task = asyncio.ensure_future(ticker())
                await faults.check_async("gateway", name="slow")
                await task
                return loop.time() - t0, len(ticks)

            elapsed, n_ticks = asyncio.run(run())
            assert elapsed >= 0.02
            assert n_ticks == 4
        finally:
            faults.clear()


class TestSubscriberStall:
    def test_stalled_subscriber_evicted_healthy_one_survives(self):
        faults.install(
            "hang:site=gateway,name=subscriber:slow,hang_s=5,attempts=99"
        )
        try:
            async def run():
                gw = Gateway(
                    GatewayConfig(
                        seed=7,
                        keepalive_timeout_s=30.0,
                        stall_timeout_s=0.05,
                        queue_maxlen=2,
                    )
                )
                await gw.register_tag("t0")
                slow = gw.subscribe("slow", policy=Backpressure.BLOCK)
                fast = gw.subscribe("fast")
                fast_events = []

                async def consume_fast():
                    try:
                        async for ev in fast:
                            fast_events.append(ev)
                    except Exception:
                        pass

                async def consume_slow():
                    try:
                        async for _ in slow:
                            pass
                    except SubscriptionClosed:
                        pass

                t1 = asyncio.ensure_future(consume_fast())
                t2 = asyncio.ensure_future(consume_slow())
                stats = await gw.serve(make_source(max_packets=10))
                await t1
                t2.cancel()
                return gw, stats, slow, fast_events

            gw, stats, slow, fast_events = asyncio.run(run())
            assert stats.n_subscriber_evictions == 1
            assert slow.closed and "stalled" in slow.close_reason
            # The healthy subscriber kept receiving: all packets plus
            # the eviction notice itself.
            packets = [e for e in fast_events if isinstance(e, PacketEvent)]
            assert len(packets) == 10
            notices = [
                e for e in fast_events
                if isinstance(e, ControlEvent) and e.kind == "subscriber_evicted"
            ]
            assert len(notices) == 1 and "slow" in notices[0].detail
            assert stats.drained_clean
        finally:
            faults.clear()


class TestTagTaskCrash:
    def test_crashed_tag_evicted_gateway_keeps_serving(self):
        faults.install("raise:site=gateway,name=tag:tag-001")
        try:
            async def run():
                gw = Gateway(GatewayConfig(seed=7, keepalive_timeout_s=30.0, queue_maxlen=512))
                for i in range(4):
                    await gw.register_tag(f"tag-{i:03d}")
                sub = gw.subscribe("s")
                events = []

                async def consume():
                    try:
                        async for ev in sub:
                            events.append(ev)
                    except Exception:
                        pass

                task = asyncio.ensure_future(consume())
                stats = await gw.serve(make_source(max_packets=20))
                await task
                return gw, stats, events

            gw, stats, events = asyncio.run(run())
            assert stats.n_tag_crashes == 1
            assert stats.n_tag_evictions == 1
            evicted = [
                e for e in events
                if isinstance(e, ControlEvent) and e.kind == "evicted"
            ]
            assert [e.tag_id for e in evicted] == ["tag-001"]
            assert "crashed" in evicted[0].detail
            # Service continued: every scheduled packet was handled and
            # the surviving tags kept winning slots.
            assert stats.n_packets == 20
            assert len(gw.control) == 0  # drained deregisters the rest
            assert stats.drained_clean
        finally:
            faults.clear()

    def test_crash_spec_for_absent_tag_changes_nothing(self):
        faults.install("raise:site=gateway,name=tag:ghost")
        try:
            async def run():
                gw = Gateway(GatewayConfig(seed=7, keepalive_timeout_s=30.0))
                await gw.register_tag("real")
                stats = await gw.serve(make_source(max_packets=5))
                return stats

            stats = asyncio.run(run())
            assert stats.n_tag_crashes == 0
            assert stats.n_packets == 5
        finally:
            faults.clear()
