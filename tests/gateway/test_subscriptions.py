"""Data-plane queues: policies, bounds, eviction, drain."""

import asyncio

import pytest

from repro.gateway.events import ControlEvent
from repro.gateway.subscriptions import (
    Backpressure,
    SubscriptionClosed,
    SubscriptionHub,
)


def event(n: int) -> ControlEvent:
    return ControlEvent(kind="test", time_s=float(n), detail=str(n))


class TestSubscribe:
    def test_duplicate_name_rejected(self):
        hub = SubscriptionHub()
        hub.subscribe("a")
        with pytest.raises(ValueError, match="already exists"):
            hub.subscribe("a")

    def test_queue_bound_is_the_hubs(self):
        hub = SubscriptionHub(default_maxlen=3)
        assert hub.subscribe("a").queue.maxsize == 3

    def test_bad_hub_bounds_rejected(self):
        with pytest.raises(ValueError):
            SubscriptionHub(default_maxlen=0)
        with pytest.raises(ValueError):
            SubscriptionHub(stall_timeout_s=0.0)


class TestBlockPolicy:
    def test_lossless_when_consumer_keeps_up(self):
        async def run():
            hub = SubscriptionHub(default_maxlen=4)
            sub = hub.subscribe("s", policy=Backpressure.BLOCK)
            got = []

            async def consume():
                for _ in range(20):
                    got.append(await sub.get())

            task = asyncio.ensure_future(consume())
            for i in range(20):
                await hub.publish(event(i))
            await task
            return got

        got = asyncio.run(run())
        assert [e.detail for e in got] == [str(i) for i in range(20)]

    def test_stalled_consumer_evicted_after_timeout(self):
        async def run():
            hub = SubscriptionHub(default_maxlen=2, stall_timeout_s=0.05)
            sub = hub.subscribe("stuck", policy=Backpressure.BLOCK)
            evicted = []
            for i in range(5):  # never consumed; queue fills at 2
                evicted += await hub.publish(event(i))
            return sub, evicted

        sub, evicted = asyncio.run(run())
        assert [s.name for s in evicted] == ["stuck"]
        assert sub.closed and "stalled" in sub.close_reason


    def test_room_in_queue_delivers_without_yielding(self):
        async def run():
            hub = SubscriptionHub(default_maxlen=2)
            sub = hub.subscribe("s", policy=Backpressure.BLOCK)
            ran = []
            asyncio.get_running_loop().call_soon(ran.append, "loop ran")
            evicted = await hub.publish(event(0))
            evicted += await hub.publish(event(1))
            return list(ran), evicted, sub

        ran, evicted, sub = asyncio.run(run())
        assert ran == [] and evicted == []
        assert sub.qsize() == 2 and sub.delivered == 2

    def test_full_queue_waits_for_space_within_the_timeout(self):
        async def run():
            hub = SubscriptionHub(default_maxlen=1, stall_timeout_s=5.0)
            sub = hub.subscribe("slow", policy=Backpressure.BLOCK)
            await hub.publish(event(0))

            async def consume_later():
                await asyncio.sleep(0.05)
                return await sub.get()

            consumer = asyncio.ensure_future(consume_later())
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            evicted = await hub.publish(event(1))
            return loop.time() - t0, evicted, await consumer, sub

        waited_s, evicted, first, sub = asyncio.run(run())
        assert evicted == [] and not sub.closed
        assert waited_s >= 0.04 and first.detail == "0"
        assert sub.delivered == 2

    def test_full_queue_evicts_at_the_stall_timeout(self):
        stall_s = 0.2

        async def run():
            hub = SubscriptionHub(default_maxlen=1, stall_timeout_s=stall_s)
            sub = hub.subscribe("stuck", policy=Backpressure.BLOCK)
            await hub.publish(event(0))
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            evicted = await hub.publish(event(1))
            return loop.time() - t0, evicted, sub

        waited_s, evicted, sub = asyncio.run(run())
        assert [s.name for s in evicted] == ["stuck"]
        assert stall_s * 0.9 <= waited_s < stall_s + 2.0
        assert sub.delivered == 1


class TestDropOldestPolicy:
    def test_drops_oldest_keeps_newest(self):
        async def run():
            hub = SubscriptionHub(default_maxlen=3)
            sub = hub.subscribe("lossy", policy=Backpressure.DROP_OLDEST)
            for i in range(10):
                await hub.publish(event(i))
            kept = [sub.queue.get_nowait() for _ in range(sub.qsize())]
            return sub, kept

        sub, kept = asyncio.run(run())
        assert sub.dropped == 7
        assert [e.detail for e in kept] == ["7", "8", "9"]

    def test_never_evicted(self):
        async def run():
            hub = SubscriptionHub(default_maxlen=1)
            sub = hub.subscribe("lossy", policy=Backpressure.DROP_OLDEST)
            evicted = []
            for i in range(50):
                evicted += await hub.publish(event(i))
            return sub, evicted

        sub, evicted = asyncio.run(run())
        assert evicted == [] and not sub.closed


class TestDisconnectPolicy:
    def test_overflow_disconnects(self):
        async def run():
            hub = SubscriptionHub(default_maxlen=2)
            sub = hub.subscribe("strict", policy=Backpressure.DISCONNECT)
            evicted = []
            for i in range(4):
                evicted += await hub.publish(event(i))
            return sub, evicted

        sub, evicted = asyncio.run(run())
        assert [s.name for s in evicted] == ["strict"]
        assert sub.closed and "overflow" in sub.close_reason


class TestCloseSemantics:
    def test_blocked_get_wakes_on_close(self):
        async def run():
            hub = SubscriptionHub()
            sub = hub.subscribe("s")

            async def consume():
                with pytest.raises(SubscriptionClosed):
                    while True:
                        await sub.get()

            task = asyncio.ensure_future(consume())
            await asyncio.sleep(0.01)  # let the consumer block on get()
            hub.unsubscribe("s", reason="test over")
            await asyncio.wait_for(task, timeout=1.0)

        asyncio.run(run())

    def test_aiter_stops_cleanly(self):
        async def run():
            hub = SubscriptionHub()
            sub = hub.subscribe("s")
            await hub.publish(event(0))
            await hub.publish(event(1))
            hub.close_all()
            return [e.detail async for e in sub]

        assert asyncio.run(run()) == ["0", "1"]

    def test_queued_events_still_readable_after_close(self):
        async def run():
            hub = SubscriptionHub(default_maxlen=8)
            sub = hub.subscribe("s")
            for i in range(3):
                await hub.publish(event(i))
            hub.unsubscribe("s")
            got = [await sub.get() for _ in range(3)]
            with pytest.raises(SubscriptionClosed):
                await sub.get()
            return got

        assert [e.detail for e in asyncio.run(run())] == ["0", "1", "2"]


class TestDrain:
    def test_drain_waits_for_consumers(self):
        async def run():
            hub = SubscriptionHub(default_maxlen=16)
            sub = hub.subscribe("s")
            for i in range(8):
                await hub.publish(event(i))

            async def slow_consume():
                while True:
                    await asyncio.sleep(0.002)
                    try:
                        sub.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        return

            task = asyncio.ensure_future(slow_consume())
            ok = await hub.drain(timeout_s=2.0)
            await task
            return ok

        assert asyncio.run(run())

    def test_drain_times_out_on_stuck_consumer(self):
        async def run():
            hub = SubscriptionHub(default_maxlen=16)
            hub.subscribe("stuck")
            await hub.publish(event(0))
            return await hub.drain(timeout_s=0.05)

        assert not asyncio.run(run())
