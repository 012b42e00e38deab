"""Gateway service: concurrency, liveness, determinism, drain."""

import asyncio
import math

import numpy as np
import pytest

from repro.gateway import (
    AsyncExcitationSource,
    Backpressure,
    ControlEvent,
    ControlPlane,
    Gateway,
    GatewayConfig,
    PacketEvent,
    SubscriptionHub,
)
from repro.phy.protocols import Protocol
from repro.sim.traffic import ExcitationSource


def traffic(rate_pkts: float = 200.0) -> list[ExcitationSource]:
    return [
        ExcitationSource(protocol=p, rate_pkts=rate_pkts, periodic=False)
        for p in Protocol
    ]


def make_source(max_packets: int, seed: int = 3) -> AsyncExcitationSource:
    return AsyncExcitationSource(
        traffic(),
        duration_s=0.5,
        rng=np.random.default_rng(seed),
        max_packets=max_packets,
    )


async def collect(sub):
    events = []
    try:
        async for ev in sub:
            events.append(ev)
    except Exception:
        pass
    return events


class TestConcurrentTags:
    def test_64_tags_two_subscribers_zero_drops_clean_drain(self):
        async def run():
            gw = Gateway(GatewayConfig(seed=7, keepalive_timeout_s=30.0, queue_maxlen=512))
            for i in range(64):
                await gw.register_tag(f"tag-{i:03d}")
            arbitrate = gw.mac.arbitrate

            def counting(ids):
                contenders.append(len(ids))
                return arbitrate(ids)

            gw.mac.arbitrate = counting
            subs = [gw.subscribe(f"sub-{j}") for j in range(2)]
            tasks = [asyncio.ensure_future(collect(s)) for s in subs]
            stats = await gw.serve(make_source(max_packets=32))
            streams = await asyncio.gather(*tasks)
            return stats, streams

        contenders = []
        stats, streams = asyncio.run(run())
        assert stats.n_packets == 32
        assert stats.drained_clean
        assert stats.n_dropped_events == 0
        # Both subscribers saw the identical event sequence.
        assert len(streams[0]) == len(streams[1]) > 32
        for a, b in zip(*streams):
            assert type(a) is type(b)
            if isinstance(a, PacketEvent):
                assert (a.tag_id, a.seq, a.time_s) == (b.tag_id, b.seq, b.time_s)
        # Every slot was contended by all 64 live tags.
        assert contenders == [64] * 32

    def test_packet_work_spreads_across_tags(self):
        async def run():
            gw = Gateway(GatewayConfig(seed=1, keepalive_timeout_s=30.0, queue_maxlen=512))
            for i in range(8):
                await gw.register_tag(f"tag-{i}")
            sub = gw.subscribe("s")
            task = asyncio.ensure_future(collect(sub))
            await gw.serve(make_source(max_packets=40))
            return [e for e in await task if isinstance(e, PacketEvent)]

        packets = asyncio.run(run())
        winners = {e.tag_id for e in packets}
        assert len(winners) > 1  # arbitration isn't pinned to one tag


class TestReplayDeterminism:
    def run_once(self):
        async def run():
            gw = Gateway(GatewayConfig(seed=21, keepalive_timeout_s=30.0, queue_maxlen=512))
            for i in range(5):
                await gw.register_tag(f"tag-{i}")
            sub = gw.subscribe("s")
            task = asyncio.ensure_future(collect(sub))
            await gw.serve(make_source(max_packets=24, seed=11))
            return [e for e in await task if isinstance(e, PacketEvent)]

        return asyncio.run(run())

    def test_same_seed_bit_identical_replay(self):
        first = self.run_once()
        second = self.run_once()
        assert len(first) == len(second) > 0
        for a, b in zip(first, second):
            assert (a.tag_id, a.seq, a.time_s) == (b.tag_id, b.seq, b.time_s)
            oa, ob = a.outcome, b.outcome
            assert (
                oa.protocol,
                oa.start_s,
                oa.identified,
                oa.backscattered,
                oa.tag_bits_sent,
                oa.tag_bits_correct,
                oa.productive_bits_correct,
                oa.productive_bits_total,
            ) == (
                ob.protocol,
                ob.start_s,
                ob.identified,
                ob.backscattered,
                ob.tag_bits_sent,
                ob.tag_bits_correct,
                ob.productive_bits_correct,
                ob.productive_bits_total,
            )
            assert np.array_equal(oa.tag_bits_decoded, ob.tag_bits_decoded)


class TestControlPlane:
    def test_keepalive_timeout_evicts_silent_tag(self):
        async def run():
            gw = Gateway(
                GatewayConfig(
                    seed=2,
                    keepalive_timeout_s=0.02,
                    keepalive_interval_s=0.005,
                    queue_maxlen=512,
                )
            )
            session = await gw.register_tag("quiet")
            # The tag goes quiet: no crash is observed, its keepalive
            # just stops refreshing -- only the timeout can evict it.
            gw.suspend_heartbeat("quiet")
            sub = gw.subscribe("s")
            task = asyncio.ensure_future(collect(sub))
            await asyncio.sleep(0.05)
            stats = await gw.serve(make_source(max_packets=10))
            events = await task
            return stats, events, session

        stats, events, _ = asyncio.run(run())
        assert stats.n_tag_evictions == 1
        kinds = [e.kind for e in events if isinstance(e, ControlEvent)]
        assert "evicted" in kinds
        detail = next(
            e.detail for e in events
            if isinstance(e, ControlEvent) and e.kind == "evicted"
        )
        assert "keepalive" in detail

    def test_carrier_assignment_published(self):
        async def run():
            gw = Gateway(GatewayConfig(seed=2, keepalive_timeout_s=30.0, queue_maxlen=512))
            await gw.register_tag("t")
            sub = gw.subscribe("s")
            source = make_source(max_packets=4)
            choice = await gw.assign_carrier(source.observed_rates())
            task = asyncio.ensure_future(collect(sub))
            await gw.serve(source)
            events = await task
            return choice, events

        choice, events = asyncio.run(run())
        assert choice is not None
        assigned = [
            e for e in events
            if isinstance(e, ControlEvent) and e.kind == "carrier_assigned"
        ]
        assert len(assigned) == 1 and assigned[0].protocol is choice
        assert "kbps" in assigned[0].detail

    def test_unmeetable_goal_assigns_none(self):
        async def run():
            gw = Gateway(GatewayConfig(seed=2))
            source = make_source(max_packets=2)
            return await gw.assign_carrier(
                source.observed_rates(), goal_kbps=1e9
            )

        assert asyncio.run(run()) is None

    def test_subscriber_queue_bound_is_the_configs(self):
        gw = Gateway(GatewayConfig(seed=0, queue_maxlen=5))
        assert gw.subscribe("s").queue.maxsize == 5

    def test_registered_tag_gets_its_streams_first_payload(self):
        control = ControlPlane()
        session = control.register("t", rng=np.random.default_rng(12))
        want = np.random.default_rng(12).integers(0, 2, 4096).astype(np.uint8)
        assert session.payload.tobytes() == want.tobytes()

    def test_duplicate_registration_rejected(self):
        async def run():
            gw = Gateway(GatewayConfig(seed=0))
            await gw.register_tag("dup")
            with pytest.raises(ValueError, match="already registered"):
                await gw.register_tag("dup")
            await gw.deregister_tag("dup")

        asyncio.run(run())


class TestRejectedRegistration:
    """A rejected registration spawns no stream from the gateway seed, so
    every tag registered after it gets the stream it would have had."""

    @staticmethod
    def draws_of_b(reject) -> tuple[list[int], dict]:
        async def run():
            gw = Gateway(GatewayConfig(seed=0))
            await reject(gw)
            session = await gw.register_tag("b")
            return session.rng.integers(0, 2**30, 3).tolist(), session.rng.bit_generator.state

        return asyncio.run(run())

    @staticmethod
    async def nothing(gw):
        pass

    @staticmethod
    async def duplicate_id(gw):
        await gw.register_tag("a")
        with pytest.raises(ValueError, match="already registered"):
            await gw.register_tag("a")
        await gw.deregister_tag("a")

    def test_duplicate_id(self):
        async def registered_once(gw):
            await gw.register_tag("a")
            await gw.deregister_tag("a")

        want = self.draws_of_b(registered_once)
        assert self.draws_of_b(self.duplicate_id) == want
        assert want != self.draws_of_b(self.nothing)


class TestPublisherDeath:
    """A publisher that dies mid-stream fails ``serve`` with its error,
    whether the air loop's next hand-off finds room in the queue (and
    skips the wait) or finds it full."""

    @staticmethod
    def serve_with_failing_publish(decode_batch, *, hold_until_full):
        async def run():
            gw = Gateway(
                GatewayConfig(seed=2, keepalive_timeout_s=30.0, decode_batch=decode_batch)
            )
            await gw.register_tag("t")
            publish = gw._publish_outcome
            calls = []
            seen_full = []

            async def failing(session, outcome, latency_s):
                calls.append(outcome)
                if len(calls) == 3:
                    while hold_until_full and not gw._publish_queue.full():
                        await asyncio.sleep(0)
                    seen_full.append(gw._publish_queue.full())
                    raise RuntimeError("publisher failed on packet 3")
                await publish(session, outcome, latency_s)

            gw._publish_outcome = failing
            with pytest.raises(RuntimeError, match="publisher failed on packet 3"):
                await asyncio.wait_for(gw.serve(make_source(max_packets=400)), 60.0)
            return gw, len(calls), seen_full

        return asyncio.run(run())

    def test_inline_with_room_in_the_queue(self):
        gw, n_calls, seen_full = self.serve_with_failing_publish(1, hold_until_full=False)
        assert n_calls == 3 and seen_full == [False]
        # It surfaced at the next hand-off, not at the end of the stream.
        assert gw.stats.n_packets < 10
        assert not gw._running and gw._publisher_task is None

    def test_batched_with_a_full_queue(self):
        gw, n_calls, seen_full = self.serve_with_failing_publish(4, hold_until_full=True)
        assert n_calls == 3 and seen_full == [True]
        assert gw.stats.n_packets < 400
        assert not gw._running and gw._publisher_task is None


class TestStalledBlockSubscriber:
    def test_full_queue_waits_then_evicts_at_the_stall_timeout(self):
        stall_s = 0.3

        async def run():
            gw = Gateway(GatewayConfig(seed=5, keepalive_timeout_s=30.0, stall_timeout_s=stall_s, queue_maxlen=2))
            await gw.register_tag("t")
            stuck = gw.subscribe("stuck")
            live = gw.subscribe("live")
            task = asyncio.ensure_future(collect(live))
            stats = await gw.serve(make_source(max_packets=12))
            return stats, stuck, await task

        stats, stuck, events = asyncio.run(run())
        assert stuck.closed and "stalled" in stuck.close_reason
        assert stats.n_subscriber_evictions == 1
        assert stats.elapsed_s >= stall_s
        assert sum(isinstance(e, PacketEvent) for e in events) == stats.n_published == 12


class TestRangeChecks:
    """NaN fails every range check; infinite timeouts stay legal."""

    @pytest.mark.parametrize(
        ("cls", "field"),
        [
            (ControlPlane, "keepalive_timeout_s"),
            (SubscriptionHub, "stall_timeout_s"),
            (GatewayConfig, "decode_timeout_s"),
        ],
    )
    def test_nan_is_rejected(self, cls, field):
        with pytest.raises(ValueError, match=field):
            cls(**{field: math.nan})

    def test_infinite_timeouts_are_accepted(self):
        GatewayConfig(
            keepalive_timeout_s=math.inf,
            decode_timeout_s=math.inf,
            drain_timeout_s=math.inf,
        )
        ControlPlane(keepalive_timeout_s=math.inf)
        SubscriptionHub(stall_timeout_s=math.inf)


class TestShutdown:
    def test_request_stop_drains_mid_schedule(self):
        async def run():
            gw = Gateway(GatewayConfig(seed=4, keepalive_timeout_s=30.0, queue_maxlen=512))
            await gw.register_tag("t")
            sub = gw.subscribe("s")
            task = asyncio.ensure_future(collect(sub))

            async def stop_soon():
                while gw.stats.n_packets < 5:
                    await asyncio.sleep(0.001)
                gw.request_stop()

            stopper = asyncio.ensure_future(stop_soon())
            stats = await gw.serve(make_source(max_packets=500))
            await stopper
            events = await task
            return stats, events

        stats, events = asyncio.run(run())
        assert 5 <= stats.n_packets < 500
        assert stats.drained_clean
        kinds = [e.kind for e in events if isinstance(e, ControlEvent)]
        assert kinds[-1] == "drained"
        assert "draining" in kinds

    def test_serve_twice_sequentially_is_rejected_concurrently(self):
        async def run():
            gw = Gateway(GatewayConfig(seed=4))
            await gw.register_tag("t")
            first = asyncio.ensure_future(gw.serve(make_source(max_packets=200)))
            await asyncio.sleep(0.01)
            with pytest.raises(RuntimeError, match="already serving"):
                await gw.serve(make_source(max_packets=1))
            gw.request_stop()
            await first

        asyncio.run(run())

    def test_decode_batching_preserves_event_order(self):
        def run(decode_batch):
            async def inner():
                gw = Gateway(
                    GatewayConfig(
                        seed=6,
                        keepalive_timeout_s=30.0,
                        decode_batch=decode_batch,
                        queue_maxlen=512,
                    )
                )
                await gw.register_tag("t", rng=np.random.default_rng(99))
                sub = gw.subscribe("s")
                task = asyncio.ensure_future(collect(sub))
                await gw.serve(make_source(max_packets=16, seed=5))
                return [e for e in await task if isinstance(e, PacketEvent)]

            return asyncio.run(inner())

        unbatched = run(1)
        batched = run(8)
        assert [e.seq for e in batched] == [e.seq for e in unbatched]
        for a, b in zip(batched, unbatched):
            assert a.time_s == b.time_s
            assert np.array_equal(a.outcome.tag_bits_decoded, b.outcome.tag_bits_decoded)
