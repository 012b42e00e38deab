"""Sharded data plane: worker pools must be invisible in the bytes.

The decode pool is a pure throughput device: for any
``decode_workers`` count the published ``PacketOutcome`` stream must
be byte-identical to the inline (``decode_workers=0``) gateway, which
is itself byte-identical to the batch driver (see
``test_equivalence.py``).  This module proves that, plus the failure
half of the contract: a killed or wedged decode worker is replaced and
its batches re-decoded bit-identically, and a hard-cancelled serve
leaves no orphaned worker processes behind.
"""

import asyncio
import math
import time

import numpy as np
import pytest

from repro.gateway import AsyncExcitationSource, Gateway, GatewayConfig, PacketEvent
from repro.phy.protocols import Protocol
from repro.sim import faults
from repro.sim.airlink import run_airlink
from repro.sim.traffic import ExcitationSource

from tests.gateway.test_equivalence import (
    MISS_STREAM_SHA256,
    MIXED_STREAM_SHA256,
    N_MISS_PACKETS,
    N_PACKETS,
    SEED,
    batch_schedule,
    has_mixed_batch,
    mixed_sources,
    outcome_tuple,
    record_batches,
    stream_digest,
    stream_events,
    stream_outcomes,
)

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(autouse=True)
def _no_inherited_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)


def serve_sharded(*, decode_workers, decode_batch=4, n_packets=N_PACKETS, **cfg_kwargs):
    """Gateway run over the equivalence schedule; returns (events, stats)."""
    gw, events = serve_gateway(
        decode_workers=decode_workers,
        decode_batch=decode_batch,
        n_packets=n_packets,
        **cfg_kwargs,
    )
    return events, gw.stats


def serve_gateway(*, decode_workers, decode_batch, n_packets=N_PACKETS, **cfg_kwargs):
    """:func:`serve_sharded`, returning the served gateway and its events."""

    async def run():
        source = AsyncExcitationSource(
            mixed_sources(),
            duration_s=0.4,
            rng=np.random.default_rng(5),
            max_packets=n_packets,
        )
        gw = Gateway(
            GatewayConfig(
                seed=0,
                keepalive_timeout_s=30.0,
                decode_workers=decode_workers,
                decode_batch=decode_batch,
                queue_maxlen=256,
                **cfg_kwargs,
            )
        )
        await gw.register_tag("t", rng=np.random.default_rng(SEED))
        sub = gw.subscribe("s")
        events = []

        async def consume():
            try:
                async for ev in sub:
                    events.append(ev)
            except Exception:
                pass

        task = asyncio.ensure_future(consume())
        await gw.serve(source)
        await task
        return gw, events

    return asyncio.run(run())


def packet_events(events):
    return [ev for ev in events if isinstance(ev, PacketEvent)]


def assert_same_outcomes(got, want, n_packets=N_PACKETS):
    assert len(got) == len(want) == n_packets
    for a, b in zip(got, want):
        assert outcome_tuple(a) == outcome_tuple(b)
        assert np.array_equal(a.tag_bits_decoded, b.tag_bits_decoded)


class TestShardedByteIdentity:
    """Any worker count reproduces the inline stream byte for byte."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_multiscatter_mixed_schedule(self, workers):
        # The mixed schedule drives all four protocols through one tag,
        # so every receiver config crosses the executor hop, several
        # protocols to a hop.
        inline = stream_events(decode_batch=4)
        events, stats = serve_sharded(decode_workers=workers)
        assert_same_outcomes(
            [ev.outcome for ev in packet_events(events)],
            [ev.outcome for ev in packet_events(inline)],
        )
        # Inline and pooled decode share every kernel, so the relative
        # check above cannot see a kernel fault; the pinned digest can.
        assert stream_digest(inline) == MIXED_STREAM_SHA256
        assert stream_digest(events) == MIXED_STREAM_SHA256
        assert stats.drained_clean and stats.n_dropped_events == 0
        assert stats.n_decode_retries == 0

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_misses_batched_with_receptions(self, monkeypatch, workers):
        # An identification miss skips the decode stage; in a batch it
        # rides behind the receptions staged before it, which cross to a
        # worker while the miss waits in the reordering buffer.
        batches = record_batches(monkeypatch)
        events, _ = serve_sharded(decode_workers=workers, n_packets=N_MISS_PACKETS)
        assert has_mixed_batch(batches)
        batch = run_airlink(
            batch_schedule(), rng=np.random.default_rng(SEED), max_packets=N_MISS_PACKETS
        )
        assert_same_outcomes(
            [ev.outcome for ev in packet_events(events)], batch.outcomes, N_MISS_PACKETS
        )
        assert stream_digest(events) == MISS_STREAM_SHA256

    @pytest.mark.parametrize("workers", (0, 2))
    def test_stream_seq_counts_the_schedule_in_order(self, workers):
        # The reordering buffer republishes in schedule order, stamped
        # with a strictly increasing gateway-global sequence number.
        events, _ = serve_sharded(decode_workers=workers)
        seqs = [ev.stream_seq for ev in packet_events(events)]
        assert seqs == list(range(1, N_PACKETS + 1))

    def test_immediate_flush_batches_match_large_batches(self):
        # decode_batch=1 dispatches one-packet hops; the batch size only
        # sets how many packets share an executor hop, never order or
        # values.
        singletons, _ = serve_sharded(decode_workers=2, decode_batch=1)
        grouped, _ = serve_sharded(decode_workers=2, decode_batch=6)
        assert_same_outcomes(
            [ev.outcome for ev in packet_events(singletons)],
            [ev.outcome for ev in packet_events(grouped)],
        )


class TestOneHopPerBatch:
    """Receptions of every protocol share their batch's executor hop."""

    @pytest.mark.parametrize("decode_batch", (4, 6))
    def test_each_batch_crosses_to_the_pool_in_one_hop(self, decode_batch):
        # The dispatch counter counts batches, not receiver configs.
        gw, _ = serve_gateway(decode_workers=1, decode_batch=decode_batch)
        assert gw._dispatch_counter == math.ceil(
            gw.stats.n_backscattered / decode_batch
        )

    def test_lone_miss_batch_makes_no_hop(self, monkeypatch):
        # At decode_batch=3 the schedule's first miss is staged while no
        # reception waits: its batch has nothing to decode, so it never
        # crosses to the pool, and it still publishes in order.
        batches = record_batches(monkeypatch)
        gw, events = serve_gateway(
            decode_workers=1, decode_batch=3, n_packets=N_MISS_PACKETS
        )
        assert (False,) in batches
        assert gw._dispatch_counter == sum(any(b) for b in batches) == len(batches) - 1
        assert stream_digest(events) == MISS_STREAM_SHA256


class TestDecodeFaultRecovery:
    """Killed/wedged workers are replaced; re-decode is bit-identical."""

    # ``index`` matches the dispatch counter (the first batch), ``name``
    # every hop whose protocol label lists a ZigBee reception.  Each
    # crash fails every dispatch in flight on that pool, so under the
    # name fault one dispatch can lose an attempt to each of the
    # schedule's three hops: its budget is one retry per hop.
    @pytest.mark.parametrize(
        ("spec", "retries"),
        [("kill:site=decode,index=0", 2), ("kill:site=decode,name=ZIGBEE", 3)],
    )
    def test_killed_worker_is_replaced_and_stream_is_identical(self, spec, retries):
        inline = stream_outcomes(decode_batch=4)
        faults.install(spec)
        try:
            events, stats = serve_sharded(decode_workers=2, decode_retries=retries)
        finally:
            faults.clear()
        assert stats.n_decode_worker_crashes >= 1
        assert stats.n_decode_retries >= 1
        assert stats.drained_clean
        assert_same_outcomes(
            [ev.outcome for ev in packet_events(events)], inline
        )
        assert stream_digest(events) == MIXED_STREAM_SHA256

    def test_hung_worker_times_out_and_stream_is_identical(self):
        inline = stream_outcomes(decode_batch=4)
        faults.install("hang:site=decode,index=0,hang_s=30")
        try:
            events, stats = serve_sharded(decode_workers=2, decode_timeout_s=2.0)
        finally:
            faults.clear()
        assert stats.n_decode_timeouts >= 1
        assert stats.n_decode_retries >= 1
        assert stats.drained_clean
        assert_same_outcomes(
            [ev.outcome for ev in packet_events(events)], inline
        )

    def test_exhausted_retry_budget_fails_serve_loudly(self):
        # A fault that outlives the budget must surface, not spin.
        faults.install("kill:site=decode,index=0,attempts=99")
        try:
            with pytest.raises(RuntimeError, match="decode"):
                serve_sharded(decode_workers=2, decode_retries=1)
        finally:
            faults.clear()


class TestHardCancelNoOrphans:
    def test_cancel_terminates_all_decode_workers(self):
        async def run():
            source = AsyncExcitationSource(
                [
                    ExcitationSource(protocol=p, rate_pkts=200.0, periodic=False)
                    for p in Protocol
                ],
                duration_s=5.0,
                rng=np.random.default_rng(3),
                max_packets=500,
            )
            gw = Gateway(
                GatewayConfig(
                    seed=2,
                    keepalive_timeout_s=30.0,
                    decode_workers=2,
                    decode_batch=2,
                    queue_maxlen=8,
                )
            )
            await gw.register_tag("t")
            sub = gw.subscribe("s")

            async def consume():
                async for _ in sub:
                    pass

            consumer = asyncio.ensure_future(consume())
            serve_task = asyncio.ensure_future(gw.serve(source))
            while gw.stats.n_published < 3:
                await asyncio.sleep(0)
            # Snapshot the pool's worker processes before the cancel
            # tears the pool down and drops the reference.
            procs = list(gw._decode_pool._processes.values())
            serve_task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await serve_task
            await asyncio.wait_for(consumer, timeout=1.0)
            return gw, sub, procs

        gw, sub, procs = asyncio.run(run())
        assert sub.closed
        assert procs, "pool never spawned a worker"
        deadline = time.monotonic() + 5.0
        while any(p.is_alive() for p in procs) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(p.is_alive() for p in procs)
        assert gw._decode_pool is None
        # elapsed_s is stamped even on the cancellation path.
        assert gw.stats.elapsed_s > 0.0

    def test_gateway_serves_again_after_cancel(self):
        async def run():
            gw = Gateway(
                GatewayConfig(
                    seed=2, keepalive_timeout_s=30.0, decode_workers=2
                )
            )
            await gw.register_tag("t")
            first = AsyncExcitationSource(
                mixed_sources(),
                duration_s=5.0,
                rng=np.random.default_rng(5),
                max_packets=500,
            )
            serve_task = asyncio.ensure_future(gw.serve(first))
            while gw.stats.n_published < 2:
                await asyncio.sleep(0)
            serve_task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await serve_task
            again = AsyncExcitationSource(
                mixed_sources(),
                duration_s=0.4,
                rng=np.random.default_rng(5),
                max_packets=3,
            )
            return await gw.serve(again)

        stats = asyncio.run(run())
        assert stats.drained_clean


class TestConfigValidation:
    def test_negative_worker_count_rejected(self):
        with pytest.raises(ValueError, match="decode_workers"):
            GatewayConfig(seed=0, decode_workers=-1)

    def test_nonpositive_decode_timeout_rejected(self):
        with pytest.raises(ValueError, match="decode_timeout_s"):
            GatewayConfig(seed=0, decode_timeout_s=0.0)
