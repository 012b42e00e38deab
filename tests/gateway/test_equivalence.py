"""Streaming-vs-batch equivalence: the refactor's core contract.

Three implementations must produce byte-identical ``PacketOutcome``
sequences on the same seed:

* the frozen pre-refactor monolith (``reference_run_airlink`` in
  ``tests/reference_impls.py``);
* the thin batch driver (:func:`repro.sim.airlink.run_airlink`) over
  the extracted pipeline;
* the streaming gateway feeding the pipeline one packet at a time.

All three run the same PHY kernels, so a fault inside a kernel would
pass every relative check; :data:`MIXED_STREAM_SHA256` and
:data:`MISS_STREAM_SHA256` pin the gateway's published stream in
absolute bytes.
"""

import asyncio
import hashlib

import numpy as np
import pytest

from repro.core.tag import MultiscatterTag
from repro.gateway import AsyncExcitationSource, Gateway, GatewayConfig, PacketEvent
from repro.phy.protocols import Protocol
from repro.sim.airlink import run_airlink
from repro.sim.pipeline import PendingReception
from repro.sim.traffic import ExcitationSchedule, ExcitationSource

from tests.reference_impls import reference_run_airlink

SEED = 2024
N_PACKETS = 12
#: A longer run of the same schedule whose 16th packet (an 802.11n one)
#: the tag identifies as ZigBee: the miss short-circuits past the decode
#: stage, so a batch can hold ready outcomes and receptions together.
N_MISS_PACKETS = 20


def mixed_sources() -> list[ExcitationSource]:
    return [
        ExcitationSource(protocol=p, rate_pkts=80.0, periodic=False)
        for p in Protocol
    ]


def batch_schedule() -> ExcitationSchedule:
    return ExcitationSchedule.generate(
        mixed_sources(), duration_s=0.4, rng=np.random.default_rng(5)
    )


def outcome_tuple(o):
    return (
        o.protocol,
        o.start_s,
        o.identified,
        o.backscattered,
        o.tag_bits_sent,
        o.tag_bits_correct,
        o.productive_bits_correct,
        o.productive_bits_total,
    )


#: sha256 over :func:`event_record` of every ``PacketEvent`` the
#: gateway publishes for the mixed schedule (``MultiscatterTag``,
#: :data:`N_PACKETS` packets).  Holds at any ``decode_batch`` and
#: ``decode_workers``; a change here is a change in the decoded bits.
#: Computed on Python 3.11 with numpy 2.4.6 and scipy 1.17.1
#: (``ci/constraints.txt``, which both CI legs, Python 3.11 and 3.12,
#: install).
MIXED_STREAM_SHA256 = "8131132e862f5a98e9c1b49c5e11f44583d3906cec77b7c5359ed5268961d5ff"

#: :data:`MIXED_STREAM_SHA256` over the first :data:`N_MISS_PACKETS`
#: packets, which hold the schedule's first identification miss: pins
#: the short-circuit path, which the relative checks share with the
#: frozen monolith.  Same toolchain and invariance as above.
MISS_STREAM_SHA256 = "ef1be75ccc4aa6ad511846404b07a9f332e4c5471439d4442e0701f151658388"


def event_record(ev: PacketEvent) -> bytes:
    """Canonical bytes of one ``PacketEvent``.

    Every field except the wall-clock ``decode_latency_s``, with the
    decoded tag bits included.
    """
    o = ev.outcome
    fields = (
        ev.tag_id,
        int(ev.seq),
        repr(float(ev.time_s)),
        int(ev.stream_seq),
        o.protocol.name,
        repr(float(o.start_s)),
        o.identified.name if o.identified is not None else "-",
        int(bool(o.backscattered)),
        int(o.tag_bits_sent),
        int(o.tag_bits_correct),
        int(o.productive_bits_correct),
        int(o.productive_bits_total),
        np.asarray(o.tag_bits_decoded, dtype=np.uint8).tobytes().hex(),
    )
    return ("|".join(str(f) for f in fields) + "\n").encode()


def stream_digest(events) -> str:
    """sha256 over the records of the ``PacketEvent``s in ``events``."""
    h = hashlib.sha256()
    for ev in events:
        if isinstance(ev, PacketEvent):
            h.update(event_record(ev))
    return h.hexdigest()


def stream_events(*, decode_batch: int = 1, n_packets: int = N_PACKETS):
    """Run the gateway over the same schedule and collect its events."""

    async def run():
        source = AsyncExcitationSource(
            mixed_sources(),
            duration_s=0.4,
            rng=np.random.default_rng(5),
            max_packets=n_packets,
        )
        gw = Gateway(
            GatewayConfig(
                seed=0, keepalive_timeout_s=30.0, decode_batch=decode_batch, queue_maxlen=256
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
        return events

    return asyncio.run(run())


def stream_outcomes(*, decode_batch: int = 1, n_packets: int = N_PACKETS):
    """The outcomes of :func:`stream_events`, in publication order."""
    return [
        ev.outcome
        for ev in stream_events(decode_batch=decode_batch, n_packets=n_packets)
        if isinstance(ev, PacketEvent)
    ]


def record_batches(monkeypatch) -> list[tuple[bool, ...]]:
    """Record every batch the gateway hands to its publisher as one
    flag per packet: ``True`` for a reception awaiting decode, ``False``
    for an outcome that skipped it (an identification miss)."""
    batches: list[tuple[bool, ...]] = []
    dispatch = Gateway._dispatch_batch

    async def recording(self, pending):
        if pending:
            batches.append(
                tuple(isinstance(staged, PendingReception) for *_, staged in pending)
            )
        await dispatch(self, pending)

    monkeypatch.setattr(Gateway, "_dispatch_batch", recording)
    return batches


def has_mixed_batch(batches) -> bool:
    """Did a batch hold a miss beside a reception?"""
    return any(any(b) and not all(b) for b in batches)


def assert_same_as_batch_driver(streamed):
    """``streamed`` equals the batch driver's outcomes over the first
    :data:`N_MISS_PACKETS` packets."""
    report = run_airlink(
        batch_schedule(),
        rng=np.random.default_rng(SEED),
        max_packets=N_MISS_PACKETS,
    )
    assert len(streamed) == len(report.outcomes) == N_MISS_PACKETS
    for got, want in zip(streamed, report.outcomes):
        assert outcome_tuple(got) == outcome_tuple(want)
        assert np.array_equal(got.tag_bits_decoded, want.tag_bits_decoded)


def assert_matches_reference(outcomes, reference):
    assert len(outcomes) == len(reference)
    for got, ref in zip(outcomes, reference):
        assert outcome_tuple(got) == ref[:8]
        assert np.array_equal(got.tag_bits_decoded, ref[8])


class TestBatchDriverAgainstFrozenMonolith:
    def test_multiscatter_mixed_schedule(self):
        sched = batch_schedule()
        ref = reference_run_airlink(
            sched,
            MultiscatterTag(),
            rng=np.random.default_rng(SEED),
            max_packets=N_PACKETS,
        )
        report = run_airlink(
            sched,
            rng=np.random.default_rng(SEED),
            max_packets=N_PACKETS,
        )
        assert_matches_reference(report.outcomes, ref)

    def test_identification_misses(self):
        sched = batch_schedule()
        ref = reference_run_airlink(
            sched,
            MultiscatterTag(),
            rng=np.random.default_rng(SEED),
            max_packets=N_MISS_PACKETS,
        )
        report = run_airlink(
            sched,
            rng=np.random.default_rng(SEED),
            max_packets=N_MISS_PACKETS,
        )
        assert any(not o.backscattered for o in report.outcomes)
        assert_matches_reference(report.outcomes, ref)


class TestStreamingAgainstBatch:
    def test_multiscatter_streaming_matches_frozen_monolith(self):
        ref = reference_run_airlink(
            batch_schedule(),
            MultiscatterTag(),
            rng=np.random.default_rng(SEED),
            max_packets=N_PACKETS,
        )
        assert_matches_reference(stream_outcomes(), ref)

    @pytest.mark.parametrize("decode_batch", (2, 4, 8))
    def test_batched_misses_stream_as_batch(self, monkeypatch, decode_batch):
        # With decode_batch > 1 a miss waits in its batch behind the
        # receptions staged before it, and still publishes in order.
        # The miss is a batch's 2nd, 4th and 8th packet at these sizes.
        batches = record_batches(monkeypatch)
        streamed = stream_outcomes(decode_batch=decode_batch, n_packets=N_MISS_PACKETS)
        assert has_mixed_batch(batches)
        assert_same_as_batch_driver(streamed)

    def test_lone_miss_batch_streams_as_batch(self, monkeypatch):
        # A miss staged while no reception waits is a batch of its own:
        # the decode stage gets nothing to decode, and the miss still
        # publishes between its neighbours.
        batches = record_batches(monkeypatch)
        streamed = stream_outcomes(decode_batch=3, n_packets=N_MISS_PACKETS)
        assert (False,) in batches
        assert_same_as_batch_driver(streamed)

    def test_batched_decode_stage_is_bit_identical(self):
        # decode_batch > 1 defers RNG-free decodes into groups; draw
        # order and decoded bits must not move.
        unbatched = stream_outcomes(decode_batch=1)
        batched = stream_outcomes(decode_batch=6)
        assert len(batched) == len(unbatched) == N_PACKETS
        for a, b in zip(batched, unbatched):
            assert outcome_tuple(a) == outcome_tuple(b)
            assert np.array_equal(a.tag_bits_decoded, b.tag_bits_decoded)


class TestGoldenStream:
    def test_mixed_schedule_stream_digest(self):
        events = stream_events()
        assert sum(isinstance(ev, PacketEvent) for ev in events) == N_PACKETS
        assert stream_digest(events) == MIXED_STREAM_SHA256

    def test_miss_schedule_stream_digest(self):
        events = stream_events(n_packets=N_MISS_PACKETS)
        outcomes = [ev.outcome for ev in events if isinstance(ev, PacketEvent)]
        assert len(outcomes) == N_MISS_PACKETS
        assert any(not o.backscattered for o in outcomes)
        assert stream_digest(events) == MISS_STREAM_SHA256
