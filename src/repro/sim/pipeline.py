"""Per-packet airlink pipeline core (excite -> identify -> backscatter
-> channel -> decode).

This is the reusable heart of the Fig 1 loop, refactored out of the
batch-only :mod:`repro.sim.airlink` so the same signal path can serve
two drivers:

* the **batch driver** (:func:`repro.sim.airlink.run_airlink`), which
  replays a whole :class:`~repro.sim.traffic.ExcitationSchedule` and
  aggregates a report -- byte-identical to the pre-refactor monolith;
* the **streaming gateway** (:mod:`repro.gateway`), which feeds the
  pipeline one scheduled packet at a time from an asyncio air loop and
  fans the decoded bits out to subscribers.

The pipeline itself is pure: it owns no payload cursor and draws no
hidden randomness -- every stochastic stage threads the caller's
``rng``, so a packet-at-a-time replay of a schedule produces the same
:class:`PacketOutcome` sequence as the batch driver on the same seed.

Receiver-side construction (overlay codec, commodity decoder,
calibrated link) is memoized by :func:`receiver_set`, one of the
:mod:`repro.core.wavecache` caches: the monolith rebuilt this
per-protocol receiver set on every call, which the gateway hot loop
cannot afford.  The decode stage runs the scalar receive chain on each
pending reception in input order, so deferring receptions into a batch
never changes a decoded bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.channel.link import PROTOCOL_LINK_DEFAULTS, BackscatterLink
from repro.channel.noise import awgn
from repro.core.identification import DEFAULT_INCIDENT_DBM
from repro.core.overlay import OverlayCodec, OverlayConfig
from repro.core.overlay_decoder import OverlayDecoder
from repro.core.tag import MultiscatterTag, TagReaction
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform
from repro.sim import faults
from repro.sim.traffic import ScheduledPacket

__all__ = [
    "PacketOutcome",
    "PendingReception",
    "DecodePayload",
    "ReceiverSet",
    "AirlinkPipeline",
    "receiver_set",
    "pending_to_payload",
    "payload_to_pending",
    "decode_pending_many",
    "decode_worker_group",
]

#: Productive bits crafted into every overlay excitation packet (the
#: monolithic loop's historical constant; changing it changes every
#: seeded experiment).
N_PRODUCTIVE_BITS = 24

#: Tag-to-receiver distance of every replay and gateway session, m; it
#: sets the calibrated decode SNR.
_D_TAG_RX_M = 2.0


@dataclass
class PacketOutcome:
    """What happened to one excitation packet."""

    protocol: Protocol
    start_s: float
    identified: Protocol | None
    backscattered: bool
    tag_bits_sent: int
    tag_bits_correct: int
    productive_bits_correct: int
    productive_bits_total: int
    tag_bits_decoded: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint8))


@dataclass(frozen=True)
class ReceiverSet:
    """One overlay layout's hoisted receive-side construction.

    Everything here is deterministic, stateless across packets, and
    shared: the overlay codec (layout arithmetic), the single-receiver
    overlay decoder, and the calibrated link budget.
    """

    codec: OverlayCodec
    decoder: OverlayDecoder
    link: BackscatterLink


@lru_cache(maxsize=32)
def receiver_set(config: OverlayConfig) -> ReceiverSet:
    """The memoized per-overlay-layout receiver set.

    The batch driver used to rebuild codec, decoder and link objects
    per packet; the construction is deterministic from the frozen
    :class:`OverlayConfig` (no RNG draws), so memoizing it changes no
    decoded bit while the gateway hot loop stops re-deriving receivers.
    Hit rates are visible in the REPRO_PERF=1 report; see
    :mod:`repro.core.wavecache`.
    """
    codec = OverlayCodec(config)
    return ReceiverSet(
        codec=codec,
        decoder=OverlayDecoder(codec),
        link=BackscatterLink(PROTOCOL_LINK_DEFAULTS[config.protocol]),
    )


@dataclass
class PendingReception:
    """A backscattered packet after the channel, awaiting decode.

    Splitting the decode stage off lets the gateway defer several
    pending receptions and decode them together (inline or on a decode
    worker) without perturbing any earlier RNG draw.  Of the tag's
    :class:`TagReaction` the decode needs only the tag bits it sent.
    """

    protocol: Protocol
    start_s: float
    identified: Protocol | None
    received: Waveform
    tag_bits_sent: np.ndarray
    productive: np.ndarray
    receivers: ReceiverSet


@dataclass
class DecodePayload:
    """A pickle-safe :class:`PendingReception` for the decode pool.

    Carries the reception's data plus the *key* of its receiver set
    (the overlay config) instead of the constructed
    :class:`ReceiverSet`: the worker rebuilds the receivers through
    :func:`receiver_set`, so the first batch a worker process sees
    warms its own wavecache and every later batch hits it.  All fields
    are plain dataclasses/arrays, so the payload crosses the process
    boundary without dragging decoder state along; the one waveform it
    carries is the received one.
    """

    protocol: Protocol
    start_s: float
    identified: Protocol | None
    received: Waveform
    tag_bits_sent: np.ndarray
    productive: np.ndarray
    config: OverlayConfig


def pending_to_payload(pending: PendingReception) -> DecodePayload:
    """Strip a pending reception down to its picklable decode inputs."""
    return DecodePayload(
        protocol=pending.protocol,
        start_s=pending.start_s,
        identified=pending.identified,
        received=pending.received,
        tag_bits_sent=pending.tag_bits_sent,
        productive=pending.productive,
        config=pending.receivers.codec.config,
    )


def payload_to_pending(payload: DecodePayload) -> PendingReception:
    """Rebuild a decodable reception in the receiving process.

    ``receiver_set`` is memoized per process, so this is the worker's
    cache-warmup path: construction cost is paid once per config per
    worker, never per packet.
    """
    return PendingReception(
        protocol=payload.protocol,
        start_s=payload.start_s,
        identified=payload.identified,
        received=payload.received,
        tag_bits_sent=payload.tag_bits_sent,
        productive=payload.productive,
        receivers=receiver_set(payload.config),
    )


class AirlinkPipeline:
    """The per-packet excite -> identify -> backscatter -> channel ->
    decode pipeline for one :class:`~repro.core.tag.MultiscatterTag`,
    2 m from the receiver.
    """

    def __init__(self) -> None:
        self.tag = MultiscatterTag()

    # -- stages 1-4: excite, identify, backscatter, channel ------------
    def excite_and_react(
        self,
        scheduled: ScheduledPacket,
        payload: np.ndarray,
        cursor: int,
        rng: np.random.Generator,
    ) -> tuple[PacketOutcome | PendingReception, int]:
        """Run every stage up to (not including) the decode.

        Returns either a finished :class:`PacketOutcome` (the tag did
        not transmit) or a :class:`PendingReception` ready for the
        decode stage, plus the advanced payload cursor.
        """
        protocol = scheduled.protocol
        modulator = self.tag.modulator_for(protocol)
        codec = modulator.codec
        receivers = receiver_set(codec.config)
        productive = rng.integers(0, 2, N_PRODUCTIVE_BITS).astype(np.uint8)
        excitation = codec.build_carrier(productive)
        _, capacity = codec.capacity(excitation.annotations["n_payload_symbols"])

        chunk = payload[cursor : cursor + capacity]
        reaction: TagReaction = self.tag.react(
            excitation,
            chunk,
            incident_power_dbm=DEFAULT_INCIDENT_DBM[protocol],
            rng=rng,
        )
        if not reaction.transmitted:
            return (
                PacketOutcome(
                    protocol=protocol,
                    start_s=scheduled.start_s,
                    identified=reaction.identified,
                    backscattered=False,
                    tag_bits_sent=0,
                    tag_bits_correct=0,
                    productive_bits_correct=0,
                    productive_bits_total=N_PRODUCTIVE_BITS,
                ),
                cursor,
            )
        cursor += reaction.tag_bits_sent.size

        # Channel: calibrated backscatter SNR at the receiver.
        snr_db = receivers.link.snr_db(_D_TAG_RX_M)
        assert reaction.backscattered is not None
        received = modulator.received_at_shifted_channel(reaction.backscattered)
        received = awgn(received, snr_db=snr_db, rng=rng)
        received.annotations = dict(excitation.annotations)
        return (
            PendingReception(
                protocol=protocol,
                start_s=scheduled.start_s,
                identified=reaction.identified,
                received=received,
                tag_bits_sent=reaction.tag_bits_sent,
                productive=productive,
                receivers=receivers,
            ),
            cursor,
        )

    # -- stage 5: decode ------------------------------------------------
    @staticmethod
    def _outcome_from_decode(
        pending: PendingReception, symbol_values: np.ndarray
    ) -> PacketOutcome:
        codec = pending.receivers.codec
        productive_bits, tag_bits = codec.decode_symbols(symbol_values)
        sent = pending.tag_bits_sent
        got_tag = tag_bits[: sent.size]
        tag_correct = int(np.count_nonzero(got_tag == sent)) if sent.size else 0
        got_prod = productive_bits[:N_PRODUCTIVE_BITS]
        prod_correct = int(
            np.count_nonzero(got_prod == pending.productive[: got_prod.size])
        )
        return PacketOutcome(
            protocol=pending.protocol,
            start_s=pending.start_s,
            identified=pending.identified,
            backscattered=True,
            tag_bits_sent=int(sent.size),
            tag_bits_correct=tag_correct,
            productive_bits_correct=prod_correct,
            productive_bits_total=N_PRODUCTIVE_BITS,
            tag_bits_decoded=np.asarray(got_tag, dtype=np.uint8),
        )

    def decode(self, pending: PendingReception) -> PacketOutcome:
        """Decode one pending reception; see :func:`decode_pending_many`."""
        return decode_pending_many([pending])[0]

    # -- the whole loop for one packet ----------------------------------
    def process(
        self,
        scheduled: ScheduledPacket,
        payload: np.ndarray,
        cursor: int,
        rng: np.random.Generator,
    ) -> tuple[PacketOutcome, int]:
        """Run one scheduled packet through every stage.

        Returns the outcome and the advanced payload cursor.  Driving
        a schedule through this packet-at-a-time is byte-identical to
        :func:`repro.sim.airlink.run_airlink` on the same seed.
        """
        staged, cursor = self.excite_and_react(scheduled, payload, cursor, rng)
        if isinstance(staged, PacketOutcome):
            return staged, cursor
        return self.decode(staged), cursor


def decode_pending_many(pendings: list[PendingReception]) -> list[PacketOutcome]:
    """Decode pending receptions, one packet at a time, in input order.

    Module-level (tag-independent) so the gateway's decode pool can run
    it in worker processes: the decode stage reads only the reception
    and its receivers, never tag or pipeline state, and draws no RNG.
    Each reception is decoded by its own memoized receiver set.
    """
    return [
        AirlinkPipeline._outcome_from_decode(
            p, p.receivers.decoder.symbol_values(p.received)
        )
        for p in pendings
    ]


def decode_worker_group(
    payloads: list[DecodePayload],
    index: int,
    name: str,
    attempt: int,
) -> list[PacketOutcome]:
    """Decode one dispatched batch inside a pool worker.

    This is the gateway's executor entry point, one call per batch.
    The ``decode`` fault site fires first (``index`` is the batch's
    dispatch counter, ``name`` its protocol label) so tests can model
    a worker that crashes (``kill``) or wedges (``hang``) mid-decode
    and prove the retry-in-pool recovery is bit-identical.
    """
    faults.check("decode", index=index, name=name, attempt=attempt)
    pendings = [payload_to_pending(p) for p in payloads]
    return decode_pending_many(pendings)
