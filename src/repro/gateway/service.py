"""The live tag-network gateway service.

Hosts a network of backscatter tags over streamed excitation packets:
the **air loop** runs each scheduled excitation through the
per-packet pipeline (:mod:`repro.sim.pipeline`) for the tag that wins
MAC arbitration, and publishes the decoded outcome to every
subscriber.  Around it:

* the **control plane** (:mod:`repro.gateway.control`) owns
  membership, keepalives and carrier assignment;
* the **data plane** (:mod:`repro.gateway.subscriptions`) owns the
  bounded per-subscriber queues and their backpressure policies;
* the **MAC arbiter** (:mod:`repro.gateway.mac`) resolves contention
  with its own seeded stream so replay stays bit-identical;
* a single **control-plane sweep task** refreshes every live tag's
  keepalive, observes injected crashes (``REPRO_FAULTS`` site
  ``gateway``, name ``tag:<id>``) and evicts stale sessions -- one
  task however many tags are registered, and the air loop pays no
  per-packet stale scan.  A crashed tag is evicted on the next sweep
  pass; the gateway itself keeps serving.

The data plane is **sharded**: staging (``excite_and_react``) stays
inline because it consumes per-tag RNG streams and determinism
requires a single consumer in schedule order, but the RNG-free decode
stage can run on a pool of worker processes
(``decode_workers > 0``).  Each completed batch crosses to the pool in
one executor hop (the worker decodes its packets one at a time, in
schedule order) while the air loop stages the next batch; a single
**publisher task** consumes batches from a bounded queue in dispatch
order and republishes outcomes in schedule order, stamped with a
global ``stream_seq``, so any worker count is bit-identical to
``decode_workers=1`` and single-tag streams stay byte-identical to
``run_airlink``.  Decode workers that crash (``REPRO_FAULTS`` site
``decode``, kind ``kill``) or wedge (``hang`` + ``decode_timeout_s``)
are replaced and their batches resubmitted — same payloads, bumped
attempt — so recovery is bit-identical too.

With ``REPRO_LOOPWATCH=1`` the serve loop runs under the
:mod:`repro.core.loopwatch` event-loop sanitizer; its violation count
and worst observed lag land in :class:`GatewayStats`.

Latency accounting: the load question is "how many concurrent tags
per core before p99 decode latency exceeds a symbol period"; every
packet's **staged→published** wall-clock latency — stage cost plus
batch wait, dispatch, decode, and reorder-queue time, measured from
the packet's own enqueue stamp — is recorded in
:attr:`GatewayStats.decode_latencies_s` and in ``repro.perf`` gauges.

Shutdown is a **graceful drain**: the source stops, queued pipeline
work is flushed through the publisher, subscribers are given
``drain_timeout_s`` to consume their backlogs, then streams close
with a ``drained`` control event.  On hard cancel the publisher is
cancelled and the pool force-terminated so no worker outlives the
gateway.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import numpy as np

from repro import perf
from repro.core import loopwatch
from repro.gateway.control import ControlPlane, TagSession
from repro.gateway.events import ControlEvent, PacketEvent
from repro.gateway.mac import MacArbiter
from repro.gateway.sources import AsyncExcitationSource
from repro.gateway.subscriptions import Backpressure, SubscriptionHub, Subscriber
from repro.phy.protocols import Protocol
from repro.sim import faults
from repro.sim.pipeline import (
    DecodePayload,
    PacketOutcome,
    PendingReception,
    decode_pending_many,
    decode_worker_group,
    pending_to_payload,
)

__all__ = ["GatewayConfig", "GatewayStats", "Gateway"]

#: Dispatched-but-unpublished batches the air loop may run ahead of
#: the publisher (bounds memory and decode-pool backlog).
_MAX_INFLIGHT_BATCHES = 8


@dataclass(frozen=True)
class GatewayConfig:
    """Service knobs, all deterministic or wall-clock-only."""

    #: Base seed: spawns per-tag channel streams for tags registered
    #: without an explicit generator, and the arbiter stream.
    seed: int = 0
    #: Seconds without a keepalive before a tag is evicted.
    keepalive_timeout_s: float = 5.0
    #: How often the sweep task refreshes keepalives / evicts stale tags.
    keepalive_interval_s: float = 0.05
    #: Default bound for subscriber queues.
    queue_maxlen: int = 64
    #: How long a BLOCK subscriber may stall the publisher.
    stall_timeout_s: float = 0.5
    #: Pending receptions collected before a decode (1 = decode each
    #: packet as it arrives; >1 defers the RNG-free decode stage
    #: without touching draw order, so one executor hop carries more
    #: packets).
    decode_batch: int = 1
    #: Decode worker processes (0 = decode inline on the air loop;
    #: >0 dispatches batches to a process pool, overlapped with
    #: staging, bit-identical at every worker count).
    decode_workers: int = 0
    #: Wall-clock budget for one dispatched decode batch; ``None``
    #: waits forever.  On expiry the pool is force-replaced and the
    #: batch resubmitted (a hung worker must not wedge the stream).
    decode_timeout_s: float | None = None
    #: Resubmissions allowed per decode batch after a worker crash or
    #: hang before the gateway gives up and fails the stream.
    decode_retries: int = 2
    #: Grace period for subscribers to empty their queues at shutdown.
    drain_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not self.keepalive_timeout_s > 0:
            raise ValueError("keepalive_timeout_s must be positive")
        if self.queue_maxlen < 1:
            raise ValueError("queue_maxlen must be >= 1")
        if self.decode_batch < 1:
            raise ValueError("decode_batch must be >= 1")
        if self.decode_workers < 0:
            raise ValueError("decode_workers must be >= 0")
        if self.decode_timeout_s is not None and not self.decode_timeout_s > 0:
            raise ValueError("decode_timeout_s must be positive")
        if self.decode_retries < 0:
            raise ValueError("decode_retries must be >= 0")
        if not self.drain_timeout_s >= 0:
            raise ValueError("drain_timeout_s must be >= 0")


@dataclass
class GatewayStats:
    """What one service run did, for reports and the load benchmark."""

    n_packets: int = 0
    n_published: int = 0
    n_backscattered: int = 0
    n_tag_evictions: int = 0
    n_tag_crashes: int = 0
    n_subscriber_evictions: int = 0
    n_dropped_events: int = 0
    n_decode_retries: int = 0
    n_decode_worker_crashes: int = 0
    n_decode_timeouts: int = 0
    drained_clean: bool = False
    elapsed_s: float = 0.0
    #: Per-packet staged→published latency: stage cost plus batch
    #: wait, dispatch, decode and reorder-queue time (each packet is
    #: stamped when it enters the pending buffer).
    decode_latencies_s: list[float] = field(default_factory=list)
    #: Event-loop sanitizer results (0 unless ``REPRO_LOOPWATCH=1``).
    loopwatch_violations: int = 0
    loopwatch_slow_callbacks: int = 0
    loopwatch_max_lag_s: float = 0.0

    def latency_percentile_s(self, q: float) -> float:
        if not self.decode_latencies_s:
            return 0.0
        return float(np.percentile(np.asarray(self.decode_latencies_s), q))

    def packets_per_s(self) -> float:
        return self.n_packets / max(self.elapsed_s, 1e-12)


@dataclass
class _Dispatch:
    """One batch's receptions, in flight on the pool as one hop.

    ``index`` is the gateway's dispatch counter and ``name`` the
    protocols of the hop's receptions in first-seen order, joined by
    commas; both reach the ``decode`` fault site.
    """

    payloads: list[DecodePayload]
    index: int
    name: str
    #: Pool generation of the latest submit, stamped by ``_submit_dispatch``.
    generation: int = 0
    attempt: int = 1
    future: asyncio.Future | None = None


@dataclass
class _BatchEntry:
    """One staged packet inside a dispatched batch.

    ``outcome`` is set for pipeline short-circuits (and, inline, after
    the loop-side decode); a dispatched reception keeps ``None`` and
    takes the next outcome of its batch's dispatch, in schedule order.
    """

    session: TagSession
    stage_s: float
    enqueued_t: float
    outcome: PacketOutcome | None


@dataclass
class _PendingBatch:
    """A dispatched batch travelling through the reordering buffer."""

    entries: list[_BatchEntry]
    dispatch: _Dispatch | None


def _shutdown_pool(pool: ProcessPoolExecutor, *, force: bool) -> None:
    """Shut a decode pool down; ``force`` terminates hung workers."""
    pool.shutdown(wait=not force, cancel_futures=True)
    if force:
        processes: Any = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            proc.terminate()
        for proc in list(processes.values()):
            proc.join(timeout=5.0)


def _mark_retrieved(future: asyncio.Future) -> None:
    """Keep abandoned dispatch futures from warning at GC time.

    A batch resubmitted after a crash, or torn down mid-cancel, leaves
    its old future behind with an exception nobody will await.
    """
    if not future.cancelled():
        future.exception()


class Gateway:
    """Asyncio pub/sub gateway over the airlink pipeline."""

    def __init__(self, config: GatewayConfig | None = None) -> None:
        self.config = config or GatewayConfig()
        cfg = self.config
        self._seedseq = np.random.SeedSequence(cfg.seed)
        # A spawned child keeps the arbiter stream disjoint from every
        # per-tag stream derived from the same base seed.
        mac_seed = int(self._seedseq.spawn(1)[0].generate_state(1)[0])
        self.control = ControlPlane(keepalive_timeout_s=cfg.keepalive_timeout_s)
        self.hub = SubscriptionHub(
            default_maxlen=cfg.queue_maxlen, stall_timeout_s=cfg.stall_timeout_s
        )
        self.mac = MacArbiter(seed=mac_seed)
        self.stats = GatewayStats()
        self._sweep_task: asyncio.Task | None = None
        self._sweep_error: BaseException | None = None
        self._suspended: set[str] = set()
        self._stop_requested = False
        self._running = False
        self._now_s = 0.0
        # -- sharded data plane --
        self._decode_pool: ProcessPoolExecutor | None = None
        self._publish_queue: asyncio.Queue[_PendingBatch | None] | None = None
        self._publisher_task: asyncio.Task | None = None
        self._dispatch_counter = 0
        self._stream_seq = 0
        self._pool_generation = 0
        self._data_plane_clean = False

    # -- clock ------------------------------------------------------------
    def _now(self) -> float:
        try:
            return asyncio.get_running_loop().time()
        except RuntimeError:  # before the loop starts (registration)
            return self._now_s

    # -- control-plane API --------------------------------------------------
    def spawn_rng(self) -> np.random.Generator:
        """A fresh child stream of the gateway seed (per-tag channels)."""
        return np.random.default_rng(self._seedseq.spawn(1)[0])

    async def register_tag(
        self,
        tag_id: str,
        *,
        rng: np.random.Generator | None = None,
    ) -> TagSession:
        """Admit a multiscatter tag; the control-plane sweep keeps it alive."""
        now_s = self._now()
        # Building the tag builds (cached, per-protocol) reference
        # template banks -- a deliberate one-time control-plane cost,
        # accepted on the registration path.  The default stream is
        # spawned only once the control plane accepts the tag: a
        # rejected registration must not advance the gateway seed, or
        # every tag registered after it would get another stream.
        session = self.control.register(  # reproasync: disable=C001
            tag_id,
            rng=rng if rng is not None else self.spawn_rng,
            now_s=now_s,
        )
        self._ensure_sweep()
        await self.hub.publish(
            ControlEvent(kind="registered", time_s=now_s, tag_id=tag_id)
        )
        perf.count("gateway.tag.registered")
        return session

    async def deregister_tag(self, tag_id: str, *, reason: str = "deregistered") -> None:
        session = self.control.deregister(tag_id)
        self._suspended.discard(tag_id)
        if session is not None:
            await self.hub.publish(
                ControlEvent(
                    kind="deregistered",
                    time_s=self._now(),
                    tag_id=tag_id,
                    detail=reason,
                )
            )

    def subscribe(
        self, name: str, *, policy: Backpressure = Backpressure.BLOCK
    ) -> Subscriber:
        return self.hub.subscribe(name, policy=policy)

    async def assign_carrier(
        self, observed_rates: dict[Protocol, float], *, goal_kbps: float = 0.0
    ) -> Protocol | None:
        """§4.2.2 carrier pick (None when no carrier suffices), announced
        with the goodput estimates behind it."""
        choice, estimates = self.control.selector.pick(
            observed_rates, goal_kbps=goal_kbps
        )
        evidence = "; ".join(
            f"{e.protocol.name}={e.tag_goodput_kbps:.2f}kbps" for e in estimates
        )
        await self.hub.publish(
            ControlEvent(
                kind="carrier_assigned",
                time_s=self._now(),
                protocol=choice,
                detail=evidence,
            )
        )
        return choice

    def request_stop(self) -> None:
        """Ask the air loop to stop after the current packet and drain."""
        self._stop_requested = True

    # -- control-plane sweep -------------------------------------------------
    def suspend_heartbeat(self, tag_id: str) -> None:
        """Stop refreshing ``tag_id``'s keepalive (a tag gone silent
        without any observable crash -- only the timeout can evict it).
        """
        self._suspended.add(tag_id)

    def _ensure_sweep(self) -> None:
        if self._sweep_task is not None and not self._sweep_task.done():
            return
        self._sweep_task = asyncio.ensure_future(self._sweep())
        self._sweep_task.add_done_callback(self._on_sweep_done)

    def _on_sweep_done(self, task: asyncio.Task) -> None:
        # A sweep failure is a gateway bug, not a tag fault; stash it
        # so serve() re-raises instead of silently losing keepalives.
        if not task.cancelled() and task.exception() is not None:
            self._sweep_error = task.exception()

    async def _stop_sweep(self) -> None:
        task = self._sweep_task
        self._sweep_task = None
        if task is None:
            return
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    async def _sweep(self) -> None:
        """One task sweeps the whole control plane every keepalive tick.

        Replaces the former per-tag supervisor tasks and the air loop's
        per-packet stale scan: each pass refreshes every live tag's
        keepalive, observes injected crashes
        (``raise:site=gateway,name=tag:<id>`` evicts that tag and only
        that tag -- one sensor's firmware bug must not take down the
        network) and evicts sessions whose keepalive timed out.
        """
        while True:
            now_s = self._now()
            for session in list(self.control.sessions):
                tag_id = session.tag_id
                try:
                    await faults.check_async("gateway", name=f"tag:{tag_id}")
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    self.stats.n_tag_crashes += 1
                    perf.count("gateway.tag.crashes")
                    await self._evict_tag(session, reason=f"tag crashed: {exc!r}")
                    continue
                if tag_id not in self._suspended:
                    self.control.keepalive(tag_id, now_s)
            for stale in self.control.evict_stale(self._now()):
                await self._evict_tag(
                    stale,
                    reason="keepalive timeout (tag presumed dead)",
                    already_removed=True,
                )
            await asyncio.sleep(self.config.keepalive_interval_s)

    async def _evict_tag(
        self, session: TagSession, *, reason: str, already_removed: bool = False
    ) -> None:
        # evict_stale() pops the session itself; every other caller
        # must find it still registered (otherwise it raced another
        # eviction and this one is a no-op).
        if not already_removed and self.control.deregister(session.tag_id) is None:
            return
        self._suspended.discard(session.tag_id)
        self.stats.n_tag_evictions += 1
        perf.count("gateway.tag.evictions")
        await self.hub.publish(
            ControlEvent(
                kind="evicted",
                time_s=self._now(),
                tag_id=session.tag_id,
                detail=reason,
            )
        )

    # -- data plane ----------------------------------------------------------
    async def _publish_outcome(
        self, session: TagSession, outcome: PacketOutcome, latency_s: float
    ) -> None:
        # Only the publisher task calls this, so per-session and
        # global sequence numbers advance strictly in schedule order.
        session.seq += 1
        self._stream_seq += 1
        if outcome.backscattered:
            self.stats.n_backscattered += 1
        self.stats.decode_latencies_s.append(latency_s)
        perf.gauge("gateway.decode_latency_s", latency_s)
        evicted = await self.hub.publish(
            PacketEvent(
                tag_id=session.tag_id,
                seq=session.seq,
                time_s=outcome.start_s,
                outcome=outcome,
                decode_latency_s=latency_s,
                stream_seq=self._stream_seq,
            )
        )
        self.stats.n_published += 1
        for sub in evicted:
            self.stats.n_subscriber_evictions += 1
            await self.hub.publish(
                ControlEvent(
                    kind="subscriber_evicted",
                    time_s=self._now(),
                    detail=f"{sub.name}: {sub.close_reason}",
                )
            )

    # -- decode pool ---------------------------------------------------------
    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.config.decode_workers)

    def _submit_dispatch(self, dispatch: _Dispatch) -> None:
        """Dispatch (or resubmit) one batch's receptions to the pool."""
        pool = self._decode_pool
        assert pool is not None
        dispatch.generation = self._pool_generation
        loop = asyncio.get_running_loop()
        try:
            future = loop.run_in_executor(
                pool,
                decode_worker_group,
                dispatch.payloads,
                dispatch.index,
                dispatch.name,
                dispatch.attempt,
            )
        except BrokenExecutor as exc:
            # The pool broke under an earlier batch before the
            # publisher could rebuild it.  Hand the breakage to the
            # publisher as a pre-failed future so the air loop keeps
            # staging and the normal crash-recovery path resubmits.
            future = loop.create_future()
            future.set_exception(BrokenExecutor(str(exc)))
        future.add_done_callback(_mark_retrieved)
        dispatch.future = future

    async def _recover_pool(self, *, force: bool, generation: int) -> None:
        """Replace a crashed/hung pool once, however many batches failed.

        A worker crash breaks every in-flight future of the pool at
        once; the generation stamp makes sure only the first failing
        batch pays for the rebuild and later ones just resubmit.  The
        new pool goes up before the old one is torn down so the air
        loop can keep dispatching while stuck workers are terminated
        off-loop.
        """
        if generation != self._pool_generation:
            return
        old = self._decode_pool
        assert old is not None
        self._pool_generation += 1
        self._decode_pool = self._new_pool()
        await asyncio.to_thread(_shutdown_pool, old, force=force)

    async def _await_dispatch(self, dispatch: _Dispatch) -> list[PacketOutcome]:
        """Await one batch's outcomes, replacing dead workers.

        Crashes surface as :class:`BrokenExecutor`, hangs as a timeout
        (``decode_timeout_s``), and a pool replaced by a sibling
        batch's recovery as a cancelled future.  Each failure mode
        resubmits the identical payloads with a bumped attempt, so the
        ``decode`` fault site's attempt gate releases the retry and
        the decoded bits are identical to an undisturbed run.
        """
        cfg = self.config
        while True:
            assert dispatch.future is not None
            try:
                return await asyncio.wait_for(dispatch.future, cfg.decode_timeout_s)
            except asyncio.TimeoutError:
                self.stats.n_decode_timeouts += 1
                perf.count("gateway.decode.timeouts")
                failure, force = "hung", True
            except BrokenExecutor:
                self.stats.n_decode_worker_crashes += 1
                perf.count("gateway.decode.crashes")
                failure, force = "crashed", False
            except asyncio.CancelledError:
                if not dispatch.future.cancelled():
                    raise  # the gateway itself is being cancelled
                failure, force = "cancelled with its pool", False
            if dispatch.attempt > cfg.decode_retries:
                raise RuntimeError(
                    f"decode batch {dispatch.index} ({dispatch.name}) {failure} "
                    f"on attempt {dispatch.attempt}; retry budget exhausted"
                )
            await self._recover_pool(force=force, generation=dispatch.generation)
            dispatch.attempt += 1
            self.stats.n_decode_retries += 1
            perf.count("gateway.decode.retries")
            self._submit_dispatch(dispatch)

    def _teardown_pool(self) -> None:
        pool = self._decode_pool
        self._decode_pool = None
        if pool is None:
            return
        if self._data_plane_clean:
            # Every future has resolved; workers exit on their
            # sentinel without the loop blocking on a join.
            pool.shutdown(wait=False)
        else:
            # Error or hard-cancel path: in-flight futures may hold
            # live (even wedged) workers -- terminate them so nothing
            # outlives the gateway.
            _shutdown_pool(pool, force=True)

    # -- reordering buffer ---------------------------------------------------
    async def _dispatch_batch(
        self,
        pending: list[tuple[TagSession, float, float, PacketOutcome | PendingReception]],
    ) -> None:
        """Hand one staged batch to the publisher, in schedule order.

        Ready outcomes (pipeline short-circuits such as identification
        misses) ride in the same batch behind queued receptions so
        events always publish in schedule order, whatever
        ``decode_batch`` or the worker count is.  With a pool, the
        batch's receptions cross to a worker in one executor hop and
        the loop returns to staging while they decode; inline, they
        decode here.
        """
        if not pending:
            return
        entries = [
            _BatchEntry(
                session=session,
                stage_s=stage_s,
                enqueued_t=enqueued_t,
                outcome=staged if isinstance(staged, PacketOutcome) else None,
            )
            for session, stage_s, enqueued_t, staged in pending
        ]
        receptions = [
            staged for *_, staged in pending if isinstance(staged, PendingReception)
        ]
        dispatch: _Dispatch | None = None
        if receptions and self._decode_pool is None:
            # Decoding inline (not in an executor) keeps the unsharded
            # gateway single-tasked; per-packet kernel cost is
            # ~0.1-3 ms and the loopwatch sanitizer bounds the worst
            # case at runtime.
            decoded = iter(decode_pending_many(receptions))  # reproasync: disable=C001
            for entry in entries:
                if entry.outcome is None:
                    entry.outcome = next(decoded)
        elif receptions:
            names = dict.fromkeys(staged.protocol.name for staged in receptions)
            dispatch = _Dispatch(
                payloads=[pending_to_payload(staged) for staged in receptions],
                index=self._dispatch_counter,
                name=",".join(names),
            )
            self._dispatch_counter += 1
            self._submit_dispatch(dispatch)
        pending.clear()
        await self._enqueue_batch(_PendingBatch(entries=entries, dispatch=dispatch))

    async def _enqueue_batch(self, batch: _PendingBatch | None) -> None:
        """Queue a batch for the publisher, surfacing its death.

        With room in the queue and the publisher alive, the batch goes
        in without yielding, as ``queue.put`` would put it.  Otherwise
        a plain ``queue.put`` would deadlock if the publisher failed
        with the queue full, so the put races the publisher task; a
        dead publisher re-raises its error on the air loop.
        """
        task = self._publisher_task
        queue = self._publish_queue
        assert task is not None and queue is not None
        if not task.done() and not queue.full():
            queue.put_nowait(batch)
            return
        if not task.done():
            put = asyncio.ensure_future(queue.put(batch))
            try:
                await asyncio.wait({put, task}, return_when=asyncio.FIRST_COMPLETED)
            finally:
                if not put.done():
                    put.cancel()
            if put.done() and not put.cancelled():
                return
        if task.done() and not task.cancelled():
            exc = task.exception()
            if exc is not None:
                raise exc
        raise RuntimeError("gateway publisher task exited before end of stream")

    async def _close_publisher(self) -> None:
        """End-of-stream: flush the publisher and join it."""
        task = self._publisher_task
        if task is None:
            return
        await self._enqueue_batch(None)
        try:
            await task
        finally:
            self._publisher_task = None

    async def _publish_batches(self) -> None:
        """The reordering buffer: one task republishes in order.

        Batches arrive in dispatch (= schedule) order on the bounded
        queue; within a batch, entries are already in schedule order
        and dispatches resolve out of order on the pool — awaiting them
        batch by batch restores the global order before any event
        reaches the hub.  A ``None`` sentinel ends the stream.
        """
        queue = self._publish_queue
        assert queue is not None
        while True:
            batch = await queue.get()
            if batch is None:
                return
            decoded: list[PacketOutcome] = []
            if batch.dispatch is not None:
                decoded = await self._await_dispatch(batch.dispatch)
            next_decoded = iter(decoded)
            for entry in batch.entries:
                outcome = entry.outcome
                if outcome is None:
                    outcome = next(next_decoded)
                latency_s = entry.stage_s + (perf_counter() - entry.enqueued_t)
                await self._publish_outcome(entry.session, outcome, latency_s)

    # -- the air loop -----------------------------------------------------
    async def serve(self, source: AsyncExcitationSource) -> GatewayStats:
        """Run the gateway over a packet stream until it ends (or
        :meth:`request_stop`), then drain gracefully.

        Determinism: the air loop is the only consumer of per-tag
        channel streams, packets arrive in schedule order, and the
        arbiter draws only under contention -- so a single-tag run
        replays :func:`repro.sim.airlink.run_airlink` bit for bit.
        """
        if self._running:
            raise RuntimeError("gateway is already serving")
        self._running = True
        self._stop_requested = False
        self._data_plane_clean = False
        self._ensure_sweep()
        watch = loopwatch.maybe_start()
        started = perf_counter()
        cfg = self.config
        if cfg.decode_workers > 0:
            self._decode_pool = self._new_pool()
        self._publish_queue = asyncio.Queue(maxsize=_MAX_INFLIGHT_BATCHES)
        self._publisher_task = asyncio.ensure_future(self._publish_batches())
        pending: list[
            tuple[TagSession, float, float, PacketOutcome | PendingReception]
        ] = []
        try:
            try:
                async for scheduled in source.__aiter__():
                    if self._stop_requested:
                        source.stop()
                        break
                    if self._sweep_error is not None:
                        raise RuntimeError(
                            "control-plane sweep task failed"
                        ) from self._sweep_error
                    winner = self.mac.arbitrate(
                        [s.tag_id for s in self.control.sessions]
                    )
                    self.stats.n_packets += 1
                    perf.count("gateway.packets")
                    if winner is None:
                        continue
                    session = self.control.session(winner)
                    if session is None:  # pragma: no cover - evicted this tick
                        continue
                    session.refill_payload_if_spent()
                    t0 = perf_counter()
                    # Inline on purpose: the excite/react stage consumes
                    # the per-tag RNG stream, and determinism requires a
                    # single consumer in schedule order (see docstring).
                    staged, session.cursor = session.pipeline.excite_and_react(  # reproasync: disable=C001
                        scheduled, session.payload, session.cursor, session.rng
                    )
                    stage_s = perf_counter() - t0
                    pending.append((session, stage_s, perf_counter(), staged))
                    n_receptions = sum(
                        1
                        for _, _, _, item in pending
                        if isinstance(item, PendingReception)
                    )
                    # An all-ready buffer (short-circuit outcomes only)
                    # has nothing to batch: hand it over right away, as
                    # the pre-sharding gateway published it right away.
                    if n_receptions == 0 or n_receptions >= cfg.decode_batch:
                        await self._dispatch_batch(pending)
                await self._dispatch_batch(pending)
                await self._close_publisher()
                self._data_plane_clean = True
                return await self._drain()
            except asyncio.CancelledError:
                # Mid-await cancellation (hard shutdown): stop the sweep
                # and close every stream so consumers blocked on get()
                # observe end-of-stream instead of hanging forever.
                await self._stop_sweep()
                self.hub.close_all(reason="gateway cancelled")
                raise
        finally:
            task = self._publisher_task
            self._publisher_task = None
            if task is not None:
                # One cancel is not enough: wait_for's completion race
                # can swallow a cancellation that lands just as a
                # subscriber put resolves (the publisher then re-parks
                # on queue.get with the request spent), so keep
                # cancelling until the task actually finishes.
                while not task.done():
                    task.cancel()
                    await asyncio.sleep(0)
                if not task.cancelled():
                    task.exception()  # already surfaced via _enqueue_batch
            self._publish_queue = None
            self._teardown_pool()
            # In the finally so mid-cancel / failed runs report their
            # true wall-clock instead of a zero.
            self.stats.elapsed_s = perf_counter() - started
            if watch is not None:
                lw = await watch.stop()
                self.stats.loopwatch_violations = lw.violations
                self.stats.loopwatch_slow_callbacks = lw.slow_callbacks
                self.stats.loopwatch_max_lag_s = lw.max_lag_s
            self._running = False

    async def _drain(self) -> GatewayStats:
        """Graceful shutdown: flush, wait for consumers, close streams."""
        now_s = self._now()
        await self.hub.publish(ControlEvent(kind="draining", time_s=now_s))
        drained = await self.hub.drain(timeout_s=self.config.drain_timeout_s)
        self.stats.drained_clean = drained
        self.stats.n_dropped_events = self.hub.total_dropped()
        await self._stop_sweep()
        for tag_id in [s.tag_id for s in self.control.sessions]:
            await self.deregister_tag(tag_id, reason="gateway drained")
        await self.hub.publish(ControlEvent(kind="drained", time_s=self._now()))
        # Closing puts the end-of-stream sentinel past full queues so
        # every consumer observes the end of stream instead of hanging.
        self.hub.close_all(reason="gateway drained")
        perf.gauge("gateway.tags_live", float(len(self.control)))
        return self.stats

