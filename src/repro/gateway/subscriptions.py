"""Data-plane pub/sub with bounded queues and explicit backpressure.

Every subscriber owns a bounded :class:`asyncio.Queue`; what happens
when it fills is the subscriber's declared policy, not an accident:

``BLOCK``
    Delivery into a queue with room completes without yielding to the
    event loop.  On a full queue the publisher waits for space -- but
    only up to the hub's stall timeout, after which the subscriber is
    evicted.  Lossless for consumers that keep up; a stuck consumer
    cannot wedge the gateway.
``DROP_OLDEST``
    The oldest queued event is discarded to admit the new one (a
    live-telemetry subscriber that prefers fresh data over complete
    data).  Drops are counted per subscriber and in ``repro.perf``.
``DISCONNECT``
    A full queue evicts the subscriber immediately (strict consumers
    that would rather re-sync than process a gapped stream).

Eviction and close always enqueue a sentinel so a blocked ``get()``
wakes up and raises :class:`SubscriptionClosed` instead of hanging.

Shutdown is event-driven: every consume (and every close) pokes the
hub's wakeup event, so :meth:`SubscriptionHub.drain` sleeps until a
queue actually changed instead of polling on a timer.
"""

from __future__ import annotations

import asyncio
import enum
from typing import TYPE_CHECKING, Callable

from repro import perf
from repro.sim import faults

if TYPE_CHECKING:
    from repro.gateway.events import GatewayEvent

__all__ = [
    "Backpressure",
    "SubscriptionClosed",
    "Subscriber",
    "SubscriptionHub",
]


class Backpressure(enum.Enum):
    """Full-queue policy, chosen per subscriber at subscribe time."""

    BLOCK = "block"
    DROP_OLDEST = "drop_oldest"
    DISCONNECT = "disconnect"


class SubscriptionClosed(Exception):
    """Raised by :meth:`Subscriber.get` once the stream has ended."""


#: Queue sentinel that wakes blocked consumers at close/eviction.
_CLOSE = object()


class _NotifyingQueue(asyncio.Queue):
    """Bounded queue that reports every consumed item to the hub.

    CPython's ``Queue.get()`` takes the item via ``get_nowait()`` once
    one is available, so overriding the one method covers both the
    blocking and non-blocking consume paths.  The callback is how
    :meth:`SubscriptionHub.drain` learns a backlog shrank without
    polling.
    """

    def __init__(self, maxsize: int = 0) -> None:
        super().__init__(maxsize)
        self.on_consume: Callable[[], None] | None = None

    def get_nowait(self) -> object:
        item = super().get_nowait()
        if self.on_consume is not None:
            self.on_consume()
        return item


class Subscriber:
    """One consumer's bounded view of the gateway event stream.

    Constructed by :meth:`SubscriptionHub.subscribe`; consumers call
    :meth:`get` (or async-iterate) and must expect
    :class:`SubscriptionClosed` when the gateway drains or evicts
    them.
    """

    def __init__(self, name: str, *, maxlen: int, policy: Backpressure) -> None:
        self.name = name
        self.policy = policy
        self.queue: _NotifyingQueue = _NotifyingQueue(maxsize=maxlen)
        self.dropped = 0
        self.delivered = 0
        self.closed = False
        self.close_reason = ""

    def qsize(self) -> int:
        """Current queue depth (sentinels excluded from semantics)."""
        return self.queue.qsize()

    async def get(self) -> "GatewayEvent":
        """Next event; raises :class:`SubscriptionClosed` at stream end.

        This is the instrumented consumer-side fault site: a
        ``hang:site=gateway,name=subscriber:<name>`` spec stalls this
        consumer here, which is how the tests force the slow-consumer
        eviction path.
        """
        await faults.check_async("gateway", name=f"subscriber:{self.name}")
        if self.closed and self.queue.empty():
            raise SubscriptionClosed(self.name + ": " + self.close_reason)
        item = await self.queue.get()
        if item is _CLOSE:
            raise SubscriptionClosed(self.name + ": " + self.close_reason)
        return item  # type: ignore[no-any-return]

    def __aiter__(self) -> "Subscriber":
        return self

    async def __anext__(self) -> "GatewayEvent":
        try:
            return await self.get()
        except SubscriptionClosed:
            raise StopAsyncIteration from None

    def _force_put(self, item: object) -> None:
        """Enqueue unconditionally, shedding oldest events if needed."""
        while True:
            try:
                self.queue.put_nowait(item)
                return
            except asyncio.QueueFull:
                try:
                    self.queue.get_nowait()
                    self.dropped += 1
                except asyncio.QueueEmpty:  # pragma: no cover - racing consumer
                    pass

    def _close(self, reason: str) -> None:
        if self.closed:
            return
        self.closed = True
        self.close_reason = reason
        self._force_put(_CLOSE)


class SubscriptionHub:
    """Fan-out of gateway events to all live subscribers.

    The hub is pure data plane: it never inspects event contents, only
    moves them.  Slow-consumer handling is the policy table above;
    evictions are reported to the caller (the gateway turns them into
    control-plane events) and counted under ``gateway.subscriber.*``
    in :mod:`repro.perf`.
    """

    def __init__(
        self, *, default_maxlen: int = 64, stall_timeout_s: float = 0.5
    ) -> None:
        if default_maxlen < 1:
            raise ValueError("default_maxlen must be >= 1")
        if not stall_timeout_s > 0:
            raise ValueError("stall_timeout_s must be positive")
        self.default_maxlen = default_maxlen
        self.stall_timeout_s = stall_timeout_s
        self._subscribers: dict[str, Subscriber] = {}
        # Set whenever a queue shrinks or a subscriber closes; drain()
        # clears it before re-checking so no wakeup is ever lost.
        self._activity = asyncio.Event()
        # Highest data-plane stream_seq seen; the reordering buffer
        # upstream must hand packets over in schedule order, and this
        # guard turns any regression into a loud failure here rather
        # than a silently reordered subscriber stream.
        self._last_stream_seq = 0

    def _notify(self) -> None:
        self._activity.set()

    @property
    def subscribers(self) -> tuple[Subscriber, ...]:
        return tuple(self._subscribers.values())

    def subscribe(
        self, name: str, *, policy: Backpressure = Backpressure.BLOCK
    ) -> Subscriber:
        if name in self._subscribers:
            raise ValueError(f"subscriber {name!r} already exists")
        sub = Subscriber(name, maxlen=self.default_maxlen, policy=policy)
        sub.queue.on_consume = self._notify
        self._subscribers[name] = sub
        perf.count("gateway.subscriber.subscribed")
        return sub

    def unsubscribe(self, name: str, *, reason: str = "unsubscribed") -> None:
        sub = self._subscribers.pop(name, None)
        if sub is not None:
            sub._close(reason)
            self._notify()

    async def publish(self, event: "GatewayEvent") -> list[Subscriber]:
        """Deliver ``event`` to every subscriber per its policy.

        Returns the subscribers evicted by this delivery (stalled
        ``BLOCK`` consumers past the stall timeout, ``DISCONNECT``
        consumers that were full).
        """
        stream_seq = getattr(event, "stream_seq", 0)
        if stream_seq > 0:
            if stream_seq <= self._last_stream_seq:
                raise RuntimeError(
                    f"packet stream_seq went backwards: {stream_seq} after "
                    f"{self._last_stream_seq} (reordering buffer bug)"
                )
            self._last_stream_seq = stream_seq
        evicted: list[Subscriber] = []
        for sub in list(self._subscribers.values()):
            if sub.closed:
                continue
            if sub.policy is Backpressure.BLOCK:
                # With room in the queue, ``queue.put`` completes without
                # suspending; Python 3.11's ``wait_for`` would still wrap
                # it in a task, so only a full queue pays for the wait.
                try:
                    if sub.queue.full():
                        await asyncio.wait_for(
                            sub.queue.put(event), timeout=self.stall_timeout_s
                        )
                    else:
                        sub.queue.put_nowait(event)
                    sub.delivered += 1
                except asyncio.TimeoutError:
                    self._evict(sub, "stalled past the block timeout")
                    evicted.append(sub)
            elif sub.policy is Backpressure.DROP_OLDEST:
                dropped_before = sub.dropped
                sub._force_put(event)
                sub.delivered += 1
                if sub.dropped > dropped_before:
                    perf.count(
                        "gateway.subscriber.drops", sub.dropped - dropped_before
                    )
            else:  # DISCONNECT
                try:
                    sub.queue.put_nowait(event)
                    sub.delivered += 1
                except asyncio.QueueFull:
                    self._evict(sub, "queue overflow under disconnect policy")
                    evicted.append(sub)
            perf.gauge(f"gateway.queue_depth.{sub.name}", float(sub.qsize()))
        return evicted

    def _evict(self, sub: Subscriber, reason: str) -> None:
        self._subscribers.pop(sub.name, None)
        sub._close(reason)
        self._notify()
        perf.count("gateway.subscriber.evictions")

    async def drain(self, *, timeout_s: float) -> bool:
        """Wait until every live queue is empty (consumers caught up).

        Event-driven: sleeps on the hub wakeup until a consume or close
        actually changes a queue, re-checking with clear-before-check
        semantics so a wakeup between the check and the wait is never
        lost.  Returns False if the timeout expired first -- the caller
        decides whether that is an error (CI smoke) or acceptable
        (interactive shutdown).
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while True:
            self._activity.clear()
            if not any(
                not s.closed and s.qsize() > 0
                for s in self._subscribers.values()
            ):
                return True
            remaining = deadline - loop.time()
            if remaining <= 0:
                return False
            try:
                await asyncio.wait_for(self._activity.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                return False

    def close_all(self, *, reason: str = "gateway shut down") -> None:
        for name in list(self._subscribers):
            self.unsubscribe(name, reason=reason)

    def total_dropped(self) -> int:
        return sum(s.dropped for s in self._subscribers.values())
