"""Gateway control plane: tag registry, keepalives, carrier selector.

Strictly separated from the data plane: nothing here touches event
queues or waveforms.  The control plane answers three questions --

* **who is on the network** (:meth:`ControlPlane.register` /
  :meth:`deregister`, with keepalive-timeout eviction for tags whose
  task died silently);
* **what state does each tag carry** (:class:`TagSession`: its
  pipeline, payload cursor, per-tag RNG stream, sequence counter);
* **which carrier should serve a goodput goal** (its ``selector``,
  the paper's §4.2.2 selector in :mod:`repro.core.carrier_select`).

Determinism contract: a session's channel randomness comes only from
its own ``rng`` stream, consumed only by the air loop in packet order.
Registering a tag with a given generator and replaying the same
schedule therefore reproduces the exact
:class:`~repro.sim.pipeline.PacketOutcome` sequence of the batch
driver -- the property the streaming/batch equivalence tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.carrier_select import CarrierSelector
from repro.sim.pipeline import AirlinkPipeline

__all__ = ["TagSession", "ControlPlane"]

#: Payload bits drawn at registration when the caller supplies none --
#: the same 4096-bit draw the batch driver makes, so a streaming
#: session with the same generator replays the same chunks.
DEFAULT_PAYLOAD_BITS = 4096


@dataclass
class TagSession:
    """One registered tag's live state."""

    tag_id: str
    pipeline: AirlinkPipeline
    rng: np.random.Generator
    payload: np.ndarray
    last_keepalive_s: float
    cursor: int = 0
    seq: int = 0

    def refill_payload_if_spent(self) -> None:
        """Top up the payload ring from the session's own stream.

        Long-running sessions outlive a 4096-bit buffer; the refill
        draws from the session RNG (air-loop context only) so replay
        determinism survives arbitrarily long runs.
        """
        if self.cursor >= self.payload.size:
            self.payload = self.rng.integers(
                0, 2, DEFAULT_PAYLOAD_BITS
            ).astype(np.uint8)
            self.cursor = 0


class ControlPlane:
    """Registry + liveness + carrier selector (no data-plane state)."""

    def __init__(self, *, keepalive_timeout_s: float = 5.0) -> None:
        if not keepalive_timeout_s > 0:
            raise ValueError("keepalive_timeout_s must be positive")
        self.keepalive_timeout_s = keepalive_timeout_s
        self.selector = CarrierSelector()
        self._sessions: dict[str, TagSession] = {}

    # -- membership -----------------------------------------------------
    def register(
        self,
        tag_id: str,
        *,
        rng: np.random.Generator | Callable[[], np.random.Generator],
        now_s: float = 0.0,
    ) -> TagSession:
        """Admit a multiscatter tag, 2 m from the receiver, to the
        network.

        ``rng`` is the session's stream, or a factory called only once
        the registration is accepted (a rejected one creates none).
        The session's payload is the batch driver's default 4096-bit
        payload, drawn from ``rng`` -- the first draw the batch loop
        makes, preserving stream alignment for equivalence replays.
        """
        if tag_id in self._sessions:
            raise ValueError(f"tag {tag_id!r} already registered")
        if callable(rng):
            rng = rng()
        session = TagSession(
            tag_id=tag_id,
            pipeline=AirlinkPipeline(),
            rng=rng,
            payload=rng.integers(0, 2, DEFAULT_PAYLOAD_BITS).astype(np.uint8),
            last_keepalive_s=now_s,
        )
        self._sessions[tag_id] = session
        return session

    def deregister(self, tag_id: str) -> TagSession | None:
        return self._sessions.pop(tag_id, None)

    def session(self, tag_id: str) -> TagSession | None:
        return self._sessions.get(tag_id)

    @property
    def sessions(self) -> tuple[TagSession, ...]:
        """Live sessions in registration order (arbitration order)."""
        return tuple(self._sessions.values())

    def __len__(self) -> int:
        return len(self._sessions)

    # -- liveness ---------------------------------------------------------
    def keepalive(self, tag_id: str, now_s: float) -> bool:
        """Refresh a tag's liveness; False if it is no longer registered."""
        session = self._sessions.get(tag_id)
        if session is None:
            return False
        session.last_keepalive_s = now_s
        return True

    def evict_stale(self, now_s: float) -> list[TagSession]:
        """Drop every session whose keepalive lapsed past the timeout."""
        stale = [
            s
            for s in self._sessions.values()
            if now_s - s.last_keepalive_s > self.keepalive_timeout_s
        ]
        for session in stale:
            self._sessions.pop(session.tag_id, None)
        return stale
