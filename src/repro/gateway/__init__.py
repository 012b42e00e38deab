"""Live tag-network gateway: the batch airlink as a streaming service.

The batch experiments replay a whole excitation schedule and hand back
a report; this package hosts the same signal path as a long-running
asyncio service with a strict control/data-plane split:

* **data plane** -- per-subscriber bounded queues with declared
  backpressure (:mod:`repro.gateway.subscriptions`), fed by the air
  loop in :mod:`repro.gateway.service`;
* **control plane** -- tag registration, keepalive liveness, carrier
  assignment (:mod:`repro.gateway.control`);
* **MAC arbitration** -- deterministic, seeded winner selection among
  contending tags (:mod:`repro.gateway.mac`);
* **sources** -- batch traffic schedules lifted to async streams
  (:mod:`repro.gateway.sources`).

Run it from the CLI: ``python -m repro serve``.  The streaming decode
path is byte-identical to :func:`repro.sim.airlink.run_airlink` on the
same seed (tests/gateway/test_equivalence.py pins this).
"""

from repro.gateway.control import ControlPlane, TagSession
from repro.gateway.events import ControlEvent, GatewayEvent, PacketEvent
from repro.gateway.mac import MacArbiter
from repro.gateway.service import Gateway, GatewayConfig, GatewayStats
from repro.gateway.sources import AsyncExcitationSource
from repro.gateway.subscriptions import (
    Backpressure,
    Subscriber,
    SubscriptionClosed,
    SubscriptionHub,
)

__all__ = [
    "AsyncExcitationSource",
    "Backpressure",
    "ControlEvent",
    "ControlPlane",
    "Gateway",
    "GatewayConfig",
    "GatewayEvent",
    "GatewayStats",
    "MacArbiter",
    "PacketEvent",
    "Subscriber",
    "SubscriptionClosed",
    "SubscriptionHub",
    "TagSession",
]
