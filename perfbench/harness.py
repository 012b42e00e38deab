"""Pure helpers shared by the benchmark driver and its workload processes.

Nothing here imports the package under test or NumPy, so the driver can
use it before it knows whether the checkout is complete, and the self
tests in ``test_harness.py`` run anywhere.
"""

from __future__ import annotations

import hashlib
import math
import re
import statistics
from typing import Iterable, Sequence

#: Metric names the benchmark may print: letters, digits, ``_``, ``.``
#: and ``-``, starting with a letter or digit, at most 64 characters.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_SAMPLES_BEYOND = 10


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"illegal metric name {name!r}")
    return name


def samples_beyond(n: int, q: int) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile."""
    return n - 1 - math.floor((n - 1) * q / 100)


def latency_percentiles(
    samples: Iterable[float], qs: Sequence[int] = (50, 99)
) -> tuple[int, dict[int, float]]:
    """Whole-number percentiles of ONE sample set, where the count allows.

    Returns the sample count and ``{q: value}`` holding only the
    percentiles with at least :data:`MIN_SAMPLES_BEYOND` samples beyond
    them, interpolated as ``statistics.quantiles(method="inclusive")``
    does.  All percentiles come from the same cut points, so they are
    monotone in ``q``; that is asserted, not assumed.
    """
    data = list(samples)
    n = len(data)
    kept = [q for q in sorted(qs) if n and samples_beyond(n, q) >= MIN_SAMPLES_BEYOND]
    cuts = statistics.quantiles(data, n=100, method="inclusive") if kept else []
    out = {q: cuts[q - 1] for q in kept}
    values = list(out.values())
    if any(a > b for a, b in zip(values, values[1:])):
        raise AssertionError(f"percentiles not monotone: {out}")
    return n, out


# -- output digests ---------------------------------------------------------


def packet_record(event: object) -> bytes:
    """Canonical bytes of one published ``PacketEvent``.

    Covers the outcome fields, the tag and both sequence numbers; the
    wall-clock ``decode_latency_s`` is left out, so the record is the
    same at any worker count, batch size or host speed.
    """
    o = event.outcome  # type: ignore[attr-defined]
    identified = o.identified.name if o.identified is not None else "-"
    bits = bytes(bytearray(int(b) for b in o.tag_bits_decoded))
    fields = (
        event.stream_seq,  # type: ignore[attr-defined]
        event.tag_id,  # type: ignore[attr-defined]
        event.seq,  # type: ignore[attr-defined]
        repr(float(event.time_s)),  # type: ignore[attr-defined]
        o.protocol.name,
        identified,
        int(bool(o.backscattered)),
        int(o.tag_bits_sent),
        int(o.tag_bits_correct),
        int(o.productive_bits_correct),
        int(o.productive_bits_total),
        bits.hex(),
    )
    return ("|".join(str(f) for f in fields) + "\n").encode()


class StreamDigest:
    """sha256 over the first ``limit`` packet records of a stream."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.count = 0
        self._hash = hashlib.sha256()

    def add(self, event: object) -> None:
        if self.count < self.limit:
            self._hash.update(packet_record(event))
        self.count += 1

    def hexdigest(self) -> str:
        if self.count < self.limit:
            raise ValueError(
                f"stream has {self.count} packets, digest needs {self.limit}"
            )
        return self._hash.hexdigest()


# -- failure accounting -----------------------------------------------------


def gateway_failed(
    *,
    attempted: int,
    delivered: int,
    n_decode_retries: int = 0,
    n_decode_timeouts: int = 0,
    n_decode_worker_crashes: int = 0,
    n_tag_evictions: int = 0,
    consumer_error: bool = False,
    drained_clean: bool = True,
) -> int:
    """Packets of a gateway run that count as failed.

    A packet the subscriber never received failed (dropped events and
    subscriber evictions show up here).  Each decode retry, timeout,
    worker crash or tag eviction counts as one more failure.  A consumer
    error or an unclean drain fails the whole run.
    """
    if consumer_error or not drained_clean:
        return attempted
    lost = max(attempted - delivered, 0)
    incidents = (
        n_decode_retries + n_decode_timeouts + n_decode_worker_crashes + n_tag_evictions
    )
    return min(attempted, lost + incidents)


def campaign_failed(*, attempted: int, raised: int, digest_ok: bool) -> int:
    """Experiments of a campaign run that count as failed."""
    if not digest_ok:
        return attempted
    return min(attempted, raised)
