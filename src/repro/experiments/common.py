"""Shared helpers for the experiment harness."""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.experiments.artifacts import ExperimentResult
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform
from repro.sim.runner import resolve_workers
from repro.sim.traffic import random_packet

__all__ = ["ExperimentResult", "labeled_traces", "PROTOCOL_ORDER"]

#: Presentation order used across result tables.
PROTOCOL_ORDER = (Protocol.WIFI_N, Protocol.WIFI_B, Protocol.BLE, Protocol.ZIGBEE)


def _build_trace(protocol: Protocol, seed_seq: np.random.SeedSequence) -> Waveform:
    """One trace from its own stream (also the worker entry point)."""
    rng = np.random.default_rng(seed_seq)
    return random_packet(protocol, rng, n_payload_bytes=40)


def labeled_traces(
    n_per_protocol: int,
    *,
    seed: int = 1234,
    n_workers: int | None = None,
) -> Iterator[tuple[Protocol, Waveform]]:
    """Identification trace set: random 40-byte payloads for all four
    protocols, yielded one labeled trace at a time.

    Every trace draws from its own stream spawned off one root
    ``SeedSequence``, so the set is reproducible from ``seed`` and a
    trace is built only when it is requested: a caller that scores each
    trace before taking the next holds one trace at a time, and one that
    walks the set twice takes ``list(...)``.  Traces can be modulated in
    parallel (``n_workers`` follows the shared ``REPRO_WORKERS`` knob,
    see :func:`repro.sim.runner.resolve_workers`) with bit-identical
    output, in the same order, for any worker count.
    """
    protocols = [p for p in Protocol for _ in range(n_per_protocol)]
    children = np.random.SeedSequence(seed).spawn(len(protocols))
    workers = min(resolve_workers(n_workers), max(len(protocols), 1))
    if workers <= 1:
        for p, s in zip(protocols, children):
            yield p, _build_trace(p, s)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from zip(
            protocols,
            pool.map(
                _build_trace,
                protocols,
                children,
                chunksize=max(len(protocols) // workers, 1),
            ),
        )
