#!/usr/bin/env python
"""Gateway load test: concurrent tags per core under a latency budget.

Answers two capacity questions for the streaming service.

**Tags per core** (inline decode): how many concurrent tags can one
core host before p99 decode latency exceeds a symbol period?  The
sweep registers ``N`` tags for each ``N`` in ``TAG_SWEEP``, serves a
fixed mixed-protocol schedule through :class:`repro.gateway.Gateway`,
and records warm per-packet decode latency (staged -> published) plus
throughput.  The sweep keeps doubling ``N`` past the last configured
point until p99 exceeds the budget or ``MAX_TAGS`` is reached; if
every point fits the budget the payload carries
``"sweep_exhausted": true`` so the capacity figure is read as a lower
bound, not a knee.

**Tags per host** (sharded decode): at a pinned ``WORKER_SWEEP_TAGS``
tag count, how does throughput scale when completed batches are decoded
on a worker pool while the air loop keeps staging?  The worker sweep
serves the same schedule with ``decode_workers`` in ``WORKER_SWEEP``
(0 = inline) and ``decode_batch=WORKER_DECODE_BATCH`` so each executor
hop carries several packets (the kernels still run per packet).  The headline statistic is
``decode_speedup`` -- packets/sec with the largest pool over
packets/sec with a single worker -- which
``benchmarks/run_benchmarks.py`` gates at ``--gateway-min-speedup``.
The payload records ``host_cores`` alongside it: process-level decode
parallelism cannot beat the core count, so the gate is only enforced
on hosts with at least ``max(WORKER_SWEEP)`` cores (a single-core
host still records the sweep -- expect ~1x there, the overlap has no
spare core to run on).

The budget needs one documented convention.  The simulator's PHY runs
orders of magnitude slower than the radio it models, so the real-time
question is posed on a scaled radio clock: with the air interface
slowed by ``SIM_CLOCK_SLOWDOWN``, one ZigBee O-QPSK symbol (16 us, the
longest symbol period in the protocol mix) lasts
``LATENCY_BUDGET_S`` of wall time, and a tag's packet stream is
real-time-feasible only while p99 decode latency stays under that
budget.  Capacity (``tags_per_core``) is the largest swept ``N`` that
meets it.  The schedule itself is processed unpaced (``time_scale=0``)
-- pacing would only add idle sleeps; it cannot change per-packet
decode latency because staging is serial.

``benchmarks/run_benchmarks.py`` imports :func:`run_sweep`, gates the
result against the committed ``BENCH_gateway.json`` (capacity must not
shrink; p99 must not regress beyond the factor; the worker-pool
speedup must clear its floor), and rewrites it.  Standalone::

    PYTHONPATH=src python benchmarks/bench_gateway.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os

import numpy as np

#: Radio-clock slowdown used to state the latency budget (see module
#: docstring).  Chosen so the heaviest single-packet decode in the mix
#: (802.11n through the Viterbi kernel, the p99 driver) fits inside
#: the budget with ~2x headroom on a typical development core, and
#: headroom erodes as the control plane scales (keepalive tasks +
#: stale scans are O(N)).
SIM_CLOCK_SLOWDOWN = 12500

#: Longest symbol period in the protocol mix: ZigBee O-QPSK, 16 us.
ZIGBEE_SYMBOL_PERIOD_US = 16

#: p99 decode-latency budget on the slowed radio clock (200 ms wall).
#: Computed from integer microseconds with a single scale so the
#: budget is the exact binary float 0.2, not 16e-6 * 12500 =
#: 0.19999999999999998 -- an exact-boundary p99 must pass the gate.
LATENCY_BUDGET_S = (ZIGBEE_SYMBOL_PERIOD_US * SIM_CLOCK_SLOWDOWN) / 1_000_000

#: Concurrent-tag counts always swept, smallest to largest.  The sweep
#: continues doubling past the last entry until the budget is exceeded
#: or MAX_TAGS is hit (see run_sweep).
TAG_SWEEP = (1, 4, 16, 64)

#: Hard ceiling for the doubling extension; control-plane setup is
#: O(N) per round and the bench has to terminate.
MAX_TAGS = 256

#: Decode-worker counts for the tags-per-host sweep (0 = inline).
WORKER_SWEEP = (0, 1, 2, 4)

#: Tag count the worker sweep is served at.  Pinned (rather than
#: derived from the measured capacity) so the speedup gate compares
#: like against like across machines and across sweep extensions.
WORKER_SWEEP_TAGS = 64

#: decode_batch used in the worker sweep: packets per executor hop,
#: which spreads the hop's cost (kernels still run per packet).
WORKER_DECODE_BATCH = 4

#: Packets served per sweep point; the first WARMUP_PACKETS are
#: excluded from latency stats (cold template/wave caches and JIT-like
#: first-touch costs are setup, not steady-state service).
N_PACKETS = 48
WARMUP_PACKETS = 8

#: Rounds per sweep point.  The recorded statistic is the best round:
#: scheduler hiccups only ever inflate a p99, never shrink it, so
#: min-over-rounds is the noise-robust estimate a regression gate can
#: trust.
N_ROUNDS = 3

SEED = 20260807


def _make_source(rng: np.random.Generator):
    from repro.gateway import AsyncExcitationSource
    from repro.phy.protocols import Protocol
    from repro.sim.traffic import ExcitationSource

    return AsyncExcitationSource(
        [
            ExcitationSource(protocol=p, rate_pkts=400.0, periodic=False)
            for p in Protocol
        ],
        duration_s=2.0,
        rng=rng,
        max_packets=N_PACKETS,
    )


async def _serve_once(
    n_tags: int, *, decode_workers: int = 0, decode_batch: int = 1
) -> dict[str, float]:
    from repro.gateway import Gateway, GatewayConfig

    gw = Gateway(
        GatewayConfig(
            seed=SEED,
            keepalive_timeout_s=30.0,
            decode_workers=decode_workers,
            decode_batch=decode_batch,
        )
    )
    for i in range(n_tags):
        await gw.register_tag(f"tag-{i:04d}")
    sub = gw.subscribe("bench", maxlen=4 * N_PACKETS)

    async def consume() -> None:
        try:
            async for _ in sub:
                pass
        except Exception:  # noqa: BLE001 -- end of stream
            pass

    task = asyncio.ensure_future(consume())
    stats = await gw.serve(_make_source(np.random.default_rng(SEED)))
    await task
    if not stats.drained_clean or stats.n_dropped_events:
        raise RuntimeError(
            f"bench run unhealthy at {n_tags} tags: "
            f"drained_clean={stats.drained_clean} "
            f"drops={stats.n_dropped_events}"
        )
    warm = np.asarray(stats.decode_latencies_s[WARMUP_PACKETS:])
    return {
        "n_tags": n_tags,
        "n_decoded": int(warm.size),
        "p50_latency_s": float(np.percentile(warm, 50)),
        "p99_latency_s": float(np.percentile(warm, 99)),
        "packets_per_s": float(stats.packets_per_s()),
    }


def _best_of_rounds(
    n_tags: int,
    *,
    decode_workers: int = 0,
    decode_batch: int = 1,
    rounds: int = N_ROUNDS,
) -> dict[str, float]:
    results = [
        asyncio.run(
            _serve_once(
                n_tags,
                decode_workers=decode_workers,
                decode_batch=decode_batch,
            )
        )
        for _ in range(rounds)
    ]
    best = min(results, key=lambda r: r["p99_latency_s"])
    best["packets_per_s"] = max(r["packets_per_s"] for r in results)
    return best


def _tag_points(rounds: int, max_tags: int) -> tuple[list[dict[str, float]], bool]:
    """Sweep TAG_SWEEP, then keep doubling until the budget breaks.

    Returns the sweep points and whether the sweep was exhausted --
    every point (including ``max_tags``) still met the budget, so the
    capacity figure is a lower bound rather than a measured knee.
    """
    points = [_best_of_rounds(n, rounds=rounds) for n in TAG_SWEEP]
    n = int(points[-1]["n_tags"])
    while points[-1]["p99_latency_s"] <= LATENCY_BUDGET_S and 2 * n <= max_tags:
        n *= 2
        points.append(_best_of_rounds(n, rounds=rounds))
    exhausted = all(p["p99_latency_s"] <= LATENCY_BUDGET_S for p in points)
    return points, exhausted


def _worker_points(rounds: int, n_tags: int) -> list[dict[str, float]]:
    points = []
    for workers in WORKER_SWEEP:
        point = _best_of_rounds(
            n_tags,
            decode_workers=workers,
            decode_batch=WORKER_DECODE_BATCH,
            rounds=rounds,
        )
        point["decode_workers"] = workers
        points.append(point)
    return points


def run_sweep(
    *, rounds: int = N_ROUNDS, max_tags: int = MAX_TAGS, workers: bool = True
) -> dict[str, object]:
    """Run the full sweep; returns the ``BENCH_gateway.json`` payload."""
    points, exhausted = _tag_points(rounds, max_tags)
    capacity = 0
    for point in points:
        if point["p99_latency_s"] <= LATENCY_BUDGET_S:
            capacity = max(capacity, int(point["n_tags"]))
    payload: dict[str, object] = {
        "workload": (
            f"{N_PACKETS} mixed-protocol packets per point "
            f"(first {WARMUP_PACKETS} excluded as warmup), MAC-arbitrated "
            f"across N tags, one subscriber, block policy; best of "
            f"{rounds} rounds"
        ),
        "latency_budget_s": LATENCY_BUDGET_S,
        "budget_convention": (
            "ZigBee O-QPSK symbol period (16 us) on a radio clock slowed "
            f"{SIM_CLOCK_SLOWDOWN}x to the simulator's scale"
        ),
        "sweep": points,
        "tags_per_core": capacity,
        "sweep_exhausted": exhausted,
    }
    if workers:
        host_tags = WORKER_SWEEP_TAGS
        worker_points = _worker_points(rounds, host_tags)
        by_workers = {int(p["decode_workers"]): p for p in worker_points}
        lo = by_workers.get(1)
        hi = by_workers.get(max(WORKER_SWEEP))
        speedup = 0.0
        if lo and hi and lo["packets_per_s"] > 0:
            speedup = hi["packets_per_s"] / lo["packets_per_s"]
        payload["worker_sweep"] = worker_points
        payload["worker_sweep_tags"] = host_tags
        payload["worker_decode_batch"] = WORKER_DECODE_BATCH
        payload["decode_speedup"] = round(speedup, 2)
        payload["host_cores"] = os.cpu_count() or 1
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rounds",
        type=int,
        default=N_ROUNDS,
        help=f"rounds per sweep point, best-of recorded (default {N_ROUNDS})",
    )
    parser.add_argument(
        "--max-tags",
        type=int,
        default=MAX_TAGS,
        help="ceiling for the doubling tag-sweep extension "
        f"(default {MAX_TAGS})",
    )
    parser.add_argument(
        "--no-workers",
        action="store_true",
        help="skip the decode-worker (tags-per-host) sweep",
    )
    args = parser.parse_args(argv)
    payload = run_sweep(
        rounds=args.rounds, max_tags=args.max_tags, workers=not args.no_workers
    )
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
