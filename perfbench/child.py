"""One workload process of the benchmark (started by ``run.py``).

    python3 perfbench/child.py gateway --seed N --seconds S \
        --spawned T --out result.json --tmp DIR [--setup-only] [--trace]
    python3 perfbench/child.py campaign --seed N --spawned T --out result.json \
        --tmp DIR [--trace]

``--spawned`` is the driver's ``time.monotonic()`` just before it started
this interpreter; the result reports ``setup_end`` on the same clock, so
set-up time counts interpreter start and imports too.  The result is a
JSON file, so nothing the program prints can corrupt it.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import importlib
import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import tracing  # noqa: E402

#: Registered tags on every gateway run.
N_TAGS = 16
#: The seed whose outputs ``expected.json`` records.
DEFAULT_SEED = 0
#: Published packets covered by a stream digest.
DIGEST_PACKETS = 64
#: Schedule-time packet rate of each protocol.  Serving is unpaced
#: (``time_scale=0``), so only the order of protocols matters.
RATE_PER_PROTOCOL = 400.0
#: Schedule length, several times what a 50 s window serves today.
#: Fixed, so every window and the digest check replay prefixes of one
#: schedule.
SCHEDULE_PACKETS = 20_000


def _rusage_cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (KiB on Linux)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _reap_children() -> None:
    """Wait for decode workers the gateway has already told to exit."""
    for proc in multiprocessing.active_children():
        proc.join(timeout=30)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5)


def _wavecache_misses() -> int:
    from repro.core.wavecache import cache_stats

    return sum(s["misses"] for s in cache_stats().values())


# -- gateway ------------------------------------------------------------------


def _schedule(seed: int, n_packets: int) -> Any:
    """Seeded Poisson arrivals of all four protocols at equal rates.

    The merged stream is Poisson at four times the per-protocol rate,
    and every block of four consecutive packets holds each protocol
    once, in seeded order.  An 802.11n packet costs over ten times any
    other to serve, so with independent per-protocol streams its share
    of a window varies by several percent between seeds and moves
    throughput by up to 15%; balanced labels keep the mix exact and
    leave the seed to vary order, timing, payloads and noise.
    """
    import numpy as np

    from repro.phy.protocols import Protocol
    from repro.sim.traffic import (
        ExcitationSchedule,
        ExcitationSource,
        ScheduledPacket,
        packet_airtime_s,
    )

    rng = np.random.default_rng(seed)
    protocols = list(Protocol)
    sources = [
        ExcitationSource(protocol=p, rate_pkts=RATE_PER_PROTOCOL, periodic=False)
        for p in protocols
    ]
    airtimes = [packet_airtime_s(p, src.resolved_payload()) for p, src in zip(protocols, sources)]
    starts = np.cumsum(rng.exponential(1.0 / (len(protocols) * RATE_PER_PROTOCOL), n_packets))
    blocks = -(-n_packets // len(protocols))
    order = np.concatenate([rng.permutation(len(protocols)) for _ in range(blocks)])
    packets = [
        ScheduledPacket(
            protocol=protocols[k], start_s=float(t), airtime_s=airtimes[k], source=sources[k]
        )
        for k, t in zip(order.tolist(), starts.tolist())
    ]
    return ExcitationSchedule(duration_s=float(starts[-1]), packets=packets)


def _source(schedule: Any) -> Any:
    """A fresh unpaced stream over ``schedule``."""
    import numpy as np

    from repro.gateway import AsyncExcitationSource

    source = AsyncExcitationSource([], duration_s=0.0, rng=np.random.default_rng(0))
    source.schedule = schedule
    return source


_SCHEDULES: dict[int, Any] = {}


def _timed_source(seed: int, max_packets: int | None = None) -> Any:
    """A stream over (a prefix of) the seed's schedule, rendered once."""
    from repro.sim.traffic import ExcitationSchedule

    if seed not in _SCHEDULES:
        _SCHEDULES[seed] = _schedule(seed, SCHEDULE_PACKETS)
    full = _SCHEDULES[seed]
    return _source(ExcitationSchedule(full.duration_s, full.packets[:max_packets]))


class _Window:
    """A gateway with tags registered and a draining subscriber attached."""

    def __init__(self, mode: str, seed: int) -> None:
        from repro.gateway import Gateway, GatewayConfig

        if mode == "pool":
            cfg = GatewayConfig(seed=seed, decode_workers=1, decode_batch=16)
        else:
            cfg = GatewayConfig(seed=seed)
        self.gw = Gateway(cfg)
        self.digest = harness.StreamDigest(DIGEST_PACKETS)
        self.delivered = 0
        self.last_seq = 0
        self.error: str | None = None
        self.stats: Any = None

    async def register(self) -> None:
        for i in range(N_TAGS):
            await self.gw.register_tag(f"tag-{i:02d}")
        self.sub = self.gw.subscribe("bench")

    async def _consume(self) -> None:
        from repro.gateway import PacketEvent

        try:
            async for ev in self.sub:
                if not isinstance(ev, PacketEvent):
                    continue
                if ev.stream_seq != self.last_seq + 1 and self.error is None:
                    self.error = f"stream_seq {ev.stream_seq} after {self.last_seq}"
                self.last_seq = ev.stream_seq
                self.delivered += 1
                self.digest.add(ev)
        except Exception as exc:  # noqa: BLE001 -- reported as a failed run
            self.error = f"consumer: {exc!r}"

    async def serve(self, source: Any, seconds: float | None) -> None:
        consumer = asyncio.ensure_future(self._consume())
        timer = None
        if seconds is not None:
            timer = asyncio.get_running_loop().call_later(seconds, source.stop)
        try:
            self.stats = await self.gw.serve(source)
        finally:
            if timer is not None:
                timer.cancel()
        await consumer
        _reap_children()


def _summary(windows: list[_Window]) -> dict[str, Any]:
    """Totals over windows; latency percentiles from their pooled samples."""
    latencies = [x for w in windows for x in w.stats.decode_latencies_s]
    n, pct = harness.latency_percentiles(latencies)
    digests = {w.digest.hexdigest() if w.delivered >= DIGEST_PACKETS else None for w in windows}
    errors = [w.error for w in windows if w.error is not None]
    if len(digests) > 1:
        errors.append(f"windows replaying one schedule disagree: {sorted(map(str, digests))}")
    s = [w.stats for w in windows]
    return {
        "packets": sum(x.n_packets for x in s),
        "delivered": sum(w.delivered for w in windows),
        "elapsed_s": sum(x.elapsed_s for x in s),
        "latency_n": n,
        "latency_ms": {str(q): v * 1e3 for q, v in pct.items()},
        "failed": sum(
            harness.gateway_failed(
                attempted=w.stats.n_packets,
                delivered=w.delivered,
                n_decode_retries=w.stats.n_decode_retries,
                n_decode_timeouts=w.stats.n_decode_timeouts,
                n_decode_worker_crashes=w.stats.n_decode_worker_crashes,
                n_tag_evictions=w.stats.n_tag_evictions,
                consumer_error=w.error is not None,
                drained_clean=w.stats.drained_clean,
            )
            for w in windows
        ),
        "incidents": sum(
            x.n_decode_retries
            + x.n_decode_timeouts
            + x.n_decode_worker_crashes
            + x.n_tag_evictions
            + x.n_subscriber_evictions
            + x.n_dropped_events
            for x in s
        ),
        "error": "; ".join(errors) or None,
        "digest": digests.pop() if len(digests) == 1 else None,
    }


async def _traced(win: _Window, span_dir: Path, seed: int, seconds: float) -> dict[str, list[int]]:
    """Serve one window with every layer wrapped; returns its spans."""
    tracing.install(span_dir)
    tracing.reset()
    try:
        await win.serve(_timed_source(seed), seconds)
    finally:
        tracing.uninstall()
    return tracing.collect(span_dir)


async def _gateway(args: argparse.Namespace) -> dict[str, Any]:
    import repro.gateway  # noqa: F401 -- import cost belongs to set-up
    import repro.sim.traffic  # noqa: F401

    out: dict[str, Any] = {}
    mark = time.monotonic()
    out["import_s"] = mark - args.spawned

    warm = _Window("inline", args.seed)
    await warm.register()
    now = time.monotonic()
    out["register_s"], mark = now - mark, now
    # Warm-up input: one packet of each protocol.
    await warm.serve(_source(_schedule(args.seed, 4)), None)
    first = _Window("inline", args.seed)
    await first.register()
    now = time.monotonic()
    out["warmup_s"], out["setup_end"] = now - mark, now
    if args.setup_only:
        return out

    # A traced run alternates untraced and traced windows, so a host
    # speed phase cannot masquerade as tracing overhead, and ends with
    # a traced window through the decode pool (one worker, batches of
    # 16) for the pool's own layers.  The untraced windows get 70% of
    # the time (shares of --seconds), so at --seconds 50 they serve the
    # 902 packets a p99 with ten samples beyond it needs down to 26 pkt/s.
    if args.trace:
        plan = [("timed", 0.35), ("traced", 0.1), ("timed", 0.35), ("traced", 0.1), ("pool", 0.1)]
    else:
        plan = [("timed", 1.0)]
    windows: dict[str, list[_Window]] = {"timed": [], "traced": [], "pool": []}
    out["cpu_s"] = 0.0
    for i, (kind, share) in enumerate(plan):
        window_s = args.seconds * share
        win = first if i == 0 else _Window("pool" if kind == "pool" else "inline", args.seed)
        if i:
            await win.register()
        if kind == "timed":
            cpu0 = _rusage_cpu_s()
            await win.serve(_timed_source(args.seed), window_s)
            out["cpu_s"] += _rusage_cpu_s() - cpu0
        else:
            span_dir = Path(args.tmp) / f"{kind}-{i}"
            spans = await _traced(win, span_dir, args.seed, window_s)
            tracing.merge(out.setdefault(f"spans_{kind}", {}), spans)
        windows[kind].append(win)
    out["peak_rss_mb"] = _peak_rss_mb()
    out.update({k: _summary(v) for k, v in windows.items() if v})

    check = _Window("inline", DEFAULT_SEED)
    await check.register()
    await check.serve(_timed_source(DEFAULT_SEED, DIGEST_PACKETS), None)
    out["check"] = _summary([check])
    out["wavecache_misses"] = _wavecache_misses()
    return out


# -- campaign -----------------------------------------------------------------


def _campaign(args: argparse.Namespace) -> dict[str, Any]:
    from repro.experiments import registry
    from repro.experiments.artifacts import ExperimentResult

    specs = registry.specs()
    for spec in specs:
        importlib.import_module(spec.module)  # binds the implementation
    out: dict[str, Any] = {"setup_end": time.monotonic()}
    out["import_s"] = out["setup_end"] - args.spawned

    if args.trace:
        tracing.install(Path(args.tmp) / "spans")
    art_dir = Path(args.tmp) / "artifacts"
    paths: dict[str, Path] = {}
    errors: dict[str, str] = {}
    cpu0 = _rusage_cpu_s()
    start = time.perf_counter()
    for spec in specs:
        overrides = {}
        if args.seed != DEFAULT_SEED and spec.has_param("seed"):
            overrides["seed"] = spec.params("paper").seed + args.seed
        try:
            result = spec.run("paper", **overrides)
            paths[spec.name] = result.save_in(art_dir)
        except Exception as exc:  # noqa: BLE001 -- one failure must not stop the campaign
            errors[spec.name] = f"{type(exc).__name__}: {exc}"
    out["campaign_s"] = time.perf_counter() - start
    out["cpu_s"] = _rusage_cpu_s() - cpu0
    if args.trace:
        out["spans"] = tracing.collect()
        tracing.uninstall()

    digests: dict[str, str] = {}
    for name, path in paths.items():
        data = path.read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        if (ExperimentResult.load(path).to_json() + "\n").encode() != data:
            errors[name] = "artifact does not round-trip byte for byte"
    out.update(
        experiments=len(specs),
        errors=errors,
        digests=digests,
        seeded=[s.name for s in specs if s.has_param("seed")],
        peak_rss_mb=_peak_rss_mb(),
        wavecache_misses=_wavecache_misses(),
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark workload process")
    parser.add_argument("kind", choices=("gateway", "campaign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.kind == "gateway":
        result = asyncio.run(_gateway(args))
    else:
        result = _campaign(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
