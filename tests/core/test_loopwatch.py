"""Event-loop lag sanitizer: detection, thresholds, gateway wiring."""

import asyncio
import time

import numpy as np

from repro import perf
from repro.core import loopwatch
from repro.core.loopwatch import LoopWatch


def _lag_samples() -> int:
    """Monitor wake-ups so far: each one records a ``loopwatch.lag_s``
    gauge sample."""
    return int(perf.gauges().get("loopwatch.lag_s", {}).get("n", 0))


class TestEnablement:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(loopwatch.ENV_FLAG, raising=False)
        assert not loopwatch.enabled()
        assert loopwatch.maybe_start() is None

    def test_zero_means_disabled(self, monkeypatch):
        monkeypatch.setenv(loopwatch.ENV_FLAG, "0")
        assert not loopwatch.enabled()

    def test_enabled_by_flag(self, monkeypatch):
        monkeypatch.setenv(loopwatch.ENV_FLAG, "1")
        assert loopwatch.enabled()

    def test_default_threshold(self):
        assert LoopWatch().threshold_s == loopwatch.DEFAULT_THRESHOLD_S

    def test_maybe_start_returns_running_watch(self, monkeypatch):
        monkeypatch.setenv(loopwatch.ENV_FLAG, "1")

        async def run():
            watch = loopwatch.maybe_start()
            assert watch is not None
            await asyncio.sleep(0.03)
            return await watch.stop()

        before = _lag_samples()
        asyncio.run(run())
        assert _lag_samples() - before >= 1


class TestLagDetection:
    def test_blocking_callback_counts_as_violation(self):
        async def run():
            watch = LoopWatch(interval_s=0.01, threshold=0.05)
            watch.start()
            await asyncio.sleep(0.02)
            time.sleep(0.12)  # monopolize the loop past the threshold
            await asyncio.sleep(0.02)
            return await watch.stop()

        stats = asyncio.run(run())
        assert stats.violations >= 1
        assert stats.max_lag_s >= 0.05

    def test_idle_loop_is_clean(self):
        async def run():
            watch = LoopWatch(interval_s=0.01, threshold=0.05)
            watch.start()
            await asyncio.sleep(0.05)
            return await watch.stop()

        before = _lag_samples()
        stats = asyncio.run(run())
        assert stats.violations == 0
        assert _lag_samples() - before >= 2

    def test_debug_mode_slow_callbacks_counted(self):
        # PYTHONASYNCIODEBUG's in-process equivalent: with loop debug
        # on, asyncio logs any callback slower than
        # slow_callback_duration; the watcher counts those records as
        # a second, independent signal.
        async def run():
            asyncio.get_running_loop().set_debug(True)
            watch = LoopWatch(interval_s=0.01, threshold=0.05)
            watch.start()  # aligns slow_callback_duration with 0.05
            await asyncio.sleep(0.02)
            time.sleep(0.12)
            await asyncio.sleep(0.02)
            return await watch.stop()

        stats = asyncio.run(run())
        assert stats.slow_callbacks >= 1

    def test_stop_is_idempotent_and_detaches(self):
        async def run():
            watch = LoopWatch(interval_s=0.01, threshold=0.05)
            watch.start()
            await asyncio.sleep(0.02)
            first = await watch.stop()
            second = await watch.stop()
            return first, second

        first, second = asyncio.run(run())
        assert first is second or first == second


class TestGatewayIntegration:
    def test_serve_records_loopwatch_stats(self, monkeypatch):
        monkeypatch.setenv(loopwatch.ENV_FLAG, "1")
        from repro.gateway import AsyncExcitationSource, Gateway, GatewayConfig
        from repro.phy.protocols import Protocol
        from repro.sim.traffic import ExcitationSource

        async def run():
            gw = Gateway(GatewayConfig(seed=3, keepalive_timeout_s=30.0))
            await gw.register_tag("t")
            source = AsyncExcitationSource(
                [
                    ExcitationSource(protocol=p, rate_pkts=200.0, periodic=False)
                    for p in Protocol
                ],
                duration_s=0.2,
                rng=np.random.default_rng(5),
                max_packets=6,
            )
            return await gw.serve(source)

        stats = asyncio.run(run())
        # A healthy short run must come out violation-free; the fields
        # exist precisely so CI can assert this.
        assert stats.loopwatch_violations == 0
        assert stats.loopwatch_max_lag_s >= 0.0
        assert stats.drained_clean
