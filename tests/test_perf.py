"""Perf instrumentation: gauges (level-style metrics) and the report."""

import pytest

from repro import perf


@pytest.fixture(autouse=True)
def _clean_perf():
    perf.reset()
    yield
    perf.reset()


class TestGauges:
    def test_first_sample_initialises_all_fields(self):
        perf.gauge("q.depth", 3.0)
        assert perf.gauges()["q.depth"] == {
            "last": 3.0, "min": 3.0, "max": 3.0, "n": 1,
        }

    def test_tracks_last_min_max(self):
        for v in (5.0, 1.0, 9.0, 4.0):
            perf.gauge("lat", v)
        g = perf.gauges()["lat"]
        assert g == {"last": 4.0, "min": 1.0, "max": 9.0, "n": 4}

    def test_independent_names(self):
        perf.gauge("a", 1.0)
        perf.gauge("b", 2.0)
        assert set(perf.gauges()) == {"a", "b"}

    def test_reset_clears_gauges(self):
        perf.gauge("a", 1.0)
        perf.reset()
        assert perf.gauges() == {}

    def test_report_renders_gauge_section(self):
        perf.gauge("gateway.queue_depth.s", 7.0)
        text = perf.report()
        assert "gauges (name, last, min, max, samples):" in text
        assert "gateway.queue_depth.s" in text

    def test_report_omits_empty_gauge_section(self):
        assert "gauges (name" not in perf.report()


class TestCacheReport:
    def test_one_row_per_cache_with_its_evictions(self):
        from repro.core import wavecache
        from repro.phy.waveform import _shift_phasor

        wavecache.clear_caches()
        try:
            for k in range(17):  # one more key than the memo holds
                _shift_phasor(float(k), 20e6, 64)
            stats = wavecache.cache_stats()
            assert stats["phy.waveform.shift_phasor"] == {
                "hits": 0, "misses": 17, "evictions": 1, "size": 16, "maxsize": 16,
            }
            lines = perf.report().splitlines()
            rows = lines[lines.index("caches (name, hits, misses, evictions, size/max):") + 1:]
            assert [row.split()[0] for row in rows] == sorted(stats)
            row = next(r for r in rows if r.split()[0] == "phy.waveform.shift_phasor")
            assert row.split()[1:] == ["0", "17", "1", "16/16"]
        finally:
            wavecache.clear_caches()
