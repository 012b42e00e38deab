"""Waveform/template cache behavior: LRU policy, stats, invalidation."""

import numpy as np
import pytest

from repro.core import wavecache
from repro.core.adc import Adc
from repro.core.identification import ProtocolIdentifier
from repro.core.templates import (
    _BANK_CACHE,
    _REFERENCE_CACHE,
    Template,
    TemplateBank,
    cached_bank,
    reference_waveform,
)
from repro.phy.protocols import Protocol


class TestLruCache:
    def test_hit_miss_counters(self):
        c = wavecache.LruCache(maxsize=4)
        assert c.get("a") is None
        c.put("a", 1)
        assert c.get("a") == 1
        assert c.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "size": 1, "maxsize": 4,
        }

    def test_lru_eviction_order(self):
        c = wavecache.LruCache(maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")  # refresh a; b becomes LRU
        c.put("c", 3)
        assert "b" not in c and "a" in c and "c" in c
        assert c.evictions == 1

    def test_get_or_create_builds_once(self):
        c = wavecache.LruCache(maxsize=4)
        calls = []
        for _ in range(3):
            c.get_or_create("k", lambda: calls.append(1) or "v")
        assert len(calls) == 1
        assert c.hits == 2 and c.misses == 1

    def test_clear_keeps_counters(self):
        c = wavecache.LruCache(maxsize=2)
        c.put("a", 1)
        c.get("a")
        c.clear()
        assert len(c) == 0 and c.hits == 1

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            wavecache.LruCache(maxsize=0)


class TestRegistry:
    def test_cache_stats_covers_named_and_phy_caches(self):
        reference_waveform(Protocol.BLE)  # populate at least one entry
        stats = wavecache.cache_stats()
        assert "core.templates.reference_waveform" in stats
        assert "phy.wifi_b.cached_head" in stats
        assert "phy.wifi_n.l_stf" in stats
        assert "core.adc.antialias_design" in stats
        assert "phy.ble.rx_filter" in stats
        assert "phy.pulse.rrc_taps" in stats
        assert "phy.waveform.resample_taps" in stats
        assert "phy.waveform.shift_phasor" in stats
        for s in stats.values():
            assert set(s) == {"hits", "misses", "evictions", "size", "maxsize"}

    def test_filter_designs_are_made_once(self):
        from repro.core.rectifier import RectifierOutput
        from repro.phy import ble

        wavecache.clear_caches()
        analog = RectifierOutput(np.linspace(0.0, 0.1, 400), 20e6)
        for _ in range(3):
            Adc(sample_rate=2.5e6).capture(analog)
            ble.demodulate(ble.modulate(b"\x5a" * 4))
        stats = wavecache.cache_stats()
        for name in ("core.adc.antialias_design", "phy.ble.rx_filter"):
            assert (stats[name]["misses"], stats[name]["hits"]) == (1, 2), name

    def test_resample_taps_are_designed_once_per_ratio(self):
        from repro.phy.waveform import Waveform

        wavecache.clear_caches()
        wave = Waveform(np.ones(64, dtype=complex), 8e6)
        for _ in range(3):
            wave.resampled(50e6)
        stats = wavecache.cache_stats()["phy.waveform.resample_taps"]
        assert (stats["misses"], stats["hits"], stats["size"]) == (1, 2, 1)
        wave.resampled(20e6)
        assert wavecache.cache_stats()["phy.waveform.resample_taps"]["size"] == 2
        wavecache.clear_caches()
        assert wavecache.cache_stats()["phy.waveform.resample_taps"]["size"] == 0

    def test_rrc_taps_are_made_once_and_read_only(self):
        from repro.phy import pulse, wifi_b

        wavecache.clear_caches()
        waves = [wifi_b.modulate(b"\x5a" * 4) for _ in range(3)]
        stats = wavecache.cache_stats()["phy.pulse.rrc_taps"]
        assert (stats["misses"], stats["hits"], stats["size"]) == (1, 2, 1)
        assert all(w.iq.tobytes() == waves[0].iq.tobytes() for w in waves)
        taps = pulse.rrc_taps(0.5, 2)
        assert not taps.flags.writeable
        with pytest.raises(ValueError):
            taps[0] = 0.0
        wavecache.clear_caches()
        assert wavecache.cache_stats()["phy.pulse.rrc_taps"]["size"] == 0

    def test_shift_phasor_is_made_once_per_key(self):
        from repro.phy.waveform import Waveform, _shift_phasor

        wavecache.clear_caches()
        wave = Waveform(np.ones(8480, dtype=complex), 20e6)
        for _ in range(3):
            wave.frequency_shifted(10e6)
        stats = wavecache.cache_stats()["phy.waveform.shift_phasor"]
        assert (stats["misses"], stats["hits"], stats["size"]) == (1, 2, 1)
        assert stats["maxsize"] == 16
        wave.frequency_shifted(-10e6)
        assert wavecache.cache_stats()["phy.waveform.shift_phasor"]["size"] == 2
        phasor = _shift_phasor(10e6, 20e6, 8480)
        assert not phasor.flags.writeable
        with pytest.raises(ValueError):
            phasor[0] = 0.0
        wavecache.clear_caches()
        assert wavecache.cache_stats()["phy.waveform.shift_phasor"]["size"] == 0

    def test_cfo_derotations_leave_the_shift_memo_alone(self):
        from repro.phy.waveform import Waveform

        wavecache.clear_caches()
        wave = Waveform(np.ones(8480, dtype=complex), 20e6)
        wave.frequency_shifted(10e6)  # a tag's retune key
        before = wavecache.cache_stats()["phy.waveform.shift_phasor"]
        for cfo in np.random.default_rng(0).uniform(-60e3, 60e3, 32):
            wave.frequency_shifted(float(-cfo), memo=False)
        assert wavecache.cache_stats()["phy.waveform.shift_phasor"] == before
        wave.frequency_shifted(10e6)
        after = wavecache.cache_stats()["phy.waveform.shift_phasor"]
        assert (after["hits"], after["misses"], after["size"]) == (
            before["hits"] + 1, before["misses"], before["size"])

    def test_receivers_derotate_without_the_memo(self):
        from repro.phy import wifi_n, zigbee

        for phy, threshold_hz in ((wifi_n, 1.0), (zigbee, 0.5)):
            wave = phy.modulate(b"\x5a" * 12)
            drifted = wave.frequency_shifted(3.1e3)
            assert abs(phy.estimate_cfo(drifted)) > threshold_hz
            before = wavecache.cache_stats()["phy.waveform.shift_phasor"]
            phy.demodulate(drifted)
            assert wavecache.cache_stats()["phy.waveform.shift_phasor"] == before

    def test_clear_caches_empties_everything(self):
        reference_waveform(Protocol.ZIGBEE)
        assert len(_REFERENCE_CACHE) > 0
        wavecache.clear_caches()
        assert len(_REFERENCE_CACHE) == 0
        assert all(s["size"] == 0 for s in wavecache.cache_stats().values())


class TestReferenceWaveformCache:
    def test_copies_are_independent(self):
        a = reference_waveform(Protocol.BLE)
        b = reference_waveform(Protocol.BLE)
        assert a is not b and a.iq is not b.iq
        assert np.array_equal(a.iq, b.iq)
        a.iq[:] = 0.0
        a.annotations["poisoned"] = True
        c = reference_waveform(Protocol.BLE)
        assert np.any(c.iq != 0.0)
        assert "poisoned" not in c.annotations

    def test_distinct_payload_sizes_are_distinct_keys(self):
        a = reference_waveform(Protocol.ZIGBEE, n_payload_bytes=8)
        b = reference_waveform(Protocol.ZIGBEE, n_payload_bytes=16)
        assert a.n_samples != b.n_samples

    def test_cache_hits_recorded(self):
        wavecache.clear_caches()
        h0 = _REFERENCE_CACHE.hits
        reference_waveform(Protocol.WIFI_B)
        reference_waveform(Protocol.WIFI_B)
        assert _REFERENCE_CACHE.hits == h0 + 1


class TestCachedBank:
    def test_same_derivation_shares_one_bank(self):
        wavecache.clear_caches()  # empties entries; counters keep running
        m0, h0 = _BANK_CACHE.misses, _BANK_CACHE.hits
        a = cached_bank(Adc(sample_rate=2.5e6))
        b = cached_bank(Adc(sample_rate=2.5e6))
        assert a is b
        assert (_BANK_CACHE.misses - m0, _BANK_CACHE.hits - h0) == (1, 1)

    def test_derivation_params_are_part_of_the_key(self):
        base = cached_bank(Adc(sample_rate=2.5e6))
        assert cached_bank(Adc(sample_rate=5.0e6)) is not base
        assert cached_bank(
            Adc(sample_rate=2.5e6), incident_power_dbm=-20.0
        ) is not base

    def test_matches_uncached_build(self):
        cached = cached_bank(Adc(sample_rate=2.5e6))
        built = TemplateBank.build(Adc(sample_rate=2.5e6))
        assert cached.l_m == built.l_m
        for p in Protocol:
            assert np.array_equal(
                cached.templates[p].matching, built.templates[p].matching
            )

    def test_identifiers_share_the_cached_bank(self):
        wavecache.clear_caches()
        m0 = _BANK_CACHE.misses
        first = ProtocolIdentifier()
        second = ProtocolIdentifier()
        assert first.bank is second.bank
        assert _BANK_CACHE.misses - m0 == 1

    def test_registered_in_cache_stats(self):
        cached_bank(Adc(sample_rate=2.5e6))
        assert "core.templates.bank" in wavecache.cache_stats()


class TestStackedTemplates:
    def test_cached_and_invalidated_on_replacement(self):
        bank = TemplateBank.build(Adc(sample_rate=2.5e6))
        p1, m1 = bank.stacked(quantized=True)
        p2, m2 = bank.stacked(quantized=True)
        assert m1 is m2  # cache hit
        assert p1 == tuple(bank.templates)
        assert m1.shape == (len(bank.templates), bank.l_m)
        # Replacing a template must invalidate the stacked matrix.
        old = bank.templates[Protocol.BLE]
        bank.templates[Protocol.BLE] = Template(
            protocol=Protocol.BLE,
            l_p=old.l_p,
            matching=old.matching * -1.0,
            matching_q=old.matching_q * -1.0,
        )
        _, m3 = bank.stacked(quantized=True)
        assert m3 is not m1
        assert not np.array_equal(m3, m1)

    def test_quantized_and_full_coexist(self):
        bank = TemplateBank.build(Adc(sample_rate=2.5e6))
        _, mq = bank.stacked(quantized=True)
        _, mf = bank.stacked(quantized=False)
        _, mq2 = bank.stacked(quantized=True)
        assert mq is mq2  # alternating flags must not thrash
        assert mq.shape == mf.shape
