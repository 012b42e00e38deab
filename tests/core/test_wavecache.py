"""Waveform/template cache behavior: stats, keys, read-only values."""

import ast
import dataclasses
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core import wavecache
from repro.core.adc import Adc
from repro.core.identification import ProtocolIdentifier
from repro.core.templates import (
    Template,
    TemplateBank,
    cached_bank,
    reference_waveform,
)
from repro.phy.protocols import Protocol


def _stats(name):
    return wavecache.cache_stats()[name]


_PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"


def _is_memo(node: ast.expr) -> bool:
    """Is ``node`` ``lru_cache``/``cache``, called or not, bare or as a
    ``functools`` attribute?"""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr in ("lru_cache", "cache")
    return isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")


def _memoized_functions() -> tuple[set[str], list[str]]:
    """``(module.qualname of every function under src/repro that an
    lru_cache or cache decorator wraps, other lru_cache/cache calls)``."""
    decorated: set[str] = set()
    elsewhere: list[str] = []
    for path in sorted(_PACKAGE.rglob("*.py")):
        parts = path.relative_to(_PACKAGE.parent).with_suffix("").parts
        module = ".".join(p for p in parts if p != "__init__")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorators = set()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    memo = [d for d in child.decorator_list if _is_memo(d)]
                    if memo:
                        decorated.add(f"{module}.{prefix}{child.name}")
                    decorators.update(id(d) for d in memo)
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(tree, "")
        elsewhere += [
            f"{module}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))
            and _is_memo(node.func)
            and id(node) not in decorators
        ]
    return decorated, elsewhere


class TestTable:
    """``wavecache``'s table names every cache in the program."""

    def test_every_memo_decorator_is_in_the_table_and_nothing_else(self):
        decorated, elsewhere = _memoized_functions()
        assert not elsewhere, f"memoize with a decorator, not a call: {elsewhere}"
        table = {
            f"{fn.__module__}.{fn.__qualname__}" for fn in wavecache._table().values()
        }
        assert decorated == table
        assert len(table) == 17

    def test_every_table_entry_is_a_cached_function(self):
        for name, fn in wavecache._table().items():
            assert callable(fn) and callable(fn.cache_clear), name
            assert fn.cache_info().maxsize is not None, f"{name} is unbounded"

    def test_the_scan_sees_a_decorator_in_any_spelling(self):
        source = """
            import functools
            from functools import cache, lru_cache

            @lru_cache(maxsize=4)
            def a(x): return x

            @functools.lru_cache
            def b(x): return x

            @cache
            def c(x): return x

            def d(x): return x

            e = functools.lru_cache(maxsize=2)(d)
        """
        tree = ast.parse(textwrap.dedent(source))
        funcs = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert {k for k, f in funcs.items() if any(map(_is_memo, f.decorator_list))} == {"a", "b", "c"}
        call = next(n for n in ast.walk(tree) if isinstance(n, ast.Assign)).value
        assert _is_memo(call.func)


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
        assert _stats("core.templates.reference_waveform")["size"] > 0
        wavecache.clear_caches()
        assert all(
            s["size"] == s["hits"] == s["misses"] == s["evictions"] == 0
            for s in wavecache.cache_stats().values()
        )

    def test_a_fill_that_raised_counts_as_one_eviction(self):
        wavecache.clear_caches()
        with pytest.raises(ValueError, match="unknown protocol"):
            reference_waveform("not-a-protocol")
        reference_waveform(Protocol.BLE)
        stats = _stats("core.templates.reference_waveform")
        assert (stats["misses"], stats["size"], stats["evictions"]) == (2, 1, 1)


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

    def test_cache_hits_recorded(self):
        wavecache.clear_caches()
        reference_waveform(Protocol.WIFI_B)
        reference_waveform(Protocol.WIFI_B)
        stats = _stats("core.templates.reference_waveform")
        assert (stats["misses"], stats["hits"], stats["size"]) == (1, 1, 1)


class TestCachedBank:
    def test_same_derivation_shares_one_bank(self):
        wavecache.clear_caches()
        a = cached_bank(Adc(sample_rate=2.5e6))
        b = cached_bank(Adc(sample_rate=2.5e6))
        assert a is b
        stats = _stats("core.templates.bank")
        assert (stats["misses"], stats["hits"]) == (1, 1)

    def test_the_key_is_the_derivation_not_its_spelling(self):
        wavecache.clear_caches()
        a = cached_bank(Adc(sample_rate=2.5e6))
        assert cached_bank(Adc(sample_rate=2500000), window_us=8, preprocess_us=2) is a
        assert cached_bank(Adc(sample_rate=2.5e6, n_bits=9), preprocess_us=2.0) is a
        stats = _stats("core.templates.bank")
        assert (stats["misses"], stats["hits"], stats["size"]) == (1, 2, 1)

    def test_derivation_params_are_part_of_the_key(self):
        base = cached_bank(Adc(sample_rate=2.5e6))
        assert cached_bank(Adc(sample_rate=5.0e6)) is not base
        assert cached_bank(Adc(sample_rate=2.5e6), window_us=38.0) is not base

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
        first = ProtocolIdentifier()
        second = ProtocolIdentifier()
        assert first.bank is second.bank
        assert _stats("core.templates.bank")["misses"] == 1

    def test_registered_in_cache_stats(self):
        cached_bank(Adc(sample_rate=2.5e6))
        assert "core.templates.bank" in wavecache.cache_stats()


class TestStackedTemplates:
    def test_stacked_once_in_template_order(self):
        bank = TemplateBank.build(Adc(sample_rate=2.5e6))
        assert bank.stacked.shape == bank.stacked_q.shape == (len(bank.templates), bank.l_m)
        for row, t in enumerate(bank.templates.values()):
            assert np.array_equal(bank.stacked[row], t.matching)
            assert np.array_equal(bank.stacked_q[row], t.matching_q)

    def test_templates_cannot_be_replaced_after_the_build(self):
        bank = TemplateBank.build(Adc(sample_rate=2.5e6))
        old = bank.templates[Protocol.BLE]
        flipped = Template(
            protocol=Protocol.BLE,
            l_p=old.l_p,
            matching=old.matching * -1.0,
            matching_q=old.matching_q * -1.0,
        )
        with pytest.raises(TypeError):
            bank.templates[Protocol.BLE] = flipped
        with pytest.raises(dataclasses.FrozenInstanceError):
            bank.templates = {Protocol.BLE: flipped}
        with pytest.raises(dataclasses.FrozenInstanceError):
            old.matching = flipped.matching
