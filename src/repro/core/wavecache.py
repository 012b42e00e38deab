"""Waveform and template caching (perf tier 3).

Monte-Carlo experiments remodulate the same packet heads thousands of
times: identification trials rebuild reference templates per sweep
point, and excitation traffic regenerates the (payload-independent)
preamble of every packet.  The caches collected here memoize those
deterministic parts; payloads stay fresh.

Every cache is a ``functools.lru_cache``-wrapped function in the module
that uses it: the reference packets, template banks and receiver sets,
the scrambler cycles, 802.11b packet heads and 802.11n training
fields, the ADC's anti-aliasing, BLE's receive and the resampler's
polyphase filter designs, and the channel shift's phasors.  One table
here names them all, so :func:`cache_stats` and :func:`clear_caches`
cover every one.  A cache hands the same object to every caller, and
its callers only read it; ``templates.reference_waveform`` wraps its
cache and returns copies, which are the caller's to mutate.

Cache keys always include every input that shapes the cached value,
so a hit can never alias two distinct signals.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "cache_stats",
    "clear_caches",
]


def _table() -> dict[str, Any]:
    """Every cache in the program: report name -> cached function.

    Imported on first use, so importing this module pulls in no PHY.
    """
    from repro.core import adc, templates
    from repro.phy import ble, bits, pulse, waveform, wifi_b, wifi_n
    from repro.sim import pipeline

    return {
        "core.adc.antialias_design": adc._antialias_design,
        "core.templates.bank": templates._build_bank,
        "core.templates.reference_waveform": templates._build_reference,
        "phy.ble.rx_filter": ble._rx_filter,
        "phy.pulse.rrc_taps": pulse.rrc_taps,
        "phy.waveform.resample_taps": waveform._resample_taps,
        "phy.waveform.shift_phasor": waveform._shift_phasor,
        "phy.bits.lfsr_cycle": bits._lfsr_cycle,
        "phy.bits.ble_whiten_cycle": bits._ble_whiten_cycle,
        "phy.wifi_b.cached_head": wifi_b._cached_head,
        "phy.wifi_n.l_stf": wifi_n._l_stf,
        "phy.wifi_n.l_ltf": wifi_n._l_ltf,
        "phy.wifi_n.ht_ltf": wifi_n._ht_ltf,
        "phy.wifi_n.l_sig": wifi_n._l_sig,
        "phy.wifi_n.ht_sig": wifi_n._ht_sig,
        "phy.wifi_n.ht_permutation": wifi_n._ht_permutation,
        "sim.pipeline.receiver_set": pipeline.receiver_set,
    }


def cache_stats() -> dict[str, dict[str, int]]:
    """Counters for every cache, keyed by cache name.

    ``evictions`` is ``misses - size``: every miss stores one entry,
    and :func:`clear_caches` resets the counters with the entries.  A
    fill that raised stores nothing, and a fill that another thread had
    already made is dropped, so each also counts as one eviction.
    """
    out: dict[str, dict[str, int]] = {}
    for name, fn in _table().items():
        info = fn.cache_info()
        out[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "evictions": info.misses - info.currsize,
            "size": info.currsize,
            "maxsize": info.maxsize,
        }
    return out


def clear_caches() -> None:
    """Empty every cache and reset its counters."""
    for fn in _table().values():
        fn.cache_clear()
