"""Waveform and template caching (perf tier 3).

Monte-Carlo experiments remodulate the same packet heads thousands of
times: identification trials rebuild reference templates per sweep
point, and excitation traffic regenerates the (payload-independent)
preamble of every packet.  The caches collected here memoize those
deterministic parts; payloads stay fresh.

Two kinds of caches are tracked:

* :class:`LruCache` instances with hit/miss/eviction counters, used
  where the cached value is a mutable object (waveforms) that callers
  receive as defensive copies;
* ``functools.lru_cache``-wrapped functions inside the PHY modules
  and the ADC (scrambler cycles, 802.11b packet heads, 802.11n training
  fields, the ADC's anti-aliasing, BLE's receive and the resampler's
  polyphase filter designs, the channel shift's phasors), registered
  here so :func:`cache_stats` and :func:`clear_caches` cover them too.

Cache keys always include every input that shapes the cached value --
``(protocol, config fields, payload hash)`` for waveform-level caches
-- so a hit can never alias two distinct signals.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable

__all__ = [
    "LruCache",
    "cache_stats",
    "clear_caches",
    "register_functools_cache",
]

#: All named LruCache instances, in creation order.
_CACHES: "OrderedDict[str, LruCache]" = OrderedDict()

#: Registered functools.lru_cache-wrapped callables (name -> wrapper).
_FUNCTOOLS_CACHES: "OrderedDict[str, Any]" = OrderedDict()


class LruCache:
    """Least-recently-used cache with hit/miss/eviction counters.

    Values are stored as-is; callers that hand out mutable objects must
    copy on the way out (see ``templates.reference_waveform``).
    """

    def __init__(self, maxsize: int = 64, name: str | None = None) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.name = name
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if name is not None:
            _CACHES[name] = self

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, marking it most recently used."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key``, evicting the least recently used entry."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on a miss."""
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            value = factory()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._data.clear()

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._data),
            "maxsize": self.maxsize,
        }


def register_functools_cache(name: str, wrapper: Any) -> None:
    """Track a ``functools.lru_cache``-wrapped function by name."""
    _FUNCTOOLS_CACHES[name] = wrapper


def _register_phy_caches() -> None:
    """Register the PHY-module and ADC lru_caches (idempotent, import-lazy)."""
    from repro.core import adc
    from repro.phy import ble, bits, pulse, waveform, wifi_b, wifi_n

    for name, fn in (
        ("core.adc.antialias_design", adc._antialias_design),
        ("phy.ble.rx_filter", ble._rx_filter),
        ("phy.pulse.rrc_taps", pulse.rrc_taps),
        ("phy.waveform.resample_taps", waveform._resample_taps),
        ("phy.waveform.shift_phasor", waveform._shift_phasor),
        ("phy.bits.lfsr_cycle", bits._lfsr_cycle),
        ("phy.bits.ble_whiten_cycle", bits._ble_whiten_cycle),
        ("phy.wifi_b.cached_head", wifi_b._cached_head),
        ("phy.wifi_n.l_stf", wifi_n._l_stf),
        ("phy.wifi_n.l_ltf", wifi_n._l_ltf),
        ("phy.wifi_n.ht_ltf", wifi_n._ht_ltf),
        ("phy.wifi_n.l_sig", wifi_n._l_sig),
        ("phy.wifi_n.ht_sig", wifi_n._ht_sig),
        ("phy.wifi_n.ht_permutation", wifi_n._ht_permutation),
    ):
        _FUNCTOOLS_CACHES.setdefault(name, fn)


def cache_stats() -> dict[str, dict[str, int]]:
    """Counters for every tracked cache, keyed by cache name."""
    _register_phy_caches()
    out: dict[str, dict[str, int]] = {}
    for name, cache in _CACHES.items():
        out[name] = cache.stats()
    for name, fn in _FUNCTOOLS_CACHES.items():
        info = fn.cache_info()
        out[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "evictions": 0,
            "size": info.currsize,
            "maxsize": info.maxsize if info.maxsize is not None else -1,
        }
    return out


def clear_caches() -> None:
    """Empty every tracked cache (LruCache and functools alike)."""
    _register_phy_caches()
    for cache in _CACHES.values():
        cache.clear()
    for fn in _FUNCTOOLS_CACHES.values():
        fn.cache_clear()
