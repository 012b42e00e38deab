"""Identification templates (paper §2.2.2 and §2.3.2).

A template is the expected ADC-domain envelope of a protocol's packet
head.  It has two parts: a *preprocessing window* (L_p samples) used by
the matcher to estimate DC level and scale, and a *matching window*
(L_m samples) that is correlated against the live capture.

Two window lengths matter in the paper:

* the **base window** of 8 us -- the BLE preamble, the shortest packet-
  detection field among the four protocols;
* the **extended window** of 40 us (§2.3.2) -- made possible because
  BLE advertising packets carry a fixed access address right after the
  preamble, and 802.11n carries fixed HT-STF/HT-LTF fields behind the
  legacy preamble.  This is what rescues accuracy at 2.5 Msps (Fig 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.adc import Adc
from repro.core.rectifier import ClampRectifier
from repro.core.wavecache import LruCache
from repro.phy import ble, wifi_b, wifi_n, zigbee
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform
from repro.types import Microseconds, Samples

__all__ = [
    "Template",
    "TemplateBank",
    "cached_bank",
    "reference_waveform",
    "BASE_WINDOW_US",
]

#: 8 us: the BLE preamble bounds the shared base window (§2.2.2).
BASE_WINDOW_US = 8.0


#: Memoizes the deterministic reference waveforms (all-zero payload),
#: keyed (protocol, n_payload_bytes).  Callers get defensive copies.
_REFERENCE_CACHE = LruCache(maxsize=16, name="core.templates.reference_waveform")


def _build_reference(protocol: Protocol, n_payload_bytes: int) -> Waveform:
    payload = bytes(n_payload_bytes)
    if protocol is Protocol.WIFI_B:
        return wifi_b.modulate(payload)
    if protocol is Protocol.WIFI_N:
        return wifi_n.modulate(payload)
    if protocol is Protocol.BLE:
        return ble.modulate(payload)
    if protocol is Protocol.ZIGBEE:
        return zigbee.modulate(payload)
    raise ValueError(f"unknown protocol {protocol}")


def reference_waveform(protocol: Protocol, *, n_payload_bytes: int = 16) -> Waveform:
    """A clean, deterministic waveform whose head serves as template.

    The template region is payload-independent for every protocol: the
    802.11b SYNC scrambler seed is fixed, the BLE advertising access
    address is a constant, ZigBee's SHR is all zero symbols, and the
    802.11n training fields are standard sequences.

    The waveform is fully deterministic, so it is cached; the returned
    copy is the caller's to mutate.
    """
    wave = _REFERENCE_CACHE.get_or_create(
        (protocol, n_payload_bytes),
        lambda: _build_reference(protocol, n_payload_bytes),
    )
    return wave.copy()


@dataclass
class Template:
    """One protocol's expected envelope in the ADC domain.

    ``matching`` is zero-mean/unit-norm (full-precision correlation);
    ``matching_q`` is the +-1 quantized form used by the low-power FPGA
    implementation (§2.3.1).
    """

    protocol: Protocol
    l_p: Samples
    matching: np.ndarray
    matching_q: np.ndarray

    @property
    def l_m(self) -> Samples:
        return self.matching.size


@dataclass
class TemplateBank:
    """Templates for all four protocols at one ADC configuration."""

    adc: Adc
    window_us: Microseconds
    preprocess_us: Microseconds
    templates: dict[Protocol, Template] = field(default_factory=dict)
    #: Stacked-matrix cache for score_capture's one-GEMM correlator;
    #: keyed by the quantization flag plus the identity of every
    #: template so any replacement invalidates it.
    _stacked: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        adc: Adc,
        *,
        window_us: float = BASE_WINDOW_US,
        preprocess_us: float = 2.0,
        incident_power_dbm: float = -15.0,
    ) -> "TemplateBank":
        """Build templates by running clean references through the same
        rectifier + ADC pipeline that live packets will see (noiseless).
        """
        from repro.core.matching import dc_estimate

        rect = ClampRectifier(noise_v_rms=0.0)
        bank = cls(adc=adc, window_us=window_us, preprocess_us=preprocess_us)
        l_p = max(int(round(preprocess_us * 1e-6 * adc.sample_rate)), 1)
        l_m = max(int(round(window_us * 1e-6 * adc.sample_rate)), 2)
        for protocol in Protocol:
            wave = reference_waveform(protocol)
            analog = rect.rectify(wave, incident_power_dbm)
            capture = adc.capture(analog, duration_s=(l_p + l_m + 4) / adc.sample_rate)
            window = capture.codes[l_p : l_p + l_m].astype(float)
            dc = dc_estimate(capture.codes[:l_p].astype(float))
            centered = window - window.mean()
            norm = np.linalg.norm(centered)
            matching = centered / norm if norm > 1e-12 else centered
            quantized = np.where(window - dc >= 0.0, 1.0, -1.0)
            bank.templates[protocol] = Template(
                protocol=protocol,
                l_p=l_p,
                matching=matching,
                matching_q=quantized,
            )
        return bank

    def stacked(self, *, quantized: bool) -> tuple[tuple[Protocol, ...], np.ndarray]:
        """Templates stacked into one ``(n_protocols, l_m)`` matrix.

        Lets the matcher score every protocol with a single GEMM
        instead of one GEMV per template.  Rebuilt whenever a template
        object is swapped out.
        """
        ident = tuple((p, id(t)) for p, t in self.templates.items())
        if self._stacked.get("ident") != ident:
            self._stacked.clear()
            self._stacked["ident"] = ident
        hit = self._stacked.get(quantized)
        if hit is not None:
            return hit
        protocols = tuple(self.templates)
        rows = [
            t.matching_q if quantized else t.matching
            for t in self.templates.values()
        ]
        value = (protocols, np.vstack(rows))
        self._stacked[quantized] = value
        return value

    @property
    def l_p(self) -> Samples:
        return next(iter(self.templates.values())).l_p

    @property
    def l_m(self) -> int:
        return next(iter(self.templates.values())).l_m


#: Memoizes built template banks, keyed by every input that shapes the
#: templates.  Banks are deterministic and treated as read-only by
#: their consumers (the matcher only reads them), so one instance can
#: back any number of identifiers.
_BANK_CACHE = LruCache(maxsize=16, name="core.templates.bank")


def cached_bank(
    adc: Adc,
    *,
    window_us: float = BASE_WINDOW_US,
    preprocess_us: float = 2.0,
    incident_power_dbm: float = -15.0,
) -> TemplateBank:
    """A shared, memoized :meth:`TemplateBank.build`.

    Every :class:`~repro.core.identification.ProtocolIdentifier` (and
    therefore every ``MultiscatterTag``) needs a template bank, and
    building one renders four reference packets through the rectifier
    and ADC.  Batch sweeps and the gateway hot loop construct tags by
    the hundred, so the bank is hoisted behind a
    :class:`~repro.core.wavecache.LruCache`: the key covers the ADC
    configuration and every derivation parameter, and the build itself
    is fully deterministic (noiseless rectifier), so a hit can never
    alias two distinct banks.
    """
    key = (
        float(adc.sample_rate),
        int(adc.n_bits),
        float(adc.v_ref),
        bool(adc.antialias),
        float(window_us),
        float(preprocess_us),
        float(incident_power_dbm),
    )
    bank = _BANK_CACHE.get_or_create(
        key,
        lambda: TemplateBank.build(
            adc,
            window_us=window_us,
            preprocess_us=preprocess_us,
            incident_power_dbm=incident_power_dbm,
        ),
    )
    assert isinstance(bank, TemplateBank)
    return bank
