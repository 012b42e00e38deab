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

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from repro.core.adc import Adc
from repro.core.rectifier import ClampRectifier
from repro.phy import modems
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform
from repro.types import DbmPower, Samples

__all__ = [
    "Template",
    "TemplateBank",
    "cached_bank",
    "reference_waveform",
    "BASE_WINDOW_US",
    "TEMPLATE_INCIDENT_DBM",
]

#: 8 us: the BLE preamble bounds the shared base window (§2.2.2).
BASE_WINDOW_US = 8.0

#: Incident power the reference packets are rendered at; a packet
#: identified without a power of its own is rectified at it too.
TEMPLATE_INCIDENT_DBM: DbmPower = -15.0


@lru_cache(maxsize=16)
def _build_reference(protocol: Protocol) -> Waveform:
    """The reference packet of ``protocol``, made once per protocol;
    :func:`reference_waveform` hands out copies."""
    return modems.modulate(protocol, bytes(16))


def reference_waveform(protocol: Protocol) -> Waveform:
    """A clean, deterministic waveform, with a 16-byte all-zero
    payload, whose head serves as template.

    The template region is payload-independent for every protocol: the
    802.11b SYNC scrambler seed is fixed, the BLE advertising access
    address is a constant, ZigBee's SHR is all zero symbols, and the
    802.11n training fields are standard sequences.

    The waveform is fully deterministic, so it is cached; the returned
    copy is the caller's to mutate.
    """
    return _build_reference(protocol).copy()


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TemplateBank:
    """Templates for all four protocols at one ADC configuration.

    A bank is read-only once built: ``templates`` is a read-only
    mapping, and ``stacked`` and ``stacked_q`` hold its full-precision
    and quantized templates as one ``(n_protocols, l_m)`` matrix each,
    rows in ``templates`` order, so the matcher scores every protocol
    with a single GEMM instead of one GEMV per template.
    """

    templates: Mapping[Protocol, Template]
    stacked: np.ndarray
    stacked_q: np.ndarray

    @classmethod
    def build(
        cls,
        adc: Adc,
        *,
        window_us: float = BASE_WINDOW_US,
        preprocess_us: float = 2.0,
    ) -> "TemplateBank":
        """Build templates by running clean references through the same
        rectifier + ADC pipeline that live packets will see (noiseless).
        """
        from repro.core.matching import dc_estimate

        rect = ClampRectifier(noise_v_rms=0.0)
        l_p = max(int(round(preprocess_us * 1e-6 * adc.sample_rate)), 1)
        l_m = max(int(round(window_us * 1e-6 * adc.sample_rate)), 2)
        templates = {}
        for protocol in Protocol:
            wave = reference_waveform(protocol)
            analog = rect.rectify(wave, TEMPLATE_INCIDENT_DBM)
            capture = adc.capture(analog, duration_s=(l_p + l_m + 4) / adc.sample_rate)
            window = capture.codes[l_p : l_p + l_m].astype(float)
            dc = dc_estimate(capture.codes[:l_p].astype(float))
            centered = window - window.mean()
            norm = np.linalg.norm(centered)
            matching = centered / norm if norm > 1e-12 else centered
            quantized = np.where(window - dc >= 0.0, 1.0, -1.0)
            templates[protocol] = Template(
                protocol=protocol,
                l_p=l_p,
                matching=matching,
                matching_q=quantized,
            )
        return cls(
            templates=MappingProxyType(templates),
            stacked=np.vstack([t.matching for t in templates.values()]),
            stacked_q=np.vstack([t.matching_q for t in templates.values()]),
        )

    @property
    def l_p(self) -> Samples:
        return next(iter(self.templates.values())).l_p

    @property
    def l_m(self) -> int:
        return next(iter(self.templates.values())).l_m


@lru_cache(maxsize=16)
def _build_bank(
    sample_rate: float, n_bits: int, window_us: float, preprocess_us: float
) -> TemplateBank:
    """:meth:`TemplateBank.build`, made once per derivation; called
    positionally by :func:`cached_bank`, so one key spells each bank."""
    adc = Adc(sample_rate=sample_rate, n_bits=n_bits)
    return TemplateBank.build(adc, window_us=window_us, preprocess_us=preprocess_us)


def cached_bank(
    adc: Adc,
    *,
    window_us: float = BASE_WINDOW_US,
    preprocess_us: float = 2.0,
) -> TemplateBank:
    """A shared, memoized :meth:`TemplateBank.build`.

    Every :class:`~repro.core.identification.ProtocolIdentifier` (and
    therefore every ``MultiscatterTag``) needs a template bank, and
    building one renders four reference packets through the rectifier
    and ADC.  Batch sweeps and the gateway hot loop construct tags by
    the hundred, so the bank is memoized: the key covers the ADC
    configuration and every derivation parameter, and the build itself
    is fully deterministic (noiseless rectifier), so a hit can never
    alias two distinct banks, and the bank is read-only, so one
    instance can back any number of identifiers.
    """
    return _build_bank(
        float(adc.sample_rate), int(adc.n_bits), float(window_us), float(preprocess_us)
    )
