"""Composite RF scenes: several packets superimposed at the tag.

The tag's front end has no channel filters (paper §4.1.4), so packets
on different 2.4 GHz channels still add up in its envelope.  A scene
is built in *antenna volts* (each packet scaled to its incident power
before summation) and centered on the victim packet's channel, so the
victim's envelope signature lines up with the identification
templates; the interferer rides at its channel offset.
"""

from __future__ import annotations

import numpy as np

from repro.types import ComplexIQ

from repro.core.rectifier import incident_peak_voltage
from repro.phy.waveform import _ELIDE_SAMPLES, Waveform

__all__ = ["superimpose"]


def superimpose(
    victim: Waveform,
    victim_dbm: float,
    interferer: Waveform,
    interferer_dbm: float,
    *,
    freq_offset_hz: float,
    time_offset_s: float = 0.0,
    scene_rate_hz: float = 50e6,
    duration_s: float | None = None,
) -> Waveform:
    """Sum two packets into a prescaled scene (antenna volts).

    ``freq_offset_hz`` is the interferer's channel center minus the
    victim's; ``time_offset_s`` shifts the interferer start relative to
    the victim start (negative = interferer started earlier).  The
    result is meant for ``rectify(..., incident_power_dbm=None)`` /
    ``identify(..., prescaled=True)``.
    """
    v_iq = _at_scene_rate(victim, scene_rate_hz)
    n = v_iq.size if duration_s is None else int(duration_s * scene_rate_hz)

    # Scale to unboosted antenna volts.  Both rms values span the whole
    # resampled packet; of each packet only the samples the scene keeps
    # are scaled (and, of the interferer, shifted).
    scene = np.zeros(n, dtype=complex)
    scene[: min(v_iq.size, n)] = _to_volts(v_iq, victim_dbm, 0, n)

    shift = int(round(time_offset_s * scene_rate_hz))
    src_lo = max(-shift, 0)
    dst_lo = max(shift, 0)
    if dst_lo < n:  # an interferer starting after the scene is not resampled
        i_iq = _at_scene_rate(interferer, scene_rate_hz)
        span = min(i_iq.size - src_lo, n - dst_lo)
        if span > 0:
            part = _to_volts(i_iq, interferer_dbm, src_lo, src_lo + span)
            if freq_offset_hz:
                # The kept samples' own time stamps, and the operand order
                # NumPy's temporary elision gives ``i_iq * np.exp(...)`` at
                # the packet's full length: the complex product's last bit
                # depends on it (docs/PERFORMANCE.md).
                t = np.arange(src_lo, src_lo + span) / scene_rate_hz
                e = np.exp(2j * np.pi * freq_offset_hz * t)
                part = part * e if i_iq.size < _ELIDE_SAMPLES else e * part
            scene[dst_lo : dst_lo + span] += part

    return Waveform(
        iq=scene,
        sample_rate=scene_rate_hz,
        annotations=dict(victim.annotations),
    )


def _at_scene_rate(wave: Waveform, scene_rate_hz: float) -> ComplexIQ:
    """``wave`` resampled to the scene rate, as a view that drops the
    64 samples of leading silence padded in before resampling: the
    polyphase filter's edge transient falls there, not on the packet
    head the templates match."""
    pad = 64
    resampled = wave.padded(before=pad).resampled(scene_rate_hz)
    return resampled.iq[int(round(pad * scene_rate_hz / wave.sample_rate)) :]


def _to_volts(iq: ComplexIQ, dbm: float, lo: int, hi: int) -> ComplexIQ:
    """Samples ``[lo, hi)`` of ``iq`` scaled so that the whole of ``iq``
    has the rms of the peak voltage of ``dbm`` at the antenna, matching
    network unboosted."""
    rms = np.sqrt(float(np.mean(np.abs(iq) ** 2))) if iq.size else 0.0
    if rms <= 0:
        return iq[lo:hi]
    return iq[lo:hi] / rms * incident_peak_voltage(dbm, matching_boost=1.0)
