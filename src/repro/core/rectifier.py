"""Envelope-detector (rectifier) behavioral models (paper §2.2.1).

Three front ends are modeled:

* :class:`BasicRectifier` -- single diode + RC (Fig 3a).  Output is the
  envelope minus the diode turn-on voltage; weak signals never turn the
  diode on.
* :class:`ClampRectifier` -- the paper's design (Fig 3c): a clamp stage
  roughly doubles the swing and removes most of the turn-on loss, and
  the RC time constant is tuned for 20 MHz baseband
  (1/f_c << tau << 1/f_b), at the cost of a resistive divider that
  halves the output (the 6 dB SNR sacrifice of §2.2.1).
* :class:`WispRectifier` -- the WISP 5.0 reference: tuned for RFID-rate
  (40-160 kbps) baseband, so its long time constant smears high-
  bandwidth envelopes (Fig 4b).

The simulation operates on the complex-baseband envelope |iq|, which is
exactly what an ideal square-law front end extracts from the 2.4 GHz
carrier.  Two front-end physics effects are included because the
identification results depend on them:

* **FM-to-AM conversion** (``fm_am_slope``): the antenna/matching
  network's response is not flat across the channel, so constant-
  envelope FSK/OQPSK signals (BLE, ZigBee) acquire a data-dependent
  amplitude ripple -- without it their envelopes would be featureless
  and Fig 5a's distinguishable shapes impossible.
* **Output noise** (``noise_v_rms``): diode shot/flicker plus following
  stage noise, which sets the envelope SNR at a given incident power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.types import DbmPower, FloatArray, Hertz, Seconds, Volts

from repro.phy.waveform import Waveform
from repro.rng import fallback_rng

__all__ = [
    "RectifierOutput",
    "BasicRectifier",
    "ClampRectifier",
    "WispRectifier",
    "incident_peak_voltage",
    "recommended_tau",
]

#: Antenna reference impedance.
_R_ANTENNA_OHM = 50.0

#: Passive voltage gain of the tag's antenna matching network.
_MATCHING_BOOST = 4.0


def incident_peak_voltage(power_dbm: DbmPower, *, matching_boost: float = _MATCHING_BOOST) -> Volts:
    """Peak RF voltage at the rectifier input for a given incident power.

    ``matching_boost`` models the passive voltage gain of the antenna
    matching network (moderate-Q LC step-up).  A non-finite power
    raises: NaN, +inf and -inf dBm used to rectify to a silent or
    clipped trace that identification still decided on.
    """
    if not math.isfinite(power_dbm):
        raise ValueError(f"incident power must be finite, got {power_dbm!r} dBm")
    power_w = 10.0 ** ((power_dbm - 30.0) / 10.0)
    return float(np.sqrt(2.0 * power_w * _R_ANTENNA_OHM) * matching_boost)


def recommended_tau() -> Seconds:
    """Geometric-mean RC constant satisfying 1/f_c << tau << 1/f_b for
    the 2.4 GHz carrier and 20 MHz baseband."""
    return float(1.0 / np.sqrt(2.4e9 * 20e6))


@dataclass
class RectifierOutput:
    """Baseband voltage trace produced by a rectifier."""

    voltage: np.ndarray
    sample_rate: Hertz


def _instantaneous_freq(iq: np.ndarray, fs: float) -> FloatArray:
    """Instantaneous frequency in Hz from phase differences."""
    if iq.size < 2:
        return np.zeros(iq.size)
    dphi = np.angle(iq[1:] * np.conj(iq[:-1]))
    f = dphi * fs / (2.0 * np.pi)
    return np.concatenate([[f[0]], f])


def _diode_rc(v_in: np.ndarray, fs: float, tau_s: float) -> FloatArray:
    """Ideal-diode peak detector with exponential discharge.

    The diode charges the capacitor instantly (charge time constant
    << 1/fs) and the resistor discharges it with ``tau_s``:
    v[n] = max(v_in[n], v[n-1] * exp(-dt/tau)).  Computed exactly in
    blocks via a weighted running maximum, all blocks at once: inside a
    block the carried-in term ``carry * inv[k] * decay`` never decreases
    in k (non-negative factors, monotone rounding), so the running
    maximum of ``max(seg * inv, carry term)`` is the running maximum of
    ``seg * inv`` against the carry term, and only the scalar carries
    walk from block to block.
    """
    if v_in.size == 0:
        return v_in.copy()
    rate = 1.0 / (fs * tau_s)
    if rate > 25.0:
        # Discharge completes within one sample: output tracks input.
        return v_in.copy()
    decay = np.exp(-rate)
    # Keep decay**-block within float range (exp(600) ~ 1e260).
    block = max(int(min(512.0, 600.0 / max(rate, 1e-12))), 1)
    inv_decay_pow = decay ** -np.arange(block, dtype=float)
    decay_pow = decay ** np.arange(block, dtype=float)
    n_blocks = -(-v_in.size // block)
    segs = np.zeros(n_blocks * block)
    segs[: v_in.size] = v_in
    running = np.maximum.accumulate(segs.reshape(n_blocks, block) * inv_decay_pow, axis=1)
    inv_last, pow_last = float(inv_decay_pow[-1]), float(decay_pow[-1])
    carries = [0.0]
    for last in running[:-1, -1].tolist():
        carries.append(max(last, carries[-1] * inv_last * decay) * pow_last)
    carried = np.array(carries)[:, None] * inv_decay_pow * decay
    return (np.maximum(running, carried) * decay_pow).reshape(-1)[: v_in.size]


class _EnvelopeRectifier:
    """Shared machinery for all three rectifier models."""

    #: Effective turn-on voltage subtracted from the input swing.
    turn_on_v: Volts
    #: Input swing multiplier (clamp stage ~= 2, plain diode = 1).
    swing_gain: float
    #: Resistive divider after detection (loading of the tuned R1).
    output_divider: float
    #: Discharge time constant.
    tau_s: Seconds
    #: FM-to-AM conversion slope (fractional amplitude per MHz).
    fm_am_slope: float
    #: Output-referred noise, volts RMS.
    noise_v_rms: Volts

    def _check_settings(self) -> None:
        # Each check is written so that NaN fails it.
        if not 0 < self.tau_s < math.inf:
            raise ValueError(f"tau_s must be positive and finite, got {self.tau_s!r}")
        if not 0 <= self.noise_v_rms < math.inf:
            raise ValueError(
                f"noise_v_rms must be >= 0 and finite, got {self.noise_v_rms!r}"
            )

    def rectify(
        self,
        wave: Waveform,
        incident_power_dbm: float | None,
        *,
        rng: np.random.Generator | None = None,
        n_samples: int | None = None,
    ) -> RectifierOutput:
        """Produce the baseband voltage for a waveform.

        With ``incident_power_dbm`` given, the waveform's own scale is
        normalized away and power is set by that value.  With ``None``
        the waveform is taken as already being in antenna volts --
        composite (multi-packet) scenes are built that way so relative
        interferer powers survive (Fig 16).

        ``n_samples`` limits the output to the trace's first samples
        (the ADC's read window, :meth:`repro.core.adc.Adc.samples_read`);
        they equal the head of the full output.  The rms normalization
        and the noise draw still span the whole waveform, so ``rng``
        advances exactly as for a full-length call.
        """
        n = wave.n_samples if n_samples is None else min(n_samples, wave.n_samples)
        iq = wave.iq[:n]
        rms = np.sqrt(wave.mean_power())
        if rms <= 0:
            env = np.zeros(n)
            f_inst = np.zeros(n)
        else:
            if incident_power_dbm is None:
                env = np.abs(iq) * _MATCHING_BOOST
            else:
                scale = incident_peak_voltage(incident_power_dbm)
                env = np.abs(iq) / rms * scale
            # One sample past the head keeps f_inst[0] a phase difference.
            f_inst = _instantaneous_freq(wave.iq[: n + 1], wave.sample_rate)[:n]
        # FM-to-AM conversion in the matching network.
        env = env * (1.0 + self.fm_am_slope * f_inst / 1e6)
        env = np.clip(env, 0.0, None)

        swing = np.clip(self.swing_gain * env - self.turn_on_v, 0.0, None)
        detected = _diode_rc(swing, wave.sample_rate, self.tau_s)
        out = detected * self.output_divider
        if self.noise_v_rms > 0:
            rng = fallback_rng(rng)
            noise = rng.normal(scale=self.noise_v_rms, size=wave.n_samples)
            out = out + noise[:n]
        return RectifierOutput(voltage=out, sample_rate=wave.sample_rate)

    def output_for_constant_input(self, incident_power_dbm: DbmPower) -> Volts:
        """Steady-state output for an unmodulated carrier (no noise)."""
        v = incident_peak_voltage(incident_power_dbm)
        return max(self.swing_gain * v - self.turn_on_v, 0.0) * self.output_divider


class BasicRectifier(_EnvelopeRectifier):
    """Single-diode detector (Fig 3a): loses the diode turn-on voltage."""

    def __init__(self, *, noise_v_rms: float = 2.3e-3) -> None:
        self.turn_on_v = 0.25
        self.swing_gain = 1.0
        self.output_divider = 1.0
        self.tau_s = recommended_tau()
        self.fm_am_slope = 0.3
        self.noise_v_rms = noise_v_rms
        self._check_settings()


class ClampRectifier(_EnvelopeRectifier):
    """The paper's clamp + tuned-RC design (Fig 3c).

    The clamp doubles the usable swing and reduces the effective
    turn-on to the clamp diode's residual; the tuned (small) R1 both
    speeds the detector up (tau for 20 MHz baseband) and divides the
    output -- the deliberate SNR-for-bandwidth trade of §2.2.1.
    """

    def __init__(self, *, tau_s: float | None = None, noise_v_rms: float = 1.0e-3) -> None:
        self.turn_on_v = 0.02
        self.swing_gain = 2.0
        self.output_divider = 0.2
        self.tau_s = tau_s if tau_s is not None else recommended_tau()
        self.fm_am_slope = 0.3
        self.noise_v_rms = noise_v_rms
        self._check_settings()


class WispRectifier(_EnvelopeRectifier):
    """WISP 5.0 reference front end: RFID-rate RC, high output, slow.

    Its time constant suits 40-160 kbps reader signaling, so a 1 Mbps /
    11 Mchip 802.11b envelope is heavily smeared (Fig 4b).
    """

    def __init__(self, *, noise_v_rms: float = 1e-3) -> None:
        self.turn_on_v = 0.25
        self.swing_gain = 1.0
        self.output_divider = 1.0
        self.tau_s = 2e-6
        self.fm_am_slope = 0.3
        self.noise_v_rms = noise_v_rms
        self._check_settings()
