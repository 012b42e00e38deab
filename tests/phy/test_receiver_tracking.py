"""Regression tests for receiver phase/frequency tracking.

Each test pins a failure mode found while cross-validating the modems
against the analytic waterfalls (tests/paper/test_validation_ber.py).
"""

import numpy as np
import pytest

from repro.phy import bits as bitlib
from repro.phy import ble, wifi_n, zigbee


def demodulate_uncorrected(wave, **kwargs):
    """``wifi_n.demodulate`` with its CFO estimate forced to zero, so an
    injected offset reaches the pilot tracking whole."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wifi_n, "estimate_cfo", lambda wave: 0.0)
        return wifi_n.demodulate(wave, **kwargs)


def applied_cpes(wave, demodulate=wifi_n.demodulate, **kwargs):
    """The common phase error ``demodulate`` applies to each data
    symbol, as its ``_receive_symbols`` call returns it."""
    seen = []
    receive = wifi_n._receive_symbols

    def spy(*args):
        points, cpes = receive(*args)
        seen.append(cpes)
        return points, cpes

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wifi_n, "_receive_symbols", spy)
        demodulate(wave, **kwargs)
    (cpes,) = seen
    return cpes


def per_symbol_flips(clean, tagged):
    """Fraction of each OFDM symbol's decoded data bits that differ."""
    return [np.mean(a != b) for a, b in zip(clean.symbol_bits, tagged.symbol_bits)]


class TestOfdmCpeTracking:
    def test_residual_cfo_does_not_wrap_cpe(self):
        """A ~7 kHz residual CFO drifts the common phase past pi/2
        within a few symbols; per-symbol mod-pi wrapping used to flip
        the correction sign and complement whole symbols.  Continuous
        tracking must decode cleanly."""
        payload = bytes(range(30))
        ref = bitlib.bits_from_bytes(payload)
        wave = wifi_n.modulate(payload)
        # Inject the residual directly (bypass the estimator) by
        # zeroing the CFO estimate and applying a small offset.
        impaired = wave.frequency_shifted(7e3)
        result = demodulate_uncorrected(impaired, n_psdu_bits=ref.size)
        assert np.count_nonzero(result.psdu_bits[: ref.size] != ref) == 0

    def test_cpe_trace_is_continuous(self):
        wave = wifi_n.modulate(bytes(range(40)))
        impaired = wave.frequency_shifted(7e3)
        steps = np.abs(np.diff(applied_cpes(impaired, demodulate_uncorrected)))
        assert steps.max() < 1.0  # no pi-sized correction jumps

    def test_tag_flip_still_survives_tracking(self):
        payload = np.zeros(26 * 8, np.uint8)
        wave = wifi_n.modulate(payload)
        impaired = wave.frequency_shifted(5e3)
        start = impaired.annotations["payload_start"]
        for sym in (3, 4):
            lo = start + sym * wifi_n.SYMBOL_LEN
            impaired.iq[lo : lo + wifi_n.SYMBOL_LEN] *= -1.0
        clean = demodulate_uncorrected(wave.frequency_shifted(5e3))
        tagged = demodulate_uncorrected(impaired)
        per_symbol = per_symbol_flips(clean, tagged)[:8]
        assert (per_symbol[3] + per_symbol[4]) / 2 > 0.6
        assert per_symbol[0] < 0.2


class TestZigbeePhaseTracking:
    def test_long_packet_low_snr(self):
        """Decision-directed phase tracking keeps a multi-millisecond
        coherent OQPSK packet together at deeply negative SNR."""
        rng = np.random.default_rng(0)
        payload = bytes(range(30))
        ref = bitlib.bits_from_bytes(payload)
        wave = zigbee.modulate(payload)
        sigma = np.sqrt(wave.mean_power()) * 10 ** (8.0 / 20.0) / np.sqrt(2.0)
        wave.iq = wave.iq + sigma * (
            rng.normal(size=wave.n_samples) + 1j * rng.normal(size=wave.n_samples)
        )
        got = zigbee.demodulate(wave).payload_bits
        assert np.count_nonzero(got[: ref.size] != ref) == 0

    def test_tolerates_10khz_cfo(self):
        payload = bytes(range(20))
        ref = bitlib.bits_from_bytes(payload)
        wave = zigbee.modulate(payload).frequency_shifted(10e3)
        got = zigbee.demodulate(wave).payload_bits
        assert np.count_nonzero(got[: ref.size] != ref) == 0

    def test_flip_detection_survives_tracking(self):
        # The phase tracker locks to the *decided* symbol, so a tag's
        # pi flip still changes the decision instead of being tracked
        # away.
        payload = b"\x33" * 8
        wave = zigbee.modulate(payload)
        sym_len = wave.annotations["samples_per_symbol"]
        start = wave.annotations["payload_start"]
        wave.iq[start + 4 * sym_len : start + 12 * sym_len] *= -1.0
        symbols = zigbee.demodulate(wave).symbols
        assert symbols[6] != 3
        assert symbols[2] == 3


class TestBlePredetectionFilter:
    def test_low_snr_gain(self):
        """The channel filter rescues the discriminator from wideband
        'click' noise (several dB at low SNR)."""
        rng = np.random.default_rng(1)
        payload = bytes(range(16))
        errors = 0
        for _ in range(5):
            wave = ble.modulate(payload)
            wave.iq = wave.iq + 0.9 * (
                rng.normal(size=wave.n_samples) + 1j * rng.normal(size=wave.n_samples)
            )
            got = ble.demodulate(wave).payload_bits
            ref = bitlib.bits_from_bytes(payload)
            n = min(got.size, ref.size)
            errors += int(np.count_nonzero(got[:n] != ref[:n]))
        # ~1 dB SNR full-band: the filtered discriminator keeps BER
        # moderate; the unfiltered one sat near 0.25 here.
        assert errors / (5 * len(payload) * 8) < 0.15

    def test_tag_mirror_survives_filter(self):
        from repro.core.overlay import Mode, OverlayCodec, OverlayConfig
        from repro.core.overlay_decoder import OverlayDecoder
        from repro.core.tag_modulation import TagModulator
        from repro.phy.protocols import Protocol

        rng = np.random.default_rng(2)
        codec = OverlayCodec(OverlayConfig.for_mode(Protocol.BLE, Mode.MODE_2))
        prod = rng.integers(0, 2, 5).astype(np.uint8)
        carrier = codec.build_carrier(prod)
        _, cap = codec.capacity(carrier.annotations["n_payload_symbols"])
        tag_bits = rng.integers(0, 2, cap).astype(np.uint8)
        mod = TagModulator(codec)
        rx = mod.received_at_shifted_channel(mod.modulate(carrier, tag_bits))
        rx.annotations = dict(carrier.annotations)
        out = OverlayDecoder(codec).decode(rx)
        assert np.array_equal(out.tag_bits[:cap], tag_bits)
