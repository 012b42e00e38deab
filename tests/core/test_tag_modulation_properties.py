"""Property tests on tag-side modulation invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.overlay import Mode, OverlayCodec, OverlayConfig
from repro.core.tag_modulation import TagModulator
from repro.phy.protocols import Protocol


def _setup(protocol, seed):
    rng = np.random.default_rng(seed)
    codec = OverlayCodec(OverlayConfig.for_mode(protocol, Mode.MODE_1))
    prod = rng.integers(0, 2, 6).astype(np.uint8)
    carrier = codec.build_carrier(prod)
    _, cap = codec.capacity(carrier.annotations["n_payload_symbols"])
    tag_bits = rng.integers(0, 2, cap).astype(np.uint8)
    return codec, carrier, tag_bits


class TestModulationInvariants:
    @pytest.mark.parametrize(
        "protocol", [Protocol.WIFI_N, Protocol.ZIGBEE, Protocol.WIFI_B]
    )
    def test_psk_flip_is_involution(self, protocol):
        """Applying the same PSK flip pattern twice restores the
        carrier exactly -- the tag's switch has no memory beyond its
        phase state."""
        codec, carrier, tag_bits = _setup(protocol, seed=1)
        mod = TagModulator(codec, frequency_shift_hz=0.0)
        once = mod.modulate(carrier, tag_bits)
        twice = mod.modulate(once, tag_bits)
        assert np.allclose(twice.iq, carrier.iq, atol=1e-12)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_zero_bits_leave_waveform_unchanged(self, protocol):
        codec, carrier, tag_bits = _setup(protocol, seed=2)
        mod = TagModulator(codec, frequency_shift_hz=0.0)
        out = mod.modulate(carrier, np.zeros_like(tag_bits))
        assert np.allclose(out.iq, carrier.iq, atol=1e-12)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_modulation_preserves_power(self, protocol):
        """Phase flips and spectral mirrors are unit-modulus operations:
        the tag adds no energy."""
        codec, carrier, tag_bits = _setup(protocol, seed=3)
        mod = TagModulator(codec, frequency_shift_hz=0.0)
        out = mod.modulate(carrier, tag_bits)
        assert out.mean_power() == pytest.approx(carrier.mean_power(), rel=1e-6)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_length_preserved(self, protocol):
        codec, carrier, tag_bits = _setup(protocol, seed=4)
        mod = TagModulator(codec)
        out = mod.modulate(carrier, tag_bits)
        assert out.n_samples == carrier.n_samples

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_shift_then_unshift_is_identity(self, seed):
        codec, carrier, tag_bits = _setup(Protocol.BLE, seed=seed)
        mod = TagModulator(codec, frequency_shift_hz=10e6)
        shifted = mod.modulate(carrier, np.zeros_like(tag_bits))
        back = mod.received_at_shifted_channel(shifted)
        assert np.allclose(back.iq, carrier.iq, atol=1e-9)


class TestClockBounds:
    """A clock error at or below -1e6 ppm stops or reverses the tag's
    clock, so its symbol boundaries stop increasing; construction
    rejects it, and a NaN or infinite one, by name."""

    @pytest.mark.parametrize(
        "clock_ppm", [-1e6, -2e6, -1e9, float("nan"), float("inf"), float("-inf")]
    )
    def test_rejected_at_construction(self, clock_ppm):
        codec, _, _ = _setup(Protocol.ZIGBEE, seed=3)
        with pytest.raises(ValueError, match="clock_ppm"):
            TagModulator(codec, clock_ppm=clock_ppm)

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("clock_ppm", [-999_999.0, 0.0, 20_000.0])
    def test_running_clocks_modulate_as_before(self, protocol, clock_ppm):
        from tests import reference_impls as ref

        codec, carrier, tag_bits = _setup(protocol, seed=4)
        mod = TagModulator(codec, clock_ppm=clock_ppm)
        got = mod.modulate(carrier, tag_bits)
        want = ref.tag_modulate(mod, carrier, tag_bits)
        assert got.iq.tobytes() == want.iq.tobytes()
        assert got.annotations == want.annotations


class TestShiftBounds:
    """A NaN or infinite channel shift fails at construction, naming
    the field; every finite shift (either sign, or none) is legal."""

    @pytest.mark.parametrize("shift", [float("nan"), float("inf"), float("-inf")])
    def test_rejected_at_construction(self, shift):
        codec, _, _ = _setup(Protocol.BLE, seed=3)
        with pytest.raises(ValueError, match="frequency_shift_hz"):
            TagModulator(codec, frequency_shift_hz=shift)

    @pytest.mark.parametrize("shift", [-10e6, 0.0, 10e6])
    def test_finite_shifts_construct(self, shift):
        codec, _, _ = _setup(Protocol.BLE, seed=3)
        assert TagModulator(codec, frequency_shift_hz=shift).frequency_shift_hz == shift
