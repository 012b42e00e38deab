"""The per-packet path against its frozen parents, byte for byte.

``awgn`` draws its two real noise vectors and adds them part by part,
the ADC and the BLE receiver call scipy's ``sosfilt`` kernel through
``repro.phy.waveform.sosfilt``, the BLE receiver memoizes its filter's
initial state, carriers are built with ``np.repeat``, the decode stage
takes the receivers' arrays, and ``mean_power`` squares in place.  Each
is held here to the parent in ``tests/reference_impls.py``.
"""

import numpy as np
import pytest
from scipy import signal as sp_signal

import tests.reference_impls as ref
from repro.channel.noise import awgn
from repro.core.adc import Adc
from repro.core.overlay import Mode, OverlayCodec, OverlayConfig
from repro.core.rectifier import ClampRectifier
from repro.core.tag import MultiscatterTag
from repro.core.templates import reference_waveform
from repro.phy import ble, wifi_b, wifi_n, zigbee
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform, sosfilt
from repro.sim.pipeline import N_PRODUCTIVE_BITS, receiver_set

_PHY = {"wifi_b": wifi_b, "wifi_n": wifi_n, "ble": ble, "zigbee": zigbee}


def gateway_codec(protocol: Protocol) -> OverlayCodec:
    """The codec the gateway's tag uses for ``protocol``."""
    return MultiscatterTag().modulator_for(protocol).codec


def gateway_carrier(protocol: Protocol, seed: int = 0) -> Waveform:
    bits = np.random.default_rng(seed).integers(0, 2, N_PRODUCTIVE_BITS)
    return gateway_codec(protocol).build_carrier(bits.astype(np.uint8))


def modulate(name: str, phy_input: np.ndarray) -> Waveform:
    """The parent's PHY call on the array it built."""
    if name == "wifi_b":
        return wifi_b.modulate(phy_input, scrambled_domain=True)
    if name == "wifi_n":
        return wifi_n.modulate(b"", data_bits=phy_input)
    return _PHY[name].modulate(phy_input)


def same_waveform(a: Waveform, b: Waveform) -> bool:
    return (
        a.iq.dtype == b.iq.dtype
        and a.iq.tobytes() == b.iq.tobytes()
        and a.sample_rate == b.sample_rate
        and a.annotations == b.annotations
    )


class TestSosfilt:
    """The helper is ``sp_signal.sosfilt`` without the wrapper."""

    SOS = sp_signal.butter(4, 0.35, output="sos")

    @pytest.mark.parametrize("n", [1, 2, 25, 300, 860])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_without_zi(self, n, dtype):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        if dtype is np.complex128:
            x = x + 1j * rng.normal(size=n)
        got = sosfilt(self.SOS, x)
        want = sp_signal.sosfilt(self.SOS, x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 25, 300, 860])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_with_zi(self, n, dtype):
        rng = np.random.default_rng(100 + n)
        x = rng.normal(size=n)
        if dtype is np.complex128:
            x = x + 1j * rng.normal(size=n)
        zi = sp_signal.sosfilt_zi(self.SOS) * x[0]
        got = sosfilt(self.SOS, x, zi)
        want, _ = sp_signal.sosfilt(self.SOS, x, zi=zi)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_leaves_inputs_alone(self):
        """The kernel filters in place: on copies, never on the
        caller's (or a memo's read-only) arrays."""
        sos = self.SOS.copy()
        sos.flags.writeable = False
        x = np.linspace(-1.0, 1.0, 50)
        zi = sp_signal.sosfilt_zi(sos)
        zi.flags.writeable = False
        x0, zi0 = x.copy(), zi.copy()
        sosfilt(sos, x, zi)
        assert np.array_equal(x, x0) and np.array_equal(zi, zi0)
        assert np.array_equal(sos, self.SOS)

    @pytest.mark.parametrize(
        ("sos", "x"),
        [
            (SOS, np.ones((2, 5))),
            (SOS, np.float64(1.0)),
            (SOS[:, :5], np.ones(5)),
            (SOS.ravel(), np.ones(5)),
        ],
    )
    def test_rejects_shapes_the_kernel_cannot_take(self, sos, x):
        with pytest.raises(ValueError, match="1-D x"):
            sosfilt(sos, x)

    def test_real_filter_of_strided_view(self):
        x = np.random.default_rng(3).normal(size=400)[::-1]
        assert sosfilt(self.SOS, x).tobytes() == sp_signal.sosfilt(self.SOS, x).tobytes()


class TestBleReceiveFilter:
    """The memoized design and odd extension are ``sosfiltfilt``'s."""

    @pytest.mark.parametrize("n", [25, 26, 40, 417, 1856])
    def test_filtfilt_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        iq = rng.normal(size=n) + 1j * rng.normal(size=n)
        sos, _, edge = ble._rx_filter(8)
        assert edge == 15
        want = sp_signal.sosfiltfilt(sos.copy(), iq)
        got = ble._filtfilt(iq, 8)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_design_is_read_only(self):
        sos, zi, _ = ble._rx_filter(8)
        assert not sos.flags.writeable and not zi.flags.writeable
        assert np.array_equal(zi, sp_signal.sosfilt_zi(sos))

    @pytest.mark.parametrize("seed", range(6))
    def test_noisy_random_frames(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 2, int(rng.integers(8, 400))).astype(np.uint8)
        wave = awgn(ble.modulate(raw), snr_db=float(rng.uniform(0.0, 20.0)), rng=rng)
        got = ble.demodulate(wave)
        payload, onair = ref.ble_demodulate(wave)
        assert got.onair_bits.tobytes() == onair.tobytes()
        assert got.payload_bits.tobytes() == payload.tobytes()

    @pytest.mark.parametrize("n", [24, 25, 26, 33, 64])
    def test_short_inputs(self, n):
        """Down to the shortest input that is filtered (25 samples) and
        one that is not."""
        rng = np.random.default_rng(n)
        frame = ble.modulate(b"\x42\x17")
        iq = frame.iq[:n] + 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        wave = Waveform(iq, frame.sample_rate, dict(frame.annotations))
        got = ble.demodulate(wave)
        payload, onair = ref.ble_demodulate(wave)
        assert got.onair_bits.tobytes() == onair.tobytes()
        assert got.payload_bits.tobytes() == payload.tobytes()


class TestAwgn:
    """Same bytes and the same generator state afterwards."""

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_gateway_carrier_lengths(self, protocol):
        wave = gateway_carrier(protocol)
        g1, g2 = np.random.default_rng(7), np.random.default_rng(7)
        got = awgn(wave, snr_db=12.5, rng=g1)
        want = ref.awgn(wave, snr_db=12.5, rng=g2)
        assert same_waveform(got, want)
        assert g1.bit_generator.state == g2.bit_generator.state

    @pytest.mark.parametrize("seed", range(8))
    def test_random_lengths_and_levels(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5000))
        wave = Waveform(
            rng.normal(size=n) + 1j * rng.normal(size=n), 20e6, {"protocol": Protocol.BLE}
        )
        snr_db = float(rng.uniform(-20.0, 40.0))
        g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
        got = awgn(wave, snr_db=snr_db, rng=g1)
        assert same_waveform(got, ref.awgn(wave, snr_db=snr_db, rng=g2))
        assert g1.bit_generator.state == g2.bit_generator.state

    def test_zero_signal(self):
        """No noise power: every sample stays an exact zero, signs
        included."""
        wave = Waveform(np.zeros(64, complex), 1e6)
        g1, g2 = np.random.default_rng(1), np.random.default_rng(1)
        got = awgn(wave, snr_db=10.0, rng=g1)
        assert same_waveform(got, ref.awgn(wave, snr_db=10.0, rng=g2))

    def test_input_untouched_and_annotations_copied(self):
        wave = gateway_carrier(Protocol.ZIGBEE)
        before = wave.iq.copy()
        noisy = awgn(wave, snr_db=3.0, rng=np.random.default_rng(0))
        assert np.array_equal(wave.iq, before)
        assert noisy.annotations == wave.annotations
        assert noisy.annotations is not wave.annotations


class TestAdcCapture:
    @pytest.mark.parametrize("rate", [20e6, 10e6, 5e6, 2.5e6, 1e6])
    @pytest.mark.parametrize("phase_s", [0.0, 1.3e-8, 7.7e-8])
    def test_rates_and_phases(self, rate, phase_s):
        analog = ClampRectifier().rectify(
            reference_waveform(Protocol.BLE), -20.0, rng=np.random.default_rng(int(rate))
        )
        adc = Adc(sample_rate=rate)
        for duration_s in (None, 40e-6):
            got = adc.capture(analog, duration_s=duration_s, phase_s=phase_s).codes
            want = ref.adc_capture_codes(adc, analog, duration_s=duration_s, phase_s=phase_s)
            assert got.tobytes() == want.tobytes()


class TestBuildCarrier:
    """Each PHY gets the parent's array, and the carrier is the same."""

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("mode", [Mode.MODE_1, Mode.MODE_2])
    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_phy_input_and_carrier(self, protocol, mode, seed, monkeypatch):
        codec = OverlayCodec(OverlayConfig.for_mode(protocol, mode))
        bits = np.random.default_rng(seed).integers(0, 2, 9).astype(np.uint8)
        name, want_input = ref.carrier_phy_input(codec, bits)
        carrier = codec.build_carrier(bits)

        phy = _PHY[name]
        seen = []
        original = phy.modulate

        def record(*args, **kwargs):
            seen.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(phy, "modulate", record)
        codec.build_carrier(bits)
        monkeypatch.undo()
        [(args, kwargs)] = seen
        got_input = kwargs["data_bits"] if name == "wifi_n" else args[0]
        assert got_input.dtype == want_input.dtype == np.uint8
        assert got_input.tobytes() == want_input.tobytes()
        assert same_waveform(carrier, modulate(name, want_input))

    def test_zigbee_odd_symbol_count_is_padded(self):
        codec = OverlayCodec(OverlayConfig(Protocol.ZIGBEE, kappa=3, gamma=1))
        bits = np.random.default_rng(5).integers(0, 2, 9).astype(np.uint8)
        name, want_input = ref.carrier_phy_input(codec, bits)
        assert same_waveform(codec.build_carrier(bits), modulate(name, want_input))

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_gateway_codec_empty_and_full(self, protocol):
        codec = gateway_codec(protocol)
        for bits in (np.zeros(0, np.uint8), np.ones(N_PRODUCTIVE_BITS, np.uint8)):
            name, want_input = ref.carrier_phy_input(codec, bits)
            assert same_waveform(codec.build_carrier(bits), modulate(name, want_input))


class TestSymbolValues:
    """Decoded outcomes from the receivers' arrays equal those from the
    parent's Python lists, and the seed's per-sequence decode."""

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("seed", range(3))
    def test_decoded_outcomes(self, protocol, seed):
        rng = np.random.default_rng(seed)
        modulator = MultiscatterTag().modulator_for(protocol)
        codec = modulator.codec
        carrier = codec.build_carrier(rng.integers(0, 2, N_PRODUCTIVE_BITS).astype(np.uint8))
        _, capacity = codec.capacity(carrier.annotations["n_payload_symbols"])
        tagged = modulator.modulate(carrier, rng.integers(0, 2, capacity).astype(np.uint8))
        received = modulator.received_at_shifted_channel(tagged)
        received = awgn(received, snr_db=float(rng.uniform(2.0, 15.0)), rng=rng)
        received.annotations = dict(carrier.annotations)

        decoder_values = receiver_set(codec.config).decoder.symbol_values(received)
        assert isinstance(decoder_values, np.ndarray)
        parent = ref.overlay_symbol_values(codec, received)
        assert len(decoder_values) == len(parent)
        assert np.array_equal(np.asarray(decoder_values), np.asarray(parent))
        got = codec.decode_symbols(decoder_values)
        want = codec.decode_symbols(parent)
        seed_want = ref.overlay_decode_symbols(codec, parent)
        for g, w, s in zip(got, want, seed_want):
            assert g.dtype == w.dtype == np.uint8
            assert g.tobytes() == w.tobytes() == np.asarray(s, np.uint8).tobytes()


class TestMeanPower:
    @pytest.mark.parametrize("n", [0, 1, 7, 860, 13828])
    def test_matches_parent(self, n):
        rng = np.random.default_rng(n)
        wave = Waveform(rng.normal(size=n) + 1j * rng.normal(size=n), 1e6)
        got = wave.mean_power()
        assert type(got) is float
        assert got == ref.waveform_mean_power(wave)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_gateway_carriers(self, protocol):
        wave = gateway_carrier(protocol, seed=4)
        assert wave.mean_power() == ref.waveform_mean_power(wave)

    def test_leaves_samples_alone(self):
        wave = gateway_carrier(Protocol.WIFI_N)
        before = wave.iq.copy()
        wave.mean_power()
        assert wave.iq.tobytes() == before.tobytes()
