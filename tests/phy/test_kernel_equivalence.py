"""Vectorized kernels vs the frozen seed implementations.

``tests/reference_impls.py`` holds verbatim copies of the pure-Python
hot loops the NumPy kernels replaced.  These tests pin the contract:
integer/bit kernels (convolutional code, Viterbi, scramblers, DQPSK
mappings) must be *byte-identical* to the references over randomized
inputs, and so must the OFDM transmitters and receivers, which run a
whole frame through one 2-D transform where the seed ran one 64-point
transform per symbol, the resampler, which filters I and Q as real
rows with taps designed once, the channel shift, which reuses a
memoized phasor, the overlay vote, which is one array expression per
packet, the backscatter flips, which are one masked multiply per
carrier, and the ZigBee phase tracker; the batched correlator reorders
float accumulation (one GEMM instead of per-template GEMVs plus
prefix-sum normalization), so its scores are checked to 1e-12 and its
decisions exactly.
"""

import cmath
from fractions import Fraction

import numpy as np
import pytest

from repro import perf
from repro.channel.noise import awgn
from repro.core import wavecache
from repro.core.adc import Adc
from repro.core.matching import score_capture
from repro.core.overlay import Mode, OverlayCodec, OverlayConfig
from repro.core.rectifier import ClampRectifier
from repro.core.tag_modulation import TagModulator
from repro.core.templates import TemplateBank, reference_waveform
from repro.phy import bits as bitlib
from repro.phy import convcode, viterbi, wifi_b, wifi_n, zigbee
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform
from repro.sim.pipeline import AirlinkPipeline, PendingReception
from repro.sim.traffic import ExcitationSource, ScheduledPacket, random_packet
from tests import reference_impls as ref
from tests.phy.test_receiver_tracking import applied_cpes


def _staged_receptions(protocol, n):
    """The first ``n`` receptions of ``protocol`` that the gateway's
    staging (``excite_and_react``) hands its decode stage, over seeds."""
    pipeline = AirlinkPipeline()
    packet = ScheduledPacket(protocol, 0.0, 1e-3, ExcitationSource(protocol))
    payload = np.random.default_rng(7).integers(0, 2, 4096).astype(np.uint8)
    out = []
    for seed in range(8 * n):
        staged, _ = pipeline.excite_and_react(
            packet, payload, 0, np.random.default_rng(seed)
        )
        if isinstance(staged, PendingReception):
            out.append(staged)
            if len(out) == n:
                return out
    raise RuntimeError(f"only {len(out)} {protocol} receptions staged")


class TestConvcode:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 48, 500])
    def test_encode_matches_reference(self, n):
        rng = np.random.default_rng(n)
        bits = rng.integers(0, 2, n).astype(np.uint8)
        assert np.array_equal(convcode.encode(bits), ref.convcode_encode(bits))

    def test_encode_randomized_lengths(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 300))
            bits = rng.integers(0, 2, n).astype(np.uint8)
            assert np.array_equal(convcode.encode(bits), ref.convcode_encode(bits))


def _puncture_by_resize(coded, rate):
    pattern = np.array(convcode.PUNCTURE_PATTERNS[rate], dtype=bool)
    return coded[np.resize(pattern, coded.size)]


def _depuncture_by_resize(arr, rate, fill):
    pattern = np.array(convcode.PUNCTURE_PATTERNS[rate], dtype=bool)
    n_periods = int(np.ceil(arr.size / int(pattern.sum())))
    mask = np.resize(pattern, n_periods * pattern.size)
    out = np.full(mask.size, fill, dtype=arr.dtype)
    out[mask] = np.resize(arr, int(mask.sum()))[: int(mask.sum())]
    end = int(np.searchsorted(np.cumsum(mask), arr.size)) + 1
    return out[:end]


class TestPuncturing:
    """The keep masks, as first defined by ``np.resize`` of the pattern."""

    @pytest.mark.parametrize("rate", sorted(convcode.PUNCTURE_PATTERNS))
    def test_exact_outputs(self, rate):
        rng = np.random.default_rng(len(rate))
        for n in range(41):
            coded = rng.integers(0, 3, n).astype(np.uint8)
            llrs = rng.normal(size=n)
            llrs[::5] = -0.0
            pairs = (
                (convcode.puncture(coded, rate), _puncture_by_resize(coded, rate)),
                (
                    convcode.depuncture(coded, rate),
                    _depuncture_by_resize(coded, rate, convcode.ERASURE),
                ),
                (convcode.depuncture_soft(llrs, rate), _depuncture_by_resize(llrs, rate, 0.0)),
            )
            for got, want in pairs:
                assert got.dtype == want.dtype and got.shape == want.shape, (rate, n)
                assert got.tobytes() == want.tobytes(), (rate, n)


class TestViterbi:
    def test_hard_decode_byte_identical(self):
        rng = np.random.default_rng(21)
        for trial in range(40):
            n = int(rng.integers(8, 260))
            info = rng.integers(0, 2, n).astype(np.uint8)
            coded = ref.convcode_encode(info)
            # Random bit errors plus erasure bursts (depunctured frames).
            noisy = coded.copy()
            flips = rng.random(noisy.size) < 0.04
            noisy[flips] ^= 1
            erased = rng.random(noisy.size) < 0.08
            noisy[erased] = convcode.ERASURE
            got = viterbi.decode(noisy, n_info=n)
            want = ref.viterbi_decode(noisy, n_info=n)
            assert np.array_equal(got, want), f"trial {trial}"

    def test_hard_decode_tie_breaking(self):
        # All-erasure input: every branch metric ties, so the result is
        # decided purely by the tie rule the blocked kernel must copy.
        for n in (4, 9, 64, 130):
            noisy = np.full(2 * n, convcode.ERASURE, dtype=np.uint8)
            assert np.array_equal(
                viterbi.decode(noisy, n_info=n), ref.viterbi_decode(noisy, n_info=n)
            )

    def test_soft_decode_decisions_identical(self):
        rng = np.random.default_rng(31)
        for trial in range(30):
            n = int(rng.integers(8, 200))
            info = rng.integers(0, 2, n).astype(np.uint8)
            coded = ref.convcode_encode(info).astype(float)
            llrs = (2.0 * coded - 1.0) + rng.normal(0.0, 0.9, coded.size)
            got = viterbi.decode_soft(llrs, n_info=n)
            want = ref.viterbi_decode_soft(llrs, n_info=n)
            assert np.array_equal(got, want), f"trial {trial}"

    @pytest.mark.parametrize("n", range(1, 10))
    def test_short_frames_byte_identical(self, n):
        # Below 4 steps there is no radix-16 block, and every length
        # that is not a multiple of 4 ends in per-step tail survivors.
        rng = np.random.default_rng(100 + n)
        for _ in range(8):
            coded = ref.convcode_encode(rng.integers(0, 2, n).astype(np.uint8))
            coded[rng.random(coded.size) < 0.1] ^= 1
            coded[rng.random(coded.size) < 0.1] = convcode.ERASURE
            assert np.array_equal(viterbi.decode(coded, n_info=n), ref.viterbi_decode(coded, n_info=n))
            llrs = (2.0 * coded - 1.0) + rng.normal(0.0, 0.9, coded.size)
            assert np.array_equal(
                viterbi.decode_soft(llrs, n_info=n), ref.viterbi_decode_soft(llrs, n_info=n)
            )

    def test_roundtrip_clean(self):
        rng = np.random.default_rng(5)
        info = rng.integers(0, 2, 600).astype(np.uint8)
        assert np.array_equal(viterbi.decode(convcode.encode(info), n_info=600), info)


def _noisy_frame(rng, n_steps):
    """A coded frame of ``n_steps`` steps with random bit flips and
    erasure bursts (as depuncturing and deep fades leave them)."""
    coded = ref.convcode_encode(rng.integers(0, 2, n_steps).astype(np.uint8))
    coded[rng.random(coded.size) < rng.uniform(0.0, 0.12)] ^= 1
    for _ in range(int(rng.integers(0, 6))):
        lo = int(rng.integers(0, coded.size))
        coded[lo : lo + int(rng.integers(1, 200))] = convcode.ERASURE
    return coded


class TestViterbiLockstep:
    """Frames of at least ``(_SEGMENTS + 1) * _WARMUP`` blocks run as
    segments in lockstep, each verified against its predecessor and
    re-run where the check fails.  Every frame is decoded with the
    shipped warm-up and with one block of warm-up, which fails most
    checks, and must equal the seed either way."""

    @staticmethod
    def _assert_seed(monkeypatch, frames, *, must_resync=True):
        for warmup in (viterbi._WARMUP, 1):
            monkeypatch.setattr(viterbi, "_WARMUP", warmup)
            before = perf.counters().get("viterbi.resyncs", 0)
            for i, coded in enumerate(frames):
                n = (coded.size + 1) // 2
                got = viterbi.decode(coded, n_info=n)
                assert got.tobytes() == ref.viterbi_decode(coded, n_info=n).tobytes(), (warmup, i)
            if warmup == 1 and must_resync:
                assert perf.counters().get("viterbi.resyncs", 0) > before

    def test_random_frames(self, monkeypatch):
        rng = np.random.default_rng(71)
        frames = [_noisy_frame(rng, int(rng.integers(1, 3001))) for _ in range(16)]
        frames.append(_noisy_frame(rng, 576)[:-1])  # odd length, 144 blocks: just segmented
        self._assert_seed(monkeypatch, frames)

    def test_all_erasure_frames(self, monkeypatch):
        # Every branch metric ties in every segment: the results rest on
        # the folded tie rule alone.
        frames = [np.full(2 * n, convcode.ERASURE, dtype=np.uint8) for n in (576, 579, 1000, 2522)]
        self._assert_seed(monkeypatch, frames, must_resync=False)

    def test_pure_noise_frames(self, monkeypatch):
        rng = np.random.default_rng(73)
        frames = [rng.integers(0, 2, 2 * n).astype(np.uint8) for n in (600, 1001, 2522, 3000)]
        frames += [rng.integers(0, 3, 2 * n).astype(np.uint8) for n in (777, 2900)]
        self._assert_seed(monkeypatch, frames)

    def test_staged_gateway_reception(self, monkeypatch):
        (reception,) = _staged_receptions(Protocol.WIFI_N, 1)
        streams = []
        decode = viterbi.decode

        def record(coded, *, n_info=None):
            streams.append((np.array(coded, dtype=np.uint8), n_info))
            return decode(coded, n_info=n_info)

        with monkeypatch.context() as patch:
            patch.setattr(viterbi, "decode", record)
            reception.receivers.decoder.symbol_values(reception.received)
        ((coded, n_info),) = streams
        assert coded.size == 5044 and n_info == 2522
        want = ref.viterbi_decode(coded, n_info=n_info).tobytes()
        assert ref.viterbi_decode_radix16(coded, n_info=n_info).tobytes() == want
        self._assert_seed(monkeypatch, [coded], must_resync=False)


class TestWifiBMappings:
    def test_dqpsk_phases_lut_identical(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 120)) * 2
            bits = rng.integers(0, 2, n).astype(np.uint8)
            phase0 = float(rng.uniform(-np.pi, np.pi))
            got = wifi_b._dqpsk_phases(bits, phase0)
            want = ref.dqpsk_phases(bits, phase0)
            assert np.array_equal(got, want)

    def test_diff_dibits_identical(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(1, 150))
            syms = rng.normal(size=n) + 1j * rng.normal(size=n)
            prev = complex(rng.normal(), rng.normal())
            got = wifi_b._diff_dibits(syms, prev)
            want = ref.diff_dibits(syms, prev)
            assert np.array_equal(got, want)


class TestScramblers:
    def test_scramble_80211b_identical(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            n = int(rng.integers(0, 400))
            bits = rng.integers(0, 2, n).astype(np.uint8)
            seed = int(rng.integers(0, 128))
            assert np.array_equal(
                bitlib.scramble_80211b(bits, seed=seed),
                ref.scramble_80211b(bits, seed=seed),
            )

    def test_descramble_80211b_identical(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(0, 400))
            bits = rng.integers(0, 2, n).astype(np.uint8)
            seed = int(rng.integers(0, 128))
            assert np.array_equal(
                bitlib.descramble_80211b(bits, seed=seed),
                ref.descramble_80211b(bits, seed=seed),
            )

    def test_scramble_roundtrip(self):
        rng = np.random.default_rng(55)
        bits = rng.integers(0, 2, 333).astype(np.uint8)
        assert np.array_equal(
            bitlib.descramble_80211b(bitlib.scramble_80211b(bits)), bits
        )


class TestMatching:
    @pytest.fixture(scope="class")
    def bank(self):
        return TemplateBank.build(Adc(sample_rate=10e6, n_bits=4))

    @pytest.fixture(scope="class")
    def captures(self, bank):
        rect = ClampRectifier(noise_v_rms=2e-3)
        adc = bank.adc
        out = []
        for protocol in Protocol:
            wave = reference_waveform(protocol)
            analog = rect.rectify(wave, -15.0)
            cap = adc.capture(
                analog, duration_s=(bank.l_p + bank.l_m + 60) / adc.sample_rate
            )
            out.append(cap.codes)
        return out

    @pytest.mark.parametrize("quantized", [True, False])
    def test_scores_match_reference(self, bank, captures, quantized):
        offsets = tuple(range(0, 48, 3))
        for codes in captures:
            a = ref.score_capture(codes, bank, quantized=quantized, offsets=offsets)
            b = score_capture(codes, bank, quantized=quantized, offsets=offsets)
            assert set(a) == set(b)
            for p in a:
                # GEMM accumulation order differs from the per-template
                # GEMVs, so exact bit-equality is not guaranteed.
                assert b[p] == pytest.approx(a[p], abs=1e-12)

    def test_argmax_decision_identical(self, bank, captures):
        for codes in captures:
            for quantized in (True, False):
                a = ref.score_capture(codes, bank, quantized=quantized)
                b = score_capture(codes, bank, quantized=quantized)
                assert max(a, key=a.get) is max(b, key=b.get)

    def test_no_valid_offsets(self, bank):
        scores = score_capture(
            np.zeros(4), bank, quantized=True, offsets=(0, 999999)
        )
        assert scores == {p: -1.0 for p in bank.templates}


def _received(wave, rng, *, truncate):
    """``wave`` after noise, a phase offset and a small CFO; with
    ``truncate`` the frame is cut inside its last symbols, so the
    receiver zero-pads them."""
    n = wave.n_samples
    iq = wave.iq + (rng.normal(size=n) + 1j * rng.normal(size=n)) * rng.uniform(0.02, 0.3)
    cfo_hz = rng.uniform(-3e3, 3e3)
    iq = iq * np.exp(1j * (rng.uniform(-np.pi, np.pi) + 2 * np.pi * cfo_hz * np.arange(n) / 20e6))
    if truncate:
        iq = iq[: n - int(rng.integers(1, 150))]
    return Waveform(iq, wave.sample_rate, annotations=dict(wave.annotations))


class TestOfdm:
    def test_signal_symbols_identical(self):
        rng = np.random.default_rng(61)
        for _ in range(8):
            bits = rng.integers(0, 2, 24).astype(np.uint8)
            for qbpsk in (False, True):
                got = wifi_n._legacy_bpsk_symbol(bits, qbpsk=qbpsk)
                want = ref.legacy_bpsk_symbol(bits, qbpsk=qbpsk)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mcs", range(8))
    def test_wifi_n_byte_identical(self, mcs):
        rng = np.random.default_rng(70 + mcs)
        for trial in range(4):
            n_bytes = int(rng.integers(1, 400))
            payload = rng.integers(0, 256, n_bytes).astype(np.uint8).tobytes()
            cfg = wifi_n.WifiNConfig(mcs=mcs)
            wave = wifi_n.modulate(payload, cfg)
            assert wave.iq.tobytes() == ref.wifi_n_modulate_iq(payload, cfg).tobytes()
            rx = _received(wave, rng, truncate=trial == 3)
            for soft in (False, True):
                got = wifi_n.demodulate(rx, soft=soft)
                data_bits, cpes = ref.wifi_n_demodulate(rx, soft=soft)
                got_bits = np.concatenate(got.symbol_bits)
                assert got_bits.tobytes() == data_bits.tobytes(), (trial, soft)
                got_cpes = applied_cpes(rx, soft=soft)
                assert got_cpes.tobytes() == cpes.tobytes(), (trial, soft)


class TestResample:
    """``Waveform.resampled`` against the seed, which let ``resample_poly``
    design its filter per call and filter the complex samples."""

    @pytest.mark.parametrize(
        ("protocol", "n_bytes", "ratio"),
        [
            (Protocol.BLE, 37, "25/4"),
            (Protocol.ZIGBEE, 20, "25/4"),
            (Protocol.WIFI_N, 300, "5/2"),
            (Protocol.WIFI_B, 20, "25/11"),
        ],
    )
    def test_byte_identical_at_every_ratio(self, protocol, n_bytes, ratio):
        rng = np.random.default_rng(n_bytes)
        for _ in range(3):
            wave = random_packet(protocol, rng, n_payload_bytes=n_bytes).padded(before=64)
            got, want = wave.resampled(50e6), ref.waveform_resampled(wave, 50e6)
            assert str(Fraction(50e6 / wave.sample_rate).limit_denominator(1000)) == ratio
            assert got.iq.tobytes() == want.iq.tobytes()
            assert got.annotations == want.annotations
            assert got.sample_rate == want.sample_rate

    def test_equal_rate_keeps_the_samples(self):
        wave = random_packet(Protocol.BLE, np.random.default_rng(3), n_payload_bytes=10)
        got, want = wave.resampled(wave.sample_rate), ref.waveform_resampled(wave, wave.sample_rate)
        assert got.iq.tobytes() == want.iq.tobytes() == wave.iq.tobytes()
        assert got.annotations == want.annotations == wave.annotations
        assert got.annotations is not wave.annotations


class TestChannelShift:
    """``Waveform.frequency_shifted`` against the seed, which built its
    phasor with a fresh ``np.exp`` per call and multiplied it inline:
    memoized (a miss, then a hit) and unmemoized (a CFO derotation)."""

    @pytest.mark.parametrize(
        "n", [0, 1, 1856, 8448, 8480, 13828, 16383, 16384, 16385, 41625]
    )
    @pytest.mark.parametrize(
        ("shift_hz", "rate_hz"),
        # At +-fs/2 the phasor is +-1 and either operand order gives the
        # same bytes; the other two shifts expose the order.
        [(10e6, 20e6), (-10e6, 20e6), (1.37e6, 20e6), (-0.41e6, 8e6)],
    )
    def test_byte_identical_on_miss_and_hit(self, n, shift_hz, rate_hz):
        rng = np.random.default_rng(n)
        wave = Waveform(
            rng.normal(size=n) + 1j * rng.normal(size=n),
            rate_hz,
            annotations={"protocol": Protocol.BLE},
        )
        want = ref.waveform_frequency_shifted(wave, shift_hz)
        wavecache.clear_caches()
        for _ in ("miss", "hit"):
            got = wave.frequency_shifted(shift_hz)
            assert got.iq.tobytes() == want.iq.tobytes()
            assert got.annotations == want.annotations
            assert got.annotations is not wave.annotations
            got.iq[:] = 0.0  # a caller's edit must not reach the next result
        got = wave.frequency_shifted(shift_hz, memo=False)
        assert got.iq.tobytes() == want.iq.tobytes()
        assert got.annotations == want.annotations


def _decision_stream(protocol, n, rng):
    """``n`` random payload-symbol decisions in ``protocol``'s domain,
    with runs near a reference so that votes go both ways."""
    if protocol is Protocol.WIFI_N:
        base = rng.integers(0, 2, 26).astype(np.uint8)
        return [
            np.where(rng.random(26) < rng.random() * 0.6, 1 - base, base).astype(np.uint8)
            for _ in range(n)
        ]
    if protocol is Protocol.ZIGBEE:
        # Mostly the two reference symbols, but any of the 16 can occur.
        return [int(v) for v in rng.choice([0x0, 0x8, int(rng.integers(0, 16))], size=n)]
    return [int(v) for v in rng.integers(0, 2, n)]


class TestOverlayVotes:
    """``OverlayCodec.decode_symbols`` against the seed's per-sequence,
    per-group, per-symbol loops."""

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_random_streams_identical(self, protocol):
        rng = np.random.default_rng(list(Protocol).index(protocol))
        for trial in range(100):
            gamma = int(rng.integers(1, 6))
            kappa = gamma * (2 if trial % 2 else 4)
            codec = OverlayCodec(OverlayConfig(protocol, kappa=kappa, gamma=gamma))
            # From no whole sequence (n_seq = 0) up to six of them.
            values = _decision_stream(protocol, int(rng.integers(0, 6 * kappa + 3)), rng)
            got, want = codec.decode_symbols(values), ref.overlay_decode_symbols(codec, values)
            for g, w in zip(got, want):
                assert (g.dtype, g.shape) == (w.dtype, w.shape), trial
                assert g.tobytes() == w.tobytes(), trial

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_no_whole_sequence(self, protocol):
        codec = OverlayCodec(OverlayConfig(protocol, kappa=4, gamma=2))
        values = _decision_stream(protocol, 4, np.random.default_rng(0))
        for n in (0, 3, 4):  # 802.11n also reserves payload symbol 0
            got = codec.decode_symbols(values[:n])
            want = ref.overlay_decode_symbols(codec, values[:n])
            for g, w in zip(got, want):
                assert (g.dtype, g.tobytes()) == (w.dtype, w.tobytes())

    def test_zigbee_off_reference_symbols(self):
        codec = OverlayCodec(OverlayConfig(Protocol.ZIGBEE, kappa=2, gamma=1))
        values = [v for s in range(16) for v in (s, 0x8)]
        got, want = codec.decode_symbols(values), ref.overlay_decode_symbols(codec, values)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


class TestZigbeeDemodulate:
    """``zigbee.demodulate`` against the seed's per-symbol tracker."""

    @staticmethod
    def _assert_identical(got, want, label):
        assert got.symbols.tobytes() == want.symbols.tobytes(), label
        assert got.payload_bits.tobytes() == want.payload_bits.tobytes(), label

    def _assert_both_identical(self, wave, label):
        """With the CFO derotation, and with the estimate forced to zero
        (the reference's ``correct_cfo=False``)."""
        self._assert_identical(zigbee.demodulate(wave), ref.zigbee_demodulate(wave), label)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zigbee, "estimate_cfo", lambda wave: 0.0)
            got = zigbee.demodulate(wave)
        want = ref.zigbee_demodulate(wave, correct_cfo=False)
        self._assert_identical(got, want, (label, "uncorrected"))

    def test_staged_gateway_receptions_identical(self):
        for i, reception in enumerate(_staged_receptions(Protocol.ZIGBEE, 4)):
            self._assert_both_identical(reception.received, i)

    def test_scalar_calls_match_numpy(self):
        # The tracker calls cmath.exp and np.arctan2 on scalars where the
        # seed called np.exp and np.angle; the values must be the same.
        rng = np.random.default_rng(47)
        phases = np.concatenate([rng.uniform(-4.0, 4.0, 3000), rng.uniform(-2e3, 2e3, 3000)])
        for phase in phases.tolist():
            assert np.complex128(cmath.exp(-1j * phase)).tobytes() == np.exp(-1j * phase).tobytes()
        points = rng.normal(size=(3000, 2)) * rng.choice([1e-6, 1.0, 1e3], size=(3000, 1))
        for re, im in points.tolist():
            z = np.complex128(complex(re, im))
            assert float(np.arctan2(z.imag, z.real)) == float(np.angle(z))

    def test_noisy_frames_with_cfo_identical(self):
        rng = np.random.default_rng(41)
        for trial in range(20):
            payload = rng.integers(0, 256, int(rng.integers(1, 40))).astype(np.uint8)
            clean = zigbee.modulate(payload.tobytes())
            drifted = clean.frequency_shifted(float(rng.uniform(-20e3, 20e3)))
            drifted.annotations = clean.annotations
            noisy = awgn(drifted, snr_db=float(rng.uniform(-2.0, 15.0)), rng=rng)
            self._assert_both_identical(noisy, trial)


class TestTagFlips:
    """``OverlayCodec.tag_flip_flags`` and ``TagModulator.modulate``
    against the parent's per-sequence flags and per-symbol flips."""

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_flags_identical(self, protocol):
        rng = np.random.default_rng(list(Protocol).index(protocol) + 80)
        for trial in range(60):
            gamma = int(rng.integers(1, 6))
            kappa = gamma * (2 if trial % 2 else 4)
            codec = OverlayCodec(OverlayConfig(protocol, kappa=kappa, gamma=gamma))
            n_symbols = int(rng.integers(0, 6 * kappa + 3))
            _, capacity = codec.capacity(n_symbols)
            n_bits = int(rng.choice([0, capacity // 2, capacity, capacity + 5]))
            bits = rng.integers(0, 3 if trial % 3 == 0 else 2, n_bits)
            got = codec.tag_flip_flags(bits, n_symbols)
            want = ref.overlay_tag_flip_flags(codec, bits, n_symbols)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), trial

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("clock_ppm", [0.0, 100.0, -2500.0, 20000.0])
    def test_modulate_identical(self, protocol, mode, clock_ppm):
        rng = np.random.default_rng(int(abs(clock_ppm)) + mode.value)
        codec = OverlayCodec(OverlayConfig.for_mode(protocol, mode, payload_symbols=48))
        carrier = codec.build_carrier(rng.integers(0, 2, 6))
        _, capacity = codec.capacity(carrier.annotations["n_payload_symbols"])
        for shift_hz in (0.0, 10e6):
            modulator = TagModulator(codec, frequency_shift_hz=shift_hz, clock_ppm=clock_ppm)
            for n_bits in (capacity // 2, capacity, capacity + 9):
                bits = rng.integers(0, 2, n_bits).astype(np.uint8)
                got = modulator.modulate(carrier, bits)
                want = ref.tag_modulate(modulator, carrier, bits)
                assert got.iq.tobytes() == want.iq.tobytes(), (shift_hz, n_bits)
                assert got.annotations == want.annotations

    def test_span_past_the_capture(self):
        # A truncated carrier: the last flipped symbols run past its end.
        codec = OverlayCodec(OverlayConfig.for_mode(Protocol.ZIGBEE, Mode.MODE_1))
        carrier = codec.build_carrier(np.ones(8, np.uint8))
        short = Waveform(
            carrier.iq[: carrier.iq.size - 700].copy(),
            carrier.sample_rate,
            annotations=dict(carrier.annotations),
        )
        bits = np.ones(codec.capacity(carrier.annotations["n_payload_symbols"])[1], np.uint8)
        for clock_ppm in (0.0, 3000.0):
            modulator = TagModulator(codec, frequency_shift_hz=0.0, clock_ppm=clock_ppm)
            got = modulator.modulate(short, bits)
            assert got.iq.tobytes() == ref.tag_modulate(modulator, short, bits).iq.tobytes()
