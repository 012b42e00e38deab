"""Seed (pre-vectorization) reference implementations.

Verbatim copies of the pure-Python/loop kernels as they existed before
the performance rewrite.  The equivalence tests in
``tests/phy/test_kernel_equivalence.py`` and the benchmark-regression
harness compare the vectorized kernels against these, so keep them
frozen: they define the contract the fast paths must reproduce
bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.phy.convcode import CONSTRAINT, ERASURE, G0, G1

_N_STATES = 1 << (CONSTRAINT - 1)  # 64

_DQPSK_PHASE = {(0, 0): 0.0, (0, 1): np.pi / 2, (1, 1): np.pi, (1, 0): 3 * np.pi / 2}


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    next_state = np.empty((_N_STATES, 2), dtype=np.int64)
    outputs = np.empty((_N_STATES, 2, 2), dtype=np.uint8)
    for state in range(_N_STATES):
        for b in (0, 1):
            window = (b << 0) | (state << 1)
            a = bin(window & G0).count("1") & 1
            c = bin(window & G1).count("1") & 1
            next_state[state, b] = window & (_N_STATES - 1)
            outputs[state, b, 0] = a
            outputs[state, b, 1] = c
    return next_state, outputs


_NEXT, _OUT = _build_tables()

_PREV = np.full((_N_STATES, 2, 2), -1, dtype=np.int64)
for _s in range(_N_STATES):
    for _b in (0, 1):
        _dst = _NEXT[_s, _b]
        slot = 0 if _PREV[_dst, 0, 0] == -1 else 1
        _PREV[_dst, slot, 0] = _s
        _PREV[_dst, slot, 1] = _b


def convcode_encode(bits: np.ndarray | list[int]) -> np.ndarray:
    """Seed rate-1/2 encoder (per-bit Python loop)."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bits must be 1-D")
    out = np.empty(2 * arr.size, dtype=np.uint8)
    state = 0
    for i, b in enumerate(arr):
        window = (int(b) << 0) | (state << 1)
        a = bin(window & G0).count("1") & 1
        c = bin(window & G1).count("1") & 1
        out[2 * i] = a
        out[2 * i + 1] = c
        state = window & 0x3F
    return out


def viterbi_decode(coded: np.ndarray | list[int], *, n_info: int | None = None) -> np.ndarray:
    """Seed hard-decision Viterbi (per-step ACS loop)."""
    arr = np.asarray(coded, dtype=np.uint8)
    if arr.size % 2:
        arr = np.concatenate([arr, np.array([ERASURE], dtype=np.uint8)])
    n_steps = arr.size // 2
    if n_info is None:
        n_info = n_steps
    if n_steps == 0:
        return np.zeros(0, dtype=np.uint8)

    pairs = arr.reshape(n_steps, 2)
    metrics = np.full(_N_STATES, 1 << 30, dtype=np.int64)
    metrics[0] = 0
    survivor = np.empty((n_steps, _N_STATES), dtype=np.int64)

    src0 = _PREV[:, 0, 0]
    bit0 = _PREV[:, 0, 1]
    src1 = _PREV[:, 1, 0]
    bit1 = _PREV[:, 1, 1]
    out0 = _OUT[src0, bit0]
    out1 = _OUT[src1, bit1]

    for t in range(n_steps):
        rx = pairs[t]
        w0 = 0 if rx[0] == ERASURE else 1
        w1 = 0 if rx[1] == ERASURE else 1
        branch0 = w0 * (out0[:, 0] != rx[0]).astype(np.int64) + w1 * (out0[:, 1] != rx[1])
        branch1 = w0 * (out1[:, 0] != rx[0]).astype(np.int64) + w1 * (out1[:, 1] != rx[1])
        cand0 = metrics[src0] + branch0
        cand1 = metrics[src1] + branch1
        take1 = cand1 < cand0
        metrics = np.where(take1, cand1, cand0)
        survivor[t] = np.where(take1, (src1 << 1) | bit1, (src0 << 1) | bit0)

    state = int(np.argmin(metrics))
    decoded = np.empty(n_steps, dtype=np.uint8)
    for t in range(n_steps - 1, -1, -1):
        packed = survivor[t, state]
        decoded[t] = packed & 1
        state = int(packed >> 1)
    return decoded[:n_info]


def viterbi_decode_soft(llrs: np.ndarray, *, n_info: int | None = None) -> np.ndarray:
    """Seed soft-decision Viterbi (per-step ACS loop)."""
    arr = np.asarray(llrs, dtype=float)
    if arr.size % 2:
        arr = np.concatenate([arr, [0.0]])
    n_steps = arr.size // 2
    if n_info is None:
        n_info = n_steps
    if n_steps == 0:
        return np.zeros(0, dtype=np.uint8)
    pairs = arr.reshape(n_steps, 2)

    metrics = np.full(_N_STATES, 1e18)
    metrics[0] = 0.0
    survivor = np.empty((n_steps, _N_STATES), dtype=np.int64)

    src0 = _PREV[:, 0, 0]
    bit0 = _PREV[:, 0, 1]
    src1 = _PREV[:, 1, 0]
    bit1 = _PREV[:, 1, 1]
    exp0 = 2.0 * _OUT[src0, bit0].astype(float) - 1.0
    exp1 = 2.0 * _OUT[src1, bit1].astype(float) - 1.0

    for t in range(n_steps):
        rx = pairs[t]
        branch0 = -(exp0[:, 0] * rx[0] + exp0[:, 1] * rx[1])
        branch1 = -(exp1[:, 0] * rx[0] + exp1[:, 1] * rx[1])
        cand0 = metrics[src0] + branch0
        cand1 = metrics[src1] + branch1
        take1 = cand1 < cand0
        metrics = np.where(take1, cand1, cand0)
        survivor[t] = np.where(take1, (src1 << 1) | bit1, (src0 << 1) | bit0)

    state = int(np.argmin(metrics))
    decoded = np.empty(n_steps, dtype=np.uint8)
    for t in range(n_steps - 1, -1, -1):
        packed = survivor[t, state]
        decoded[t] = packed & 1
        state = int(packed >> 1)
    return decoded[:n_info]


def dqpsk_phases(bits: np.ndarray, phase0: float = 0.0) -> np.ndarray:
    """Seed DQPSK mapper (per-dibit dict-lookup comprehension)."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size % 2:
        raise ValueError("DQPSK needs an even number of bits")
    increments = np.array(
        [_DQPSK_PHASE[(int(arr[i]), int(arr[i + 1]))] for i in range(0, arr.size, 2)]
    )
    return phase0 + np.cumsum(increments)


def diff_dibits(symbols: np.ndarray, prev: complex) -> np.ndarray:
    """Seed DQPSK differential decision (per-symbol dict lookups)."""
    ref = np.concatenate([[prev], symbols[:-1]])
    rot = symbols * np.conj(ref)
    phase = np.mod(np.angle(rot) + np.pi / 4, 2 * np.pi)
    quadrant = (phase // (np.pi / 2)).astype(int)
    inv = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}
    bits = np.empty(symbols.size * 2, dtype=np.uint8)
    for i, q in enumerate(quadrant):
        bits[2 * i], bits[2 * i + 1] = inv[int(q)]
    return bits


def scramble_80211b(bits: np.ndarray | list[int], *, seed: int = 0x6C) -> np.ndarray:
    """Seed 802.11b self-synchronizing scrambler (per-bit loop)."""
    arr = np.asarray(bits, dtype=np.uint8)
    state = seed & 0x7F
    out = np.empty_like(arr)
    for i, b in enumerate(arr):
        fb = ((state >> 3) & 1) ^ ((state >> 6) & 1)
        s = int(b) ^ fb
        out[i] = s
        state = ((state << 1) | s) & 0x7F
    return out


def descramble_80211b(bits: np.ndarray | list[int], *, seed: int = 0x6C) -> np.ndarray:
    """Seed 802.11b descrambler (per-bit loop)."""
    arr = np.asarray(bits, dtype=np.uint8)
    state = seed & 0x7F
    out = np.empty_like(arr)
    for i, s in enumerate(arr):
        fb = ((state >> 3) & 1) ^ ((state >> 6) & 1)
        out[i] = int(s) ^ fb
        state = ((state << 1) | int(s)) & 0x7F
    return out


def score_capture(codes, bank, *, quantized: bool, offsets: tuple[int, ...] = (0,)):
    """Seed correlation scoring (per-template matmul loop)."""
    arr = np.asarray(codes, dtype=float)
    l_p = bank.l_p
    l_m = bank.l_m
    valid = [o for o in offsets if 0 <= o and o + l_p + l_m <= arr.size]
    scores = {p: -1.0 for p in bank.templates}
    if not valid:
        return scores

    win = np.lib.stride_tricks.sliding_window_view(arr, l_p + l_m)
    sel = win[np.asarray(valid)]
    pre = sel[:, :l_p]
    window = sel[:, l_p:]
    dc = pre[:, l_p // 2 :].mean(axis=1, keepdims=True)
    if quantized:
        q = np.where(window - dc >= 0.0, 1.0, -1.0)
        for p, t in bank.templates.items():
            c = q @ t.matching_q / t.matching_q.size
            scores[p] = float(c.max())
    else:
        centered = window - window.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(centered, axis=1, keepdims=True)
        norms = np.where(norms <= 1e-12, 1.0, norms)
        unit = centered / norms
        for p, t in bank.templates.items():
            c = unit @ t.matching
            scores[p] = float(c.max())
    return scores


def reference_run_airlink(
    schedule,
    tag,
    *,
    d_tag_rx_m: float = 2.0,
    tag_payload=None,
    rng=None,
    max_packets=None,
):
    """Seed (pre-pipeline-refactor) ``run_airlink`` loop body, verbatim.

    The streaming/batch equivalence tests drive both the thin batch
    driver and the packet-at-a-time gateway pipeline against this
    frozen copy: RNG draw order, payload cursor arithmetic, and the
    scalar decode path are exactly as they existed before the
    excite/decode stages were split out into ``repro.sim.pipeline``.
    Returns the list of ``PacketOutcome``-shaped tuples
    (protocol, start_s, identified, backscattered, tag_bits_sent,
    tag_bits_correct, productive_bits_correct, productive_bits_total,
    tag_bits_decoded) rather than the dataclass, so the comparison
    cannot silently pick up refactored behavior.
    """
    from repro.channel.link import PROTOCOL_LINK_DEFAULTS, BackscatterLink
    from repro.channel.noise import awgn
    from repro.core.identification import DEFAULT_INCIDENT_DBM
    from repro.core.overlay import OverlayCodec, OverlayConfig
    from repro.core.overlay_decoder import OverlayDecoder
    from repro.core.tag import MultiscatterTag, SingleProtocolTag
    from repro.core.tag_modulation import TagModulator
    from repro.rng import fallback_rng
    from repro.sim.traffic import random_packet

    rng = fallback_rng(rng)
    payload = (
        np.asarray(tag_payload, dtype=np.uint8)
        if tag_payload is not None
        else rng.integers(0, 2, 4096).astype(np.uint8)
    )
    outcomes = []
    cursor = 0

    packets = schedule.packets[:max_packets] if max_packets else schedule.packets
    for scheduled in packets:
        protocol = scheduled.protocol
        modulator = (
            tag.modulator_for(protocol) if isinstance(tag, MultiscatterTag) else None
        )
        if modulator is None and isinstance(tag, SingleProtocolTag):
            if protocol is not tag.protocol:
                excitation = random_packet(protocol, rng, n_payload_bytes=20)
                reaction = tag.react(excitation, [])
                outcomes.append(
                    (protocol, scheduled.start_s, reaction.identified, False,
                     0, 0, 0, 0, np.zeros(0, np.uint8))
                )
                continue
            codec = OverlayCodec(OverlayConfig.for_mode(protocol, tag.mode))
            modulator = TagModulator(codec, frequency_shift_hz=tag.frequency_shift_hz)

        codec = modulator.codec
        n_prod = 24
        productive = rng.integers(0, 2, n_prod).astype(np.uint8)
        excitation = codec.build_carrier(productive)
        _, capacity = codec.capacity(excitation.annotations["n_payload_symbols"])

        chunk = payload[cursor : cursor + capacity]
        reaction = tag.react(
            excitation,
            chunk,
            incident_power_dbm=DEFAULT_INCIDENT_DBM[protocol],
            rng=rng,
        )
        if not reaction.transmitted:
            outcomes.append(
                (protocol, scheduled.start_s, reaction.identified, False,
                 0, 0, 0, n_prod, np.zeros(0, np.uint8))
            )
            continue
        cursor += reaction.tag_bits_sent.size

        link = BackscatterLink(PROTOCOL_LINK_DEFAULTS[protocol])
        snr_db = link.snr_db(d_tag_rx_m)
        received = modulator.received_at_shifted_channel(reaction.backscattered)
        received = awgn(received, snr_db=snr_db, rng=rng)
        received.annotations = dict(excitation.annotations)

        out = OverlayDecoder(codec).decode(received)
        sent = reaction.tag_bits_sent
        got_tag = out.tag_bits[: sent.size]
        tag_correct = int(np.count_nonzero(got_tag == sent)) if sent.size else 0
        got_prod = out.productive_bits[:n_prod]
        prod_correct = int(np.count_nonzero(got_prod == productive[: got_prod.size]))
        outcomes.append(
            (protocol, scheduled.start_s, reaction.identified, True,
             int(sent.size), tag_correct, prod_correct, n_prod,
             np.asarray(got_tag, dtype=np.uint8))
        )
    return outcomes


# ----------------------------------------------------------------------
# Tag ADC: the whole trace band-limited, with a filter designed per call
# ----------------------------------------------------------------------
def adc_capture_codes(adc, analog, *, duration_s=None, phase_s=0.0):
    """Seed ``Adc.capture`` codes (``start_s=0``): the anti-aliasing
    filter is designed, and the whole trace filtered, on every call."""
    from scipy import signal as sp_signal

    def bandlimit():
        cutoff = 0.4 * adc.sample_rate
        nyq = analog.sample_rate / 2.0
        if not adc.antialias or cutoff >= nyq:
            return analog.voltage
        sos = sp_signal.butter(4, cutoff / nyq, output="sos")
        zi = sp_signal.sosfilt_zi(sos) * analog.voltage[0] if analog.voltage.size else None
        if zi is None:
            return analog.voltage
        filtered, _ = sp_signal.sosfilt(sos, analog.voltage, zi=zi)
        return filtered

    total_s = analog.voltage.size / analog.sample_rate
    if duration_s is None:
        duration_s = total_s
    t0 = phase_s
    n_out = max(int(np.floor(duration_s * adc.sample_rate)), 0)
    times = t0 + np.arange(n_out) / adc.sample_rate
    times = np.clip(times, 0.0, total_s - 1.0 / analog.sample_rate)
    src_t = np.arange(analog.voltage.size) / analog.sample_rate
    volts = np.interp(times, src_t, bandlimit())
    full_scale = (1 << adc.n_bits) - 1
    return np.clip(np.round(volts / adc.v_ref * full_scale), 0, full_scale).astype(np.int32)


# ----------------------------------------------------------------------
# 802.11n / 802.11a OFDM: one 64-point transform per symbol
# ----------------------------------------------------------------------
def ofdm_symbol(data_points, carriers, pilot_polarity):
    """Seed OFDM symbol builder: one 80-sample symbol, one IFFT."""
    from repro.phy.wifi_n import CP_LEN, N_FFT, PILOT_CARRIERS, PILOT_VALUES

    spec = np.zeros(N_FFT, dtype=complex)
    spec[np.asarray(carriers) % N_FFT] = data_points
    spec[PILOT_CARRIERS % N_FFT] = PILOT_VALUES * pilot_polarity
    body = np.fft.ifft(spec) * N_FFT / np.sqrt(52.0)
    return np.concatenate([body[-CP_LEN:], body])


def legacy_bpsk_symbol(bits24, *, qbpsk=False):
    """Seed L-SIG / HT-SIG symbol."""
    from repro.phy import convcode
    from repro.phy.interleaver import interleave as legacy_interleave
    from repro.phy.wifi_n import LEGACY_DATA_CARRIERS, _map_bits

    coded = convcode.encode(bits24)
    inter = legacy_interleave(coded, n_cbps=48, n_bpsc=1)
    points = _map_bits(inter, "BPSK")
    if qbpsk:
        points = points * 1j  # HT-SIG uses 90-degree rotated BPSK
    return ofdm_symbol(points, LEGACY_DATA_CARRIERS, pilot_polarity=1.0)


def wifi_n_modulate_iq(payload, cfg):
    """Seed ``wifi_n.modulate`` samples: interleave, map and transform
    symbol by symbol (the one-symbol HT interleaver inlined).  The
    preamble comes from the module's cached training and SIG fields."""
    from repro.phy import bits as bitlib
    from repro.phy import convcode
    from repro.phy import wifi_n as w

    psdu = bitlib.bits_from_bytes(payload)
    stream = np.concatenate([np.zeros(16, np.uint8), psdu, np.zeros(6, np.uint8)])
    n_sym = max(1, int(np.ceil(stream.size / cfg.n_dbps)))
    pad = n_sym * cfg.n_dbps - stream.size
    stream = np.concatenate([stream, np.zeros(pad, np.uint8)])

    scrambled = bitlib.scramble_80211_frame(stream, seed=cfg.scrambler_seed)
    coded = convcode.puncture(convcode.encode(scrambled), cfg.coding_rate)

    perm = w._ht_permutation(cfg.n_cbps, cfg.n_bpsc)
    data_samples = []
    for s in range(n_sym):
        block = coded[s * cfg.n_cbps : (s + 1) * cfg.n_cbps]
        inter = np.empty_like(block)
        inter[perm] = block
        points = w._map_bits(inter, cfg.constellation)
        polarity = w.PILOT_POLARITY[(s + 3) % w.PILOT_POLARITY.size]
        data_samples.append(ofdm_symbol(points, w.HT_DATA_CARRIERS, polarity))

    preamble = np.concatenate(
        [
            w._l_stf(),
            w._l_ltf(),
            w._l_sig(0b1011, max(1, psdu.size // 8)),
            w._ht_sig(cfg.mcs, max(1, psdu.size // 8)),
            w._ht_stf(),
            w._ht_ltf(),
        ]
    )
    return np.concatenate([preamble] + data_samples)


def wifi_n_demodulate(wave, *, soft=False):
    """Seed ``wifi_n.demodulate``: FFT, equalize, track the common phase,
    demap and deinterleave symbol by symbol (the one-symbol HT
    deinterleaver inlined).  Returns ``(data_bits, cpe_per_symbol)``."""
    from repro.phy import bits as bitlib
    from repro.phy import convcode, viterbi
    from repro.phy import wifi_n as w

    ann = wave.annotations
    cfg = w.WifiNConfig(mcs=ann["mcs"], scrambler_seed=ann.get("scrambler_seed", 0x5D))
    cfo = w.estimate_cfo(wave)
    if abs(cfo) > 1.0:
        wave = wave.frequency_shifted(-cfo)
    h = w._estimate_channel(wave)
    h = np.where(np.abs(h) < 1e-12, 1e-12, h)

    start = ann["payload_start"]
    n_sym = ann["n_payload_symbols"]
    coded = []
    soft_blocks = []
    cpes = np.zeros(n_sym)
    prev_cpe = 0.0
    perm = w._ht_permutation(cfg.n_cbps, cfg.n_bpsc)
    for s in range(n_sym):
        seg = wave.iq[start + s * w.SYMBOL_LEN : start + (s + 1) * w.SYMBOL_LEN]
        if seg.size < w.SYMBOL_LEN:
            seg = np.pad(seg, (0, w.SYMBOL_LEN - seg.size))
        spec = np.fft.fft(seg[w.CP_LEN :]) * np.sqrt(52.0) / w.N_FFT
        eq = spec / h
        polarity = w.PILOT_POLARITY[(s + 3) % w.PILOT_POLARITY.size]
        expected = w.PILOT_VALUES * polarity
        received = eq[w.PILOT_CARRIERS % w.N_FFT]
        corr = np.sum(received * np.conj(expected))
        cpe_raw = float(np.angle(corr))
        k = np.round((prev_cpe - cpe_raw) / np.pi)
        cpe_mod = cpe_raw + k * np.pi
        prev_cpe = cpe_mod
        cpes[s] = cpe_mod
        eq = eq * np.exp(-1j * cpe_mod)
        points = eq[w.HT_DATA_CARRIERS % w.N_FFT]
        hard = w._demap_symbols(points, cfg.constellation)
        coded.append(hard[perm])
        if soft:
            csi = np.abs(h[w.HT_DATA_CARRIERS % w.N_FFT]) ** 2
            llr = w._demap_soft(points, cfg.constellation, csi)
            soft_blocks.append(llr[perm])

    if soft:
        llr_stream = np.concatenate(soft_blocks) if soft_blocks else np.zeros(0)
        llr_stream = convcode.depuncture_soft(llr_stream, cfg.coding_rate)
        scrambled = viterbi.decode_soft(llr_stream, n_info=ann["n_stream_bits"])
    else:
        coded_stream = np.concatenate(coded) if coded else np.zeros(0, np.uint8)
        coded_stream = convcode.depuncture(coded_stream, cfg.coding_rate)
        scrambled = viterbi.decode(coded_stream, n_info=ann["n_stream_bits"])
    n_padded = n_sym * cfg.n_dbps
    if scrambled.size < n_padded:
        scrambled = np.pad(scrambled, (0, n_padded - scrambled.size))
    data_bits = bitlib.scramble_80211_frame(scrambled, seed=cfg.scrambler_seed)[:n_padded]
    return data_bits, cpes


def wifi_a_modulate_iq(payload, cfg):
    """Seed ``wifi_a.modulate`` samples (per-symbol interleave and IFFT)."""
    from repro.phy import bits as bitlib
    from repro.phy import convcode
    from repro.phy import wifi_n as w
    from repro.phy.interleaver import interleave as legacy_interleave
    from repro.phy.wifi_a import RATE_TABLE

    psdu = bitlib.bits_from_bytes(payload)
    stream = np.concatenate([np.zeros(16, np.uint8), psdu, np.zeros(6, np.uint8)])
    n_sym = max(1, int(np.ceil(stream.size / cfg.n_dbps)))
    pad = n_sym * cfg.n_dbps - stream.size
    stream = np.concatenate([stream, np.zeros(pad, np.uint8)])

    scrambled = bitlib.scramble_80211_frame(stream, seed=cfg.scrambler_seed)
    coded = convcode.puncture(convcode.encode(scrambled), cfg.coding_rate)

    data_samples = []
    for s in range(n_sym):
        block = coded[s * cfg.n_cbps : (s + 1) * cfg.n_cbps]
        inter = legacy_interleave(block, n_cbps=cfg.n_cbps, n_bpsc=cfg.n_bpsc)
        points = w._map_bits(inter, cfg.constellation)
        polarity = w.PILOT_POLARITY[(s + 1) % w.PILOT_POLARITY.size]
        data_samples.append(ofdm_symbol(points, w.LEGACY_DATA_CARRIERS, polarity))

    preamble = np.concatenate(
        [
            w._l_stf(),
            w._l_ltf(),
            w._l_sig(RATE_TABLE[cfg.rate_mbps][3], max(1, psdu.size // 8)),
        ]
    )
    return np.concatenate([preamble] + data_samples)


def wifi_a_demodulate(wave):
    """Seed ``wifi_a.demodulate`` (per-symbol receive loop); PSDU bits."""
    from repro.phy import bits as bitlib
    from repro.phy import convcode, viterbi
    from repro.phy import wifi_n as w
    from repro.phy.interleaver import deinterleave as legacy_deinterleave
    from repro.phy.wifi_a import WifiAConfig

    ann = wave.annotations
    cfg = WifiAConfig(rate_mbps=ann["rate_mbps"], scrambler_seed=ann.get("scrambler_seed", 0x5D))
    start_ltf = ann["l_ltf_start"] + 32
    body = wave.iq[start_ltf : start_ltf + w.N_FFT]
    spec = np.fft.fft(body) * np.sqrt(52.0) / w.N_FFT
    h = np.ones(w.N_FFT, dtype=complex)
    for k in range(-26, 27):
        ref = w._L26[k + 26]
        if ref != 0:
            h[k % w.N_FFT] = spec[k % w.N_FFT] / ref
    h = np.where(np.abs(h) < 1e-12, 1e-12, h)

    start = ann["payload_start"]
    n_sym = ann["n_payload_symbols"]
    coded = []
    prev_cpe = 0.0
    for s in range(n_sym):
        seg = wave.iq[start + s * w.SYMBOL_LEN : start + (s + 1) * w.SYMBOL_LEN]
        if seg.size < w.SYMBOL_LEN:
            seg = np.pad(seg, (0, w.SYMBOL_LEN - seg.size))
        spec = np.fft.fft(seg[w.CP_LEN :]) * np.sqrt(52.0) / w.N_FFT
        eq = spec / h
        polarity = w.PILOT_POLARITY[(s + 1) % w.PILOT_POLARITY.size]
        expected = w.PILOT_VALUES * polarity
        received = np.array([eq[int(c) % w.N_FFT] for c in w.PILOT_CARRIERS])
        cpe_raw = float(np.angle(np.sum(received * np.conj(expected))))
        k = np.round((prev_cpe - cpe_raw) / np.pi)
        cpe = cpe_raw + k * np.pi
        prev_cpe = cpe
        eq = eq * np.exp(-1j * cpe)
        points = np.array([eq[int(c) % w.N_FFT] for c in w.LEGACY_DATA_CARRIERS])
        hard = w._demap_symbols(points, cfg.constellation)
        coded.append(legacy_deinterleave(hard, n_cbps=cfg.n_cbps, n_bpsc=cfg.n_bpsc))

    coded_stream = np.concatenate(coded) if coded else np.zeros(0, np.uint8)
    coded_stream = convcode.depuncture(coded_stream, cfg.coding_rate)
    scrambled = viterbi.decode(coded_stream, n_info=ann["n_stream_bits"])
    n_padded = n_sym * cfg.n_dbps
    if scrambled.size < n_padded:
        scrambled = np.pad(scrambled, (0, n_padded - scrambled.size))
    data_bits = bitlib.scramble_80211_frame(scrambled, seed=cfg.scrambler_seed)[:n_padded]
    return data_bits[16 : ann["n_stream_bits"] - 6]


# ----------------------------------------------------------------------
# Collision scenes: a filter designed per resample, complex filtering,
# and both packets scaled at full length
# ----------------------------------------------------------------------
def waveform_resampled(wave, new_rate_hz):
    """Seed ``Waveform.resampled``: ``resample_poly`` designs its FIR on
    every call and, given complex samples, filters with complex taps."""
    from dataclasses import replace

    from scipy import signal as sp_signal

    from repro.phy.waveform import Waveform

    if new_rate_hz <= 0:
        raise ValueError("new_rate_hz must be positive")
    if abs(new_rate_hz - wave.sample_rate) < 1e-9:
        return replace(wave, annotations=dict(wave.annotations))
    from fractions import Fraction

    frac = Fraction(new_rate_hz / wave.sample_rate).limit_denominator(1000)
    iq = sp_signal.resample_poly(wave.iq, frac.numerator, frac.denominator)
    ratio = new_rate_hz / wave.sample_rate
    ann = dict(wave.annotations)
    for key in ("payload_start", "samples_per_symbol"):
        if key in ann:
            ann[key] = int(round(ann[key] * ratio))
    return Waveform(
        iq=iq,
        sample_rate=new_rate_hz,
        center_offset_hz=wave.center_offset_hz,
        annotations=ann,
    )


def superimpose(
    victim,
    victim_dbm,
    interferer,
    interferer_dbm,
    *,
    freq_offset_hz,
    time_offset_s=0.0,
    scene_rate_hz=50e6,
    duration_s=None,
):
    """Seed ``scene.superimpose``, resampling through the seed
    :func:`waveform_resampled`."""
    from repro.core.rectifier import incident_peak_voltage
    from repro.phy.waveform import Waveform

    # Pad before resampling so the polyphase filter's edge transient
    # falls in the padding, not on the packet head the templates match.
    pad_v = 64
    v = waveform_resampled(victim.padded(before=pad_v), scene_rate_hz)
    pad_scaled = int(round(pad_v * scene_rate_hz / victim.sample_rate))
    v = v.sliced(pad_scaled)
    v.annotations = dict(victim.annotations)
    i = waveform_resampled(interferer.padded(before=64), scene_rate_hz)
    i = i.sliced(int(round(64 * scene_rate_hz / interferer.sample_rate)))

    # Scale to unboosted antenna volts.
    def to_volts(w, dbm):
        rms = np.sqrt(w.mean_power())
        if rms <= 0:
            return w.iq
        return w.iq / rms * incident_peak_voltage(dbm, matching_boost=1.0)

    v_iq = to_volts(v, victim_dbm)
    i_iq = to_volts(i, interferer_dbm)

    if freq_offset_hz:
        t = np.arange(i_iq.size) / scene_rate_hz
        i_iq = i_iq * np.exp(2j * np.pi * freq_offset_hz * t)

    n = v_iq.size if duration_s is None else int(duration_s * scene_rate_hz)
    scene = np.zeros(n, dtype=complex)
    scene[: min(v_iq.size, n)] = v_iq[:n]

    shift = int(round(time_offset_s * scene_rate_hz))
    src_lo = max(-shift, 0)
    dst_lo = max(shift, 0)
    span = min(i_iq.size - src_lo, n - dst_lo)
    if span > 0:
        scene[dst_lo : dst_lo + span] += i_iq[src_lo : src_lo + span]

    ann = dict(v.annotations)
    return Waveform(
        iq=scene,
        sample_rate=scene_rate_hz,
        annotations=ann,
    )


# ----------------------------------------------------------------------
# Per-packet hot path: a fresh channel-shift phasor per call, and the
# per-symbol overlay vote and ZigBee phase tracker
# ----------------------------------------------------------------------
def waveform_frequency_shifted(wave, shift_hz):
    """Seed ``Waveform.frequency_shifted``: one ``np.exp`` per call,
    multiplied inline so NumPy elides its temporary on long waveforms."""
    from dataclasses import replace

    t = np.arange(wave.iq.size) / wave.sample_rate
    iq = wave.iq * np.exp(2j * np.pi * shift_hz * t)
    return replace(
        wave,
        iq=iq,
        center_offset_hz=wave.center_offset_hz + shift_hz,
        annotations=dict(wave.annotations),
    )


def overlay_decode_symbols(codec, symbol_values):
    """Seed ``OverlayCodec.decode_symbols``: one comparison per
    modulatable symbol, one vote per gamma-group, in Python loops."""
    from repro.phy.protocols import Protocol

    def values_differ(a, b):
        if codec.config.protocol is Protocol.WIFI_N:
            a = np.asarray(a)
            b = np.asarray(b)
            lo = a.size // 4
            hi = a.size - a.size // 4
            return float(np.mean(a[lo:hi] != b[lo:hi])) > 0.25
        return int(a) != int(b)

    cfg = codec.config
    n_seq = codec.n_sequences(len(symbol_values))
    productive = np.zeros(n_seq, dtype=np.uint8)
    tag = np.zeros(n_seq * cfg.tag_bits_per_sequence, dtype=np.uint8)
    for s in range(n_seq):
        ref = symbol_values[codec.sequence_start(s)]
        productive[s] = codec.productive_bit_from_symbol(ref)
        for j, group in enumerate(codec.tag_symbol_groups(s)):
            votes = [values_differ(symbol_values[idx], ref) for idx in group]
            tag[s * cfg.tag_bits_per_sequence + j] = int(
                np.count_nonzero(votes) * 2 > len(votes)
            )
    return productive, tag


def zigbee_demodulate(wave, *, correct_cfo=True):
    """Seed ``zigbee.demodulate``: per symbol, the I/Q projection by
    ``np.where``, ``np.linalg.norm`` and the ideal chips rebuilt; the
    CFO derotation goes through the seed
    :func:`waveform_frequency_shifted`."""
    from repro.phy import bits as bitlib
    from repro.phy import zigbee
    from repro.phy.protocols import Protocol

    n_chips_sym = zigbee.CHIPS_PER_SYMBOL
    ann = wave.annotations
    if ann.get("protocol") is not Protocol.ZIGBEE:
        raise ValueError("waveform is not annotated as ZigBee")
    if correct_cfo:
        cfo = zigbee.estimate_cfo(wave)
        if abs(cfo) > 0.5:
            wave = waveform_frequency_shifted(wave, -cfo)
            wave.annotations = ann
    n_header = ann["n_header_symbols"]
    n_payload = ann["n_payload_symbols"]
    n_symbols = n_header + n_payload
    z = zigbee._chip_matched_outputs(wave, n_symbols * n_chips_sym)
    q_axis = np.resize(np.array([1.0, 1j], dtype=np.complex128), n_chips_sym)

    symbols = np.empty(n_symbols, dtype=np.uint8)
    corrs = np.empty(n_symbols)
    phase = 0.0
    for k in range(n_symbols):
        zk = z[k * n_chips_sym : (k + 1) * n_chips_sym]
        rotated = zk * np.exp(-1j * phase)
        seg = np.where(np.arange(n_chips_sym) % 2 == 0, rotated.real, rotated.imag)
        scores = zigbee._PN_BIPOLAR @ seg
        best = int(np.argmax(scores))
        symbols[k] = best
        norm = np.linalg.norm(seg) * np.sqrt(n_chips_sym)
        corrs[k] = scores[best] / norm if norm > 1e-12 else 0.0
        ideal = zigbee._PN_BIPOLAR[best] * q_axis
        residual = np.sum(rotated * np.conj(ideal))
        if abs(residual) > 1e-12:
            phase += 0.5 * float(np.angle(residual))

    sfd_ok = bool(
        n_header >= zigbee._N_PREAMBLE_SYMBOLS + 2
        and tuple(symbols[zigbee._N_PREAMBLE_SYMBOLS : zigbee._N_PREAMBLE_SYMBOLS + 2])
        == zigbee._SFD_SYMBOLS
    )
    payload_symbols = symbols[n_header:]
    payload_bits = zigbee.bits_from_symbols(payload_symbols)
    fcs_ok = None
    if ann.get("has_fcs") and payload_bits.size >= 16:
        body, fcs_rx = payload_bits[:-16], payload_bits[-16:]
        fcs_ok = bool(np.array_equal(bitlib.crc16_ccitt(body), fcs_rx))
        payload_bits = body
    return zigbee.ZigbeeDecodeResult(
        payload_bits=payload_bits,
        symbols=payload_symbols,
        correlations=corrs[n_header:],
        sfd_ok=sfd_ok,
        fcs_ok=fcs_ok,
    )


# ----------------------------------------------------------------------
# The single-stream radix-16 hard Viterbi, and the backscatter flips
# placed per sequence and applied per symbol
# ----------------------------------------------------------------------
def viterbi_decode_radix16(coded, *, n_info=None):
    """Parent ``viterbi.decode``: one stream through radix-16 blocks,
    ``argmin`` over each block's 16 candidates and a ``take`` of the
    winners.  The trellis tables are the shipped module's."""
    from repro.phy import viterbi as v

    g34_rep = np.repeat(v._G34, 4, axis=2)
    arr = np.asarray(coded, dtype=np.uint8)
    if arr.size % 2:
        arr = np.concatenate([arr, np.array([ERASURE], dtype=np.uint8)])
    n_steps = arr.size // 2
    if n_info is None:
        n_info = n_steps
    if n_steps == 0:
        return np.zeros(0, dtype=np.uint8)

    pairs = arr.reshape(n_steps, 2).astype(np.intp)
    ptype = pairs[:, 0] * 3 + pairs[:, 1]
    n_blocks = n_steps // 4
    rem = n_steps - n_blocks * 4

    metrics = np.full(_N_STATES, 1 << 28, dtype=np.int32)
    metrics[0] = 0
    surv_blocks = np.empty((n_blocks, _N_STATES), dtype=np.intp)
    pt = ptype[: n_blocks * 4].reshape(n_blocks, 4)
    i12 = pt[:, 0] * 9 + pt[:, 1]
    i34 = pt[:, 2] * 9 + pt[:, 3]
    for c0 in range(0, n_blocks, 64):
        block_bm = v._G12[i12[c0 : c0 + 64]] + g34_rep[i34[c0 : c0 + 64]]
        for nblk, bm in enumerate(block_bm, start=c0):
            cand = metrics.take(v._SRC)
            cand += bm
            cidx = cand.argmin(axis=1, out=surv_blocks[nblk])
            metrics = cand.take(cidx + np.arange(_N_STATES) * 16)

    surv_tail = np.empty((rem, _N_STATES), dtype=np.int64)
    for i in range(rem):
        bm = v._BMTAB[ptype[n_blocks * 4 + i]]
        cand0 = metrics[v._SRC0] + bm[v._BM0]
        cand1 = metrics[v._SRC1] + bm[v._BM1]
        take1 = cand1 < cand0
        metrics = np.where(take1, cand1, cand0)
        surv_tail[i] = np.where(take1, v._PACK1, v._PACK0)

    state = int(np.argmin(metrics))
    decoded = np.empty(n_steps, dtype=np.uint8)
    for i in range(rem - 1, -1, -1):
        packed = int(surv_tail[i, state])
        decoded[n_blocks * 4 + i] = packed & 1
        state = packed >> 1
    src_flat = v._SRC.ravel().tolist()
    survivor = surv_blocks.ravel().item
    path = []
    for nblk in range(n_blocks - 1, -1, -1):
        path.append(state)
        state = src_flat[16 * state + survivor(nblk * _N_STATES + state)]
    decoded[: n_blocks * 4] = v._BITS[path[::-1]].ravel()
    return decoded[:n_info]


def overlay_tag_flip_flags(codec, tag_bits, n_payload_symbols):
    """Parent ``OverlayCodec.tag_flip_flags``: sequence by sequence,
    group by group, symbol by symbol."""
    bits = np.asarray(tag_bits, dtype=np.uint8)
    flags = np.zeros(n_payload_symbols, dtype=bool)
    n_seq = codec.n_sequences(n_payload_symbols)
    k = 0
    for s in range(n_seq):
        for group in codec.tag_symbol_groups(s):
            if k >= bits.size:
                return flags
            if bits[k]:
                for idx in group:
                    if idx < n_payload_symbols:
                        flags[idx] = True
            k += 1
    return flags


def tag_modulate(modulator, wave, tag_bits):
    """Parent ``TagModulator.modulate``: one slice multiply per flipped
    symbol, each span computed on its own; flags from
    :func:`overlay_tag_flip_flags`."""
    from repro.phy.protocols import Protocol

    def span(index):
        start = wave.annotations["payload_start"]
        sym = wave.annotations["samples_per_symbol"]
        lo = start + index * sym
        hi = lo + sym
        if modulator.clock_ppm:
            drift = modulator.clock_ppm * 1e-6
            lo = start + int(round(index * sym * (1.0 + drift)))
            hi = start + int(round((index + 1) * sym * (1.0 + drift)))
        return lo, hi

    protocol = modulator.codec.config.protocol
    ann = wave.annotations
    if ann.get("protocol") is not protocol:
        raise ValueError("waveform protocol does not match codec protocol")
    flags = overlay_tag_flip_flags(modulator.codec, tag_bits, ann["n_payload_symbols"])
    out = wave.copy()
    if protocol in (Protocol.WIFI_N, Protocol.ZIGBEE):
        for idx in np.flatnonzero(flags):
            lo, hi = span(int(idx))
            out.iq[lo:hi] *= -1.0
    elif protocol is Protocol.WIFI_B:
        state = np.cumsum(flags.astype(int)) % 2
        for idx in np.flatnonzero(state):
            lo, hi = span(int(idx))
            out.iq[lo:hi] *= -1.0
    else:
        idx = np.flatnonzero(flags)
        run_start = None
        prev = None
        runs = []
        for i in idx:
            if run_start is None:
                run_start = prev = int(i)
            elif i == prev + 1:
                prev = int(i)
            else:
                runs.append((run_start, prev))
                run_start = prev = int(i)
        if run_start is not None:
            runs.append((run_start, prev))
        for a, b in runs:
            lo, _ = span(a)
            _, hi = span(b)
            seg = out.iq[lo:hi]
            mirrored = np.conj(seg)
            if mirrored.size:
                mirrored *= np.exp(2j * np.angle(seg[0]))
            out.iq[lo:hi] = mirrored
    if modulator.frequency_shift_hz:
        out = out.frequency_shifted(modulator.frequency_shift_hz)
    return out.with_annotations(tag_flip_flags=flags)


# ----------------------------------------------------------------------
# Paper campaign: the threshold search one combination and trace at a
# time, a throughput model per scheduled packet, and the 802.15.4 union
# bound's binomials on every call
# ----------------------------------------------------------------------
def search_thresholds(labeled_scores, *, order=None, grid=None):
    """Parent ``matching.search_thresholds``: one ``OrderedMatcher.decide``
    per threshold combination and trace."""
    import itertools

    from repro.core.matching import DEFAULT_ORDER, OrderedMatcher

    if order is None:
        order = DEFAULT_ORDER
    if grid is None:
        grid = np.arange(0.2, 0.81, 0.15)
    best = None
    for combo in itertools.product(grid, repeat=len(order) - 1):
        matcher = OrderedMatcher(order=order, thresholds=tuple(combo) + (-1.0,))
        correct = {p: [] for p in order}
        for truth, scores in labeled_scores:
            correct[truth].append(matcher.decide(scores) is truth)
        accuracies = [np.mean(v) for v in correct.values() if v]
        avg = float(np.mean(accuracies)) if accuracies else 0.0
        margin = float(np.sum(combo))
        if best is None or (avg, margin) > (best[1], best[2]):
            best = (matcher, avg, margin)
    assert best is not None
    return best[0], best[1]


def evaluate_identifier(identifier, traces, *, rng=None, incident_power_dbm=None):
    """Parent ``identification.evaluate_identifier``: ``identify`` per
    trace, which scores it and decides with the identifier's matcher."""
    from repro.core.identification import DEFAULT_INCIDENT_DBM, AccuracyReport
    from repro.phy.protocols import Protocol

    rng = rng or np.random.default_rng(0)
    if incident_power_dbm is None:
        powers = dict(DEFAULT_INCIDENT_DBM)
    elif isinstance(incident_power_dbm, dict):
        powers = incident_power_dbm
    else:
        powers = {p: float(incident_power_dbm) for p in Protocol}
    totals = {}
    hits = {}
    report = AccuracyReport()
    for truth, wave in traces:
        result = identifier.identify(wave, incident_power_dbm=powers.get(truth), rng=rng)
        totals[truth] = totals.get(truth, 0) + 1
        if result.decision is truth:
            hits[truth] = hits.get(truth, 0) + 1
        key = (truth, result.decision)
        report.confusion[key] = report.confusion.get(key, 0) + 1
    for p, n in totals.items():
        report.per_protocol[p] = hits.get(p, 0) / n
    return report


def diversity_timeline(schedule, *, bin_s=0.05, tag_protocols=None, mode=None, distance_m=2.0):
    """Parent ``carrier_select.diversity_timeline``: two throughput models
    and one ``link.per`` per scheduled packet."""
    from repro.core.overlay import Mode
    from repro.core.throughput import OverlayThroughputModel
    from repro.phy.protocols import Protocol

    if tag_protocols is None:
        tag_protocols = tuple(Protocol)
    if mode is None:
        mode = Mode.MODE_1
    n_bins = max(int(np.ceil(schedule.duration_s / bin_s)), 1)
    bins = np.zeros(n_bins)
    models = {}
    for pkt in schedule.packets:
        if pkt.protocol not in tag_protocols:
            continue
        if pkt.protocol not in models:
            models[pkt.protocol] = OverlayThroughputModel(pkt.protocol, mode=mode)
        model = models[pkt.protocol]
        payload = pkt.source.resolved_payload()
        model_bits = OverlayThroughputModel(pkt.protocol, mode=mode, n_payload_bytes=payload)
        _, tag_bits = model_bits.bits_per_packet()
        per = model.link.per(distance_m, payload * 8)
        idx = min(int(pkt.start_s / bin_s), n_bins - 1)
        bins[idx] += tag_bits * (1.0 - per)
    return {
        "time_s": np.arange(n_bins) * bin_s,
        "tag_kbps": bins / bin_s / 1e3,
    }


def ber_802154(ebn0_lin):
    """Parent ``link.ber_802154``: fifteen ``special.comb`` calls per call."""
    from scipy import special

    snr = max(ebn0_lin, 0.0)
    total = 0.0
    for k in range(2, 17):
        total += (-1.0) ** k * special.comb(16, k) * np.exp(20.0 * snr * (1.0 / k - 1.0))
    ber = (8.0 / 15.0) * (1.0 / 16.0) * total
    return float(np.clip(ber, 0.0, 0.5))
