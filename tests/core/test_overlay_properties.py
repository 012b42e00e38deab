"""Property-based tests on overlay-codec invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.overlay import Mode, OverlayCodec, OverlayConfig
from repro.phy.protocols import Protocol
from tests.reference_impls import sequence_start, tag_symbol_groups

_protocols = st.sampled_from(list(Protocol))
_gammas = st.integers(1, 6)
_kappa_mult = st.integers(2, 8)


@st.composite
def configs(draw):
    protocol = draw(_protocols)
    gamma = draw(_gammas)
    kappa = gamma * draw(_kappa_mult)
    return OverlayConfig(protocol, kappa=kappa, gamma=gamma)


class TestLayoutInvariants:
    @given(configs(), st.integers(0, 600))
    @settings(max_examples=60)
    def test_capacity_consistent_with_layout(self, cfg, n_symbols):
        codec = OverlayCodec(cfg)
        n_prod, n_tag = codec.capacity(n_symbols)
        assert n_prod == codec.n_sequences(n_symbols)
        assert n_tag == n_prod * cfg.tag_bits_per_sequence

    @given(configs(), st.integers(1, 20))
    @settings(max_examples=60)
    def test_groups_disjoint_and_in_bounds(self, cfg, n_seq):
        codec = OverlayCodec(cfg)
        n_symbols = codec.first_sequence_symbol + n_seq * cfg.kappa
        seen: set[int] = set()
        for s in range(codec.n_sequences(n_symbols)):
            ref = sequence_start(codec, s)
            assert ref < n_symbols
            assert ref not in seen
            seen.add(ref)
            for group in tag_symbol_groups(codec, s):
                for idx in group:
                    assert ref < idx < n_symbols
                    assert idx not in seen
                    seen.add(idx)

    @given(configs(), st.integers(0, 400))
    @settings(max_examples=60)
    def test_capacity_monotone_in_payload(self, cfg, n_symbols):
        codec = OverlayCodec(cfg)
        p1, t1 = codec.capacity(n_symbols)
        p2, t2 = codec.capacity(n_symbols + cfg.kappa)
        assert p2 >= p1
        assert t2 >= t1

    @given(configs(), st.data())
    @settings(max_examples=60)
    def test_flip_flags_only_touch_tag_groups(self, cfg, data):
        codec = OverlayCodec(cfg)
        n_seq = data.draw(st.integers(1, 8))
        n_symbols = codec.first_sequence_symbol + n_seq * cfg.kappa
        _, cap = codec.capacity(n_symbols)
        bits = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=cap, max_size=cap)),
            dtype=np.uint8,
        )
        flags = codec.tag_flip_flags(bits, n_symbols)
        allowed = set()
        for s in range(n_seq):
            for group in tag_symbol_groups(codec, s):
                allowed.update(group)
        flagged = set(np.flatnonzero(flags).tolist())
        assert flagged <= allowed
        # Reference symbols are never flipped.
        for s in range(n_seq):
            assert not flags[sequence_start(codec, s)]

    @given(configs())
    @settings(max_examples=40)
    def test_symbol_decode_identity_without_tag(self, cfg):
        """Encoding productive bits to symbol values and decoding them
        back (no tag modulation) is the identity."""
        codec = OverlayCodec(cfg)
        rng = np.random.default_rng(0)
        prod = rng.integers(0, 2, 6).astype(np.uint8)
        values = []
        if codec.first_sequence_symbol:
            values.append(np.zeros(26, np.uint8) if cfg.protocol is Protocol.WIFI_N else 0)
        for b in prod:
            v = codec.reference_symbol_value(int(b))
            symbol = (
                np.full(26, v, np.uint8) if cfg.protocol is Protocol.WIFI_N else v
            )
            values.extend([symbol] * cfg.kappa)
        decoded_prod, decoded_tag = codec.decode_symbols(values)
        assert np.array_equal(decoded_prod[: prod.size], prod)
        assert not decoded_tag[: prod.size * cfg.tag_bits_per_sequence].any()


class TestModeProperties:
    @given(_protocols)
    def test_mode1_always_balanced(self, protocol):
        cfg = OverlayConfig.for_mode(protocol, Mode.MODE_1)
        assert cfg.tag_bits_per_sequence == 1

    @given(_protocols, st.integers(20, 500))
    @settings(max_examples=40)
    def test_mode3_single_sequence(self, protocol, payload_symbols):
        cfg = OverlayConfig.for_mode(
            protocol, Mode.MODE_3, payload_symbols=payload_symbols
        )
        codec = OverlayCodec(cfg)
        n_prod, _ = codec.capacity(payload_symbols)
        assert n_prod <= 1
